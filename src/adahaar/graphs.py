"""Weighted graphs and digraphs, symmetrization, and coarse-grained chains.

Coarse-graining sums weights over all ordered member pairs, so internal
edges of a cluster appear twice in its self-loop and a node's degree (row
sum, self-loop counted once) is conserved level to level.
"""

from __future__ import annotations

import warnings
from collections import deque

import numpy as np

from .errors import (BadClustering, ClustererStalled, ParseError,
                     ValidationError, ZeroDegreeCluster, strict_int)

WEIGHT_TOL = 1e-12
# relative width of the score band whose pairs default_cluster re-scores exactly
SCORE_BAND = 1e-9


class Graph:
    """Vertex labels plus a finite, non-negative weight matrix.

    Undirected graphs require an exactly symmetric matrix. Self-loops are
    allowed (coarse-grained graphs produce them) and count once in degrees.
    """

    def __init__(self, weights, labels=None, directed=False):
        W = np.array(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.isfinite(W).all():
            bad = np.argwhere(~np.isfinite(W))
            where = ", ".join(f"{W[i, j]} at ({i}, {j})" for i, j in bad[:5].tolist())
            raise ValidationError(
                f"weights must be finite; {len(bad)} are not: {where}")
        if np.any(W < 0):
            raise ValueError("weights must be non-negative")
        if not directed and not np.array_equal(W, W.T):
            raise ValueError("undirected graph needs a symmetric weight matrix")
        W.setflags(write=False)
        self.weights = W
        self.directed = bool(directed)
        self.labels = tuple(labels) if labels is not None else tuple(
            str(i) for i in range(W.shape[0]))
        if len(self.labels) != W.shape[0]:
            raise ValueError("label count does not match matrix size")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("vertex labels must be unique")
        padded = [lab for lab in self.labels if str(lab) != str(lab).strip()]
        if padded:
            # signal CSVs strip labels, so such a label could not be read back
            raise ValidationError(
                f"vertex labels must not start or end with whitespace: {padded[:5]}")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def degree(self, v) -> float:
        """Row sum of the weight matrix; a self-loop contributes once."""
        return float(self.weights[v].sum())

    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def __repr__(self):
        kind = "Digraph" if self.directed else "Graph"
        return f"{kind}(n={self.n}, total_weight={self.weights.sum():g})"

    def to_json(self) -> dict:
        edges = []
        for i in range(self.n):
            cols = range(self.n) if self.directed else range(i, self.n)
            for j in cols:
                w = self.weights[i, j]
                if w != 0:
                    edges.append([i, j, float(w)])
        return {"labels": list(self.labels), "directed": self.directed, "edges": edges}

    @classmethod
    def from_json(cls, obj) -> "Graph":
        try:
            if not isinstance(obj["labels"], list):
                raise ParseError(f"graph JSON: labels must be a list, got {obj['labels']!r}")
            if not isinstance(obj["directed"], bool):
                raise ParseError(f"graph JSON: directed must be true or false, "
                                 f"got {obj['directed']!r}")
            labels = [str(x) for x in obj["labels"]]
            directed = obj["directed"]
            n = len(labels)
            W = np.zeros((n, n))
            if "matrix" in obj:
                W = np.array(obj["matrix"], dtype=float)
            else:
                pos = {lab: i for i, lab in enumerate(labels)}
                for u, v, w in obj["edges"]:
                    i, j = (pos[x] if isinstance(x, str) else
                            strict_int(x, "graph JSON: edge endpoint")
                            for x in (u, v))
                    if not (0 <= i < n and 0 <= j < n):
                        raise ParseError(f"graph JSON: edge {[u, v, w]} has an endpoint "
                                         f"outside 0..{n - 1}")
                    W[i, j] = float(w)
                    if not directed:
                        W[j, i] = float(w)
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ParseError(f"malformed graph JSON: {exc}") from exc
        return cls(W, labels, directed)


class Clustering:
    """Partition of vertices 0..n-1 into clusters.

    Cluster ids are normalized to 0..m-1 ordered by smallest member, which
    keeps every downstream construction deterministic.
    """

    def __init__(self, assignment):
        raw = list(assignment)
        if not raw:
            raise BadClustering("empty assignment")
        groups = {}
        for v, key in enumerate(raw):
            groups.setdefault(key, []).append(v)
        order = sorted(groups.values(), key=min)
        self.members = [tuple(g) for g in order]
        self.assignment = np.empty(len(raw), dtype=int)
        for cid, grp in enumerate(self.members):
            for v in grp:
                self.assignment[v] = cid

    @classmethod
    def from_sets(cls, sets, n) -> "Clustering":
        assignment = [None] * n
        for cid, s in enumerate(sets):
            for v in s:
                if not (0 <= v < n) or assignment[v] is not None:
                    raise BadClustering(f"vertex {v} missing, repeated or out of range")
                assignment[v] = cid
        if any(a is None for a in assignment):
            raise BadClustering("assignment does not cover every vertex")
        return cls(assignment)

    @property
    def m(self) -> int:
        return len(self.members)


def component_count(g: Graph) -> int:
    """Number of connected components of the underlying undirected graph."""
    adj = (g.weights + g.weights.T) != 0
    seen = np.zeros(g.n, dtype=bool)
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return count


def is_weakly_connected(g: Graph) -> bool:
    """True when the underlying undirected graph is connected."""
    return component_count(g) == 1


def symmetrize(g: Graph) -> tuple:
    """Undirected out-profile / in-profile pair of a digraph.

    Self-loops are added first (identity plus the weights) so the products
    keep weak connectivity; the products' diagonals are then dropped.
    Swapping the roles of rows and columns of the input swaps the pair.
    """
    components = component_count(g)
    if components > 1:
        warnings.warn(f"input digraph is not weakly connected ({components} components); "
                      "the symmetrized pair will be disconnected too")
    We = np.eye(g.n) + g.weights
    W1 = We @ We.T
    W2 = We.T @ We
    Wx = W1 - np.diag(np.diag(W1))
    Wy = W2 - np.diag(np.diag(W2))
    return Graph(Wx, g.labels), Graph(Wy, g.labels)


def coarse_grain(g: Graph, clustering: Clustering) -> Graph:
    """Cluster-level graph: weights summed over all ordered member pairs."""
    if g.directed:
        raise ValueError("coarse_grain expects an undirected graph")
    if len(clustering.assignment) != g.n:
        raise BadClustering(
            f"assignment covers {len(clustering.assignment)} of {g.n} vertices")
    M = np.zeros((g.n, clustering.m))
    M[np.arange(g.n), clustering.assignment] = 1.0
    Wc = M.T @ g.weights @ M
    Wc = np.triu(Wc) + np.triu(Wc, 1).T  # exact symmetry
    labels = ["+".join(g.labels[v] for v in grp) for grp in clustering.members]
    return Graph(Wc, labels)


class Chain:
    """Sequence of coarse-grained graphs, finest first, ending in one node.

    parents[i] maps each node of graphs[i] to its cluster in graphs[i+1].
    """

    def __init__(self, graphs, parents):
        self.graphs = list(graphs)
        self.parents = [np.asarray(p, dtype=int) for p in parents]
        if len(self.parents) != len(self.graphs) - 1:
            raise ValidationError("need one parent map per coarsening step")

    @property
    def depth(self) -> int:
        return len(self.graphs) - 1

    @property
    def finest(self) -> Graph:
        return self.graphs[0]

    def members(self, i) -> list:
        """Original-vertex sets represented by each node of graphs[i]."""
        sets = [frozenset([v]) for v in range(self.graphs[0].n)]
        for step in range(i):
            merged = [set() for _ in range(self.graphs[step + 1].n)]
            for u, p in enumerate(self.parents[step]):
                merged[p].update(sets[u])
            sets = [frozenset(s) for s in merged]
        return sets

    def check_degrees(self) -> None:
        """Raise ZeroDegreeCluster naming the first node below the coarsest level, finest
        level first, whose degree is not positive: its interval would be empty."""
        for i, g in enumerate(self.graphs[:-1]):
            deg = g.degrees()
            bad = np.flatnonzero(~(deg > 0))
            if bad.size:
                raise ZeroDegreeCluster(f"node {g.labels[bad[0]]!r} at chain level {i} "
                                        f"(0 = finest) has zero degree, so its interval "
                                        f"would be empty")

    def validate(self) -> None:
        """Raise ValidationError unless every level coarse-grains the previous and
        every node below the coarsest level has positive degree.

        Weight comparisons are exact when all weights are integers whose total is below
        2**53, so every sum is exact in floating point; otherwise each weight must agree
        within WEIGHT_TOL relative.
        """
        if self.graphs[-1].n != 1:
            raise ValidationError("coarsest graph must have exactly one node")
        for i, pmap in enumerate(self.parents):
            fine, coarse = self.graphs[i], self.graphs[i + 1]
            if len(pmap) != fine.n:
                raise ValidationError(f"parent map {i} has wrong length")
            if np.any(pmap < 0) or np.any(pmap >= coarse.n):
                raise ValidationError(f"parent map {i} points outside the coarser graph")
            if len(set(pmap.tolist())) != coarse.n:
                raise ValidationError(f"parent map {i} leaves an empty cluster")
            M = np.zeros((fine.n, coarse.n))
            M[np.arange(fine.n), pmap] = 1.0
            expected = M.T @ fine.weights @ M
            exact = ((fine.weights == np.round(fine.weights)).all()
                     and fine.weights.sum() < 2 ** 53)
            if not (np.array_equal(expected, coarse.weights) if exact else
                    np.allclose(expected, coarse.weights, rtol=WEIGHT_TOL, atol=0.0)):
                raise ValidationError(f"level {i + 1} weights disagree with coarse-graining")
        self.check_degrees()

    def to_json(self) -> dict:
        return {"graphs": [g.to_json() for g in self.graphs],
                "parents": [p.tolist() for p in self.parents]}

    @classmethod
    def from_json(cls, obj, validate=True) -> "Chain":
        try:
            graphs = [Graph.from_json(g) for g in obj["graphs"]]
            parents = [np.array([strict_int(x, "chain JSON: parent index") for x in p], dtype=int)
                       for p in obj["parents"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed chain JSON: {exc}") from exc
        chain = cls(graphs, parents)
        if validate:
            chain.validate()
        return chain


def _pair_score(g: Graph, deg, A, B) -> float:
    """Inter-cluster weight over the product of degree sums, summed afresh."""
    return float(g.weights[np.ix_(A, B)].sum()) / (deg[A].sum() * deg[B].sum())


def default_cluster(g: Graph, target=None) -> Clustering:
    """Deterministic greedy merge down to `target` clusters (default ceil(n/2)).

    Each step merges the cluster pair maximizing inter-cluster weight
    divided by the product of the clusters' degree sums; ties go to the
    lexicographically smallest pair of smallest member ids.

    The cluster-weight matrix, the degree sums and the upper-triangular
    score matrix, all indexed by smallest member, carry over from merge to
    merge: merging b into a adds b's row and column into a's, retires b and
    re-scores a from its row of the (exactly symmetric) weight matrix, so a
    merge costs about m^2 in a few array operations, all under one
    `np.errstate`. Sums built up this way can differ from a fresh sum in the
    last bits, so every pair within SCORE_BAND (relative) of the top score
    is re-scored from the member lists, under the caller's floating-point
    settings, and the first pair with the highest exact score wins, which
    gives the same merges as scoring every pair afresh.
    """
    if g.directed:
        raise ValueError("default_cluster expects an undirected graph")
    n = g.n
    if target is None:
        target = (n + 1) // 2
    target = max(1, int(target))
    deg = g.degrees()
    clusters = {v: [v] for v in range(n)}
    C = np.array(g.weights)
    d = deg.copy()
    caller = np.geterr()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        upper = np.triu(C, 1)
        S = np.where(upper > 0, upper / np.outer(d, d), -np.inf)
        flat = S.ravel()  # a view: pair (a, b) is entry a * n + b
        while len(clusters) > target:
            top = flat.max()
            if top == -np.inf:
                break  # nothing mergeable; disconnected input
            if np.isnan(top):  # weights so large that sums overflow: score every joined pair
                band = (flat != -np.inf).nonzero()[0]
            else:
                band = (flat >= top * (1 - SCORE_BAND)).nonzero()[0]  # lexicographic
            a, b = divmod(int(band[0]), n)
            if len(band) > 1:
                with np.errstate(**caller):
                    best = None
                    for p, q in (divmod(k, n) for k in band.tolist()):
                        score = _pair_score(g, deg, clusters[p], clusters[q])
                        if best is None or score > best[0]:
                            best = (score, p, q)
                _, a, b = best
            clusters[a] = clusters[a] + clusters[b]
            del clusters[b]
            C[a] += C[b]
            C[:, a] += C[:, b]
            C[b] = C[:, b] = 0  # retired: b's weight now lives in a
            d[a] += d[b]
            S[b] = S[:, b] = -np.inf
            row = C[a]
            scores = np.where(row > 0, row / (d[a] * d), -np.inf)
            S[a, a + 1:] = scores[a + 1:]
            S[:a, a] = scores[:a]
    assignment = [0] * n
    for key, grp in clusters.items():
        for v in grp:
            assignment[v] = key
    return Clustering(assignment)


def build_chain(g: Graph, clusterer=None, max_depth=64, targets=None) -> Chain:
    """Coarsen a connected undirected graph until a single node remains.

    `targets`, when given, fixes the cluster count requested from the
    clusterer at each step (finest first). If max_depth is reached first,
    one final all-in-one step closes the chain.
    """
    if g.directed:
        raise ValueError("build_chain expects an undirected graph")
    if clusterer is None:
        clusterer = default_cluster
    graphs, parents = [g], []
    current = g
    step = 0
    while current.n > 1 and step < max_depth:
        t = targets[step] if targets is not None and step < len(targets) else None
        clustering = clusterer(current, t)
        if clustering.m >= current.n:
            parts = component_count(current)
            if parts > 1:
                raise ClustererStalled(
                    f"step {step}: the graph is disconnected ({parts} connected "
                    f"components), and the clusterer cannot merge across them")
            raise ClustererStalled(
                f"step {step}: clusterer returned {clustering.m} clusters "
                f"for {current.n} nodes")
        current = coarse_grain(current, clustering)
        parents.append(clustering.assignment)
        graphs.append(current)
        step += 1
    if current.n > 1:
        clustering = Clustering([0] * current.n)
        graphs.append(coarse_grain(current, clustering))
        parents.append(clustering.assignment)
    return Chain(graphs, parents)


def pad_chain(chain: Chain, target_depth: int) -> Chain:
    """Repeat the finest graph with identity parent maps up to target_depth."""
    if target_depth < chain.depth:
        raise ValueError(f"cannot pad depth {chain.depth} down to {target_depth}")
    extra = target_depth - chain.depth
    if extra == 0:
        return chain
    ident = np.arange(chain.finest.n)
    return Chain([chain.finest] * extra + chain.graphs,
                 [ident] * extra + chain.parents)
