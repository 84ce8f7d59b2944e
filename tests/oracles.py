"""Dense oracles for the framelet transforms, read off the partition tree.

`leaves_under` walks `children`, and `atom_vector` builds the leaf values
of an atom, named by its key, from exact Fraction measures, the way atoms
once stored them: every leaf under a child carries that child's height,
sqrt((|sibling| / |parent|) / |child|), negative on the second child; none
of these run the cascade. `function_matrix`, `gram_matrix`, `frame_bounds`
and `dense_moments` are the atoms x leaves computations the library dropped;
they are for small systems only.
"""

import math
from fractions import Fraction as F

import numpy as np

from adahaar import DegenerateSpan, PartitionMismatch
from adahaar.framelets import RANK_TOL


def exact_measure(block):
    return math.prod((s.hi - s.lo for s in block.sides), start=F(1))


def leaves_under(part, b):
    """The leaves under block b (b itself for a leaf), children in order, depth first."""
    kids = part.children[b]
    if not kids:
        return (b,)
    return tuple(leaf for c in kids for leaf in leaves_under(part, c))


def scaling_vector(part):
    """The normalized root indicator."""
    height = 1.0 / math.sqrt(float(exact_measure(part.blocks[part.root])))
    return np.full(len(part.leaf_ids), height)


def atom_blocks(part, key):
    """The child blocks (block1, block2) of the atom with key (level, parent, l1, l2)."""
    _, parent, l1, l2 = key
    kids = part.children_of(parent)
    return kids[l1 - 1], kids[l2 - 1]


def atom_vector(part, key):
    """Leaf values of the atom with this key, from exact measures; exact before the sqrt."""
    b1, b2 = atom_blocks(part, key)
    pm = exact_measure(part.blocks[key[1]])
    m1, m2 = exact_measure(part.blocks[b1]), exact_measure(part.blocks[b2])
    vec = np.zeros(len(part.leaf_ids))
    vec[[part.leaf_index[leaf] for leaf in leaves_under(part, b1)]] = math.sqrt(float((m2 / pm) / m1))
    vec[[part.leaf_index[leaf] for leaf in leaves_under(part, b2)]] = -math.sqrt(float((m1 / pm) / m2))
    return vec


def dense_matrix(system):
    """The scaling row, then one atom_vector row per atom."""
    part = system.partition
    return np.vstack([scaling_vector(part)] + [atom_vector(part, key) for key in system.keys])


def function_matrix(system):
    """Row per function (scaling first), column per leaf: the synthesis of each unit vector."""
    return system.synthesis(np.eye(len(system))).T


def gram_matrix(system):
    """Pairwise inner products of all system functions (scaling first)."""
    F = function_matrix(system)
    return (F * system.partition.leaf_measures) @ F.T


def dense_moments(system, F):
    """What `FrameletSystem.moments` gives, from function matrix F: integrals, squared norms
    and each function's largest |inner product| with a function of a coarser level."""
    mu = system.partition.leaf_measures
    G = (F * mu) @ F.T
    levels = np.array([-1] + [key[0] for key in system.keys])  # -1: scaling function
    coarser = levels[:, None] < levels[None, :]
    return F @ mu, np.diag(G).copy(), np.where(coarser, np.abs(G), 0.0).max(axis=0)


def frame_bounds(functions, space) -> tuple:
    """Extreme eigenvalues of the frame operator restricted to span(space).

    `functions` and `space` are PwcFunctions on one partition. The span
    basis is whitened through its Gram matrix first; a numerically rank
    deficient basis raises DegenerateSpan. Both bounds equal 1 exactly when
    the functions form a tight frame for the span.
    """
    if not functions or not space:
        raise ValueError("need non-empty function and span lists")
    part = space[0].partition
    for g in list(functions) + list(space):
        if g.partition != part:
            raise PartitionMismatch("all functions must share one partition")
    mu = part.leaf_measures
    S = np.vstack([g.vector for g in space])
    F = np.vstack([f.vector for f in functions])
    G = (S * mu) @ S.T
    w, U = np.linalg.eigh(G)
    if w[-1] <= 0 or w[0] < RANK_TOL * w[-1]:
        raise DegenerateSpan("span basis is numerically rank deficient")
    onb = (U / np.sqrt(w)).T @ S          # rows: orthonormal basis of the span
    T = (F * mu) @ onb.T                  # projections of each function
    ev = np.linalg.eigvalsh(T.T @ T)
    return float(ev[0]), float(ev[-1])
