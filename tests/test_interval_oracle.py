"""Interval checks on integers against the `Fraction` implementation they replaced.

`oracle_refine_interval_level` is the earlier `refine_interval_level`, kept
verbatim but for its output: it sorts and compares `Fraction`s and returns the
levels, the sides and the children as plain data. `refine_interval_level`,
which compares integer ratios, must give the same partition for every valid
level list, shuffled and mixed endpoint types included, and the same exception
type and message for every invalid one.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adahaar as ah
from adahaar import GapOrOverlap, Interval, NotNested
from adahaar.hierarchy import ONE, ZERO, as_fraction
from conftest import random_digraph

HUGE = 10 ** 400  # beyond float range: float() of it raises OverflowError


def oracle_refine_interval_level(levels):
    """The earlier refine_interval_level: (level ids, id -> (lo, hi), id -> child ids)."""
    if not levels:
        raise GapOrOverlap("need at least the root level")
    norm = []
    for j, level in enumerate(levels):
        ivs = sorted((as_fraction(lo), as_fraction(hi)) for lo, hi in level)
        for lo, hi in ivs:
            if not lo < hi:
                raise GapOrOverlap(f"level {j}: empty interval [{lo}, {hi}]")
        if ivs[0][0] != 0 or ivs[-1][1] != 1:
            raise GapOrOverlap(f"level {j} does not span [0, 1]")
        for (_, h1), (l2, _) in zip(ivs, ivs[1:]):
            if h1 != l2:
                raise GapOrOverlap(f"level {j}: break at {h1} vs {l2}")
        norm.append(ivs)
    if len(norm[0]) != 1:
        raise GapOrOverlap("level 0 must be the single interval [0, 1]")

    levels_ids, sides, children = [], {}, {}
    next_id = 0
    ids_prev = []
    for j, ivs in enumerate(norm):
        ids = []
        for lo, hi in ivs:
            if not (ZERO <= lo < hi <= ONE):
                raise ValueError(f"need 0 <= lo < hi <= 1, got [{lo}, {hi}]")
            sides[next_id] = (lo, hi)
            ids.append(next_id)
            next_id += 1
        if j > 0:
            pi = 0
            for cid in ids:
                lo, hi = sides[cid]
                while pi < len(ids_prev) and sides[ids_prev[pi]][1] <= lo:
                    pi += 1
                if pi == len(ids_prev) or not (sides[ids_prev[pi]][0] <= lo
                                               and hi <= sides[ids_prev[pi]][1]):
                    raise NotNested(f"level {j}: [{lo}, {hi}] straddles level {j - 1}")
                children.setdefault(ids_prev[pi], []).append(cid)
        levels_ids.append(ids)
        ids_prev = ids
    return levels_ids, sides, children


def outcome(refine, levels):
    """What `refine` makes of `levels`: its partition as plain data, or its exception."""
    try:
        got = refine(levels)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    if isinstance(got, ah.HierarchicalPartition):
        assert ah.validate_partition(got).ok
        sides = {b: (blk.sides[0].lo, blk.sides[0].hi) for b, blk in got.blocks.items()}
        assert all(type(x) is F for side in sides.values() for x in side)
        got = ([list(level) for level in got.levels], sides,
               {p: list(kids) for p, kids in got.children.items() if kids})
    return got


def assert_same_as_oracle(levels):
    want = outcome(oracle_refine_interval_level, levels)
    assert outcome(ah.refine_interval_level, levels) == want
    return want


# --- strategies ---------------------------------------------------------------

# shares of a parent's length at which it is cut; 1/3 and 1/3 + 2**-80 round to the
# same float, so the float sort keys of their intervals tie
SHARES = st.one_of(
    st.builds(F, st.integers(1, 30), st.just(31)),
    st.sampled_from([F(1, 3), F(1, 3) + F(1, 2 ** 80), F(1, 3) - F(1, 2 ** 80),
                     F(1, 2), F(1, 2) + F(1, 2 ** 90), F(2, 3), F(2, 3) + F(3, 2 ** 81)]),
    st.integers(1, 2 ** 20 - 1).map(lambda k: F(k, 2 ** 20)),
)


def representations(x) -> list:
    """Ways to write the value x that `as_fraction` reads back as x."""
    if not isinstance(x, F):
        return [x]
    reps = [x, f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        reps.append(x.numerator)
    if abs(x) <= 1 and F(float(x)) == x:
        reps.append(float(x))
    return reps


@st.composite
def exact_levels(draw, max_depth=4, max_children=4):
    """Random nested interval levels as exact (lo, hi) Fractions, in order."""
    levels = [[(F(0), F(1))]]
    for _ in range(draw(st.integers(0, max_depth))):
        nxt = []
        for lo, hi in levels[-1]:
            shares = sorted(set(draw(st.lists(SHARES, max_size=max_children - 1))))
            pts = [lo] + [lo + (hi - lo) * s for s in shares] + [hi]
            nxt.extend(zip(pts, pts[1:]))
        levels.append(nxt)
    return levels


@st.composite
def written(draw, levels):
    """The levels with each endpoint written as an int, float, str or Fraction, and each
    level's intervals in a shuffled order."""
    out = []
    for level in levels:
        ivs = [tuple(draw(st.sampled_from(representations(x))) for x in iv) for iv in level]
        out.append(draw(st.permutations(ivs)))
    return out


CORRUPTIONS = ["gap", "overlap", "duplicate", "straddle", "empty", "reversed", "no_span",
               "root", "huge", "no_levels", "empty_level"]


@st.composite
def corrupted(draw):
    """Valid levels, in order and with Fraction endpoints, with one corruption."""
    levels = [list(level) for level in draw(exact_levels(max_depth=3))]
    kind = draw(st.sampled_from(CORRUPTIONS))
    j = draw(st.integers(0, len(levels) - 1))
    level = levels[j]
    k = draw(st.integers(0, len(level) - 1))
    lo, hi = level[k]
    if kind == "gap":  # end the interval short of its neighbour, or of 1
        level[k] = (lo, (lo + hi) / 2)
    elif kind == "overlap":  # end the interval past its neighbour's start, or past 1
        level[k] = (lo, hi + (hi - lo) / 3)
    elif kind == "duplicate":
        level.insert(draw(st.integers(0, len(level))), level[k])
    elif kind == "straddle":
        inner = sorted({a for a, _ in levels[j - 1]} - {0}) if j else []
        if inner:
            # move a boundary of the parent level within this level: the level still
            # tiles [0, 1], but an interval next to the boundary now crosses it
            pts = sorted({a for a, _ in level} | {F(1)})
            i = pts.index(draw(st.sampled_from(inner)))
            pts[i] = draw(st.sampled_from([(pts[i - 1] + pts[i]) / 2, (pts[i] + pts[i + 1]) / 2]))
            levels[j] = list(zip(pts, pts[1:]))
        else:
            levels = [[(F(0), F(1))], [(F(0), F(1, 2)), (F(1, 2), F(1))],
                      [(F(0), F(1, 3)), (F(1, 3), F(1))]]
    elif kind == "empty":
        level[k] = (lo, lo)
    elif kind == "reversed":
        level[k] = (hi, lo)
    elif kind == "no_span":
        del level[draw(st.sampled_from([0, len(level) - 1]))]
        if not level:
            level.append((F(0), F(1, 2)))
    elif kind == "root":
        levels[0] = [(F(0), F(1, 2)), (F(1, 2), F(1))]
    elif kind == "huge":  # an endpoint far beyond float range, written four ways
        x = draw(st.sampled_from([HUGE, -HUGE, F(HUGE), "1e400", "-1e400"]))
        level[k] = draw(st.sampled_from([(lo, x), (x, hi)]))
    elif kind == "no_levels":
        levels = []
    else:
        levels[j] = []
    return levels


# --- refine_interval_level against the oracle ------------------------------------

@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_valid_levels_match_the_oracle(data):
    levels = data.draw(written(data.draw(exact_levels())))
    want = assert_same_as_oracle(levels)
    assert isinstance(want[0], list), want  # every level list drawn here is valid


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_corrupted_levels_match_the_oracle(data):
    assert_same_as_oracle(data.draw(written(data.draw(corrupted()))))


@pytest.mark.parametrize("levels, error, message", [
    ([[(0, 1)], [(0, F(1, 3)), (F(1, 3) + F(1, 2 ** 80), 1)]],
     GapOrOverlap, "level 1: break at 1/3 vs "),
    ([[(0, 1)], [(F(1, 3), 1), (0, F(1, 3) + F(1, 2 ** 80)), (F(1, 3), 1)]],
     GapOrOverlap, "level 1: break at "),
    ([[(0, 1)], [(0, F(1, 2)), (F(1, 2), HUGE)]], GapOrOverlap, "level 1 does not span [0, 1]"),
    ([[(0, 1)], [(0, HUGE), (HUGE, 1)]], GapOrOverlap, f"level 1: empty interval [{HUGE}, 1]"),
    ([[(0, 1)], [(-HUGE, F(1, 2)), (F(1, 2), 1)]], GapOrOverlap, "level 1 does not span [0, 1]"),
    ([[(0, 1)], [(0, "1e400")]], GapOrOverlap, "level 1 does not span [0, 1]"),
    ([[(0, 1)], [(0, 0.5), ("1/2", 1)], [(F(1, 3), 1), (0, F(1, 3))]],
     NotNested, "level 2: [1/3, 1] straddles level 1"),
    ([[(0, 1)], [(F(1, 2), F(1, 2)), (0, 1)]], GapOrOverlap, "level 1: empty interval [1/2, 1/2]"),
    ([[(0, F(1, 2)), (F(1, 2), 1)]], GapOrOverlap, "level 0 must be the single interval [0, 1]"),
    ([], GapOrOverlap, "need at least the root level"),
], ids=["near_tie_gap", "near_tie_duplicate", "huge_end", "huge_empty", "minus_huge",
        "huge_string", "straddle", "empty", "root", "no_levels"])
def test_known_corruptions_raise_the_oracle_error(levels, error, message):
    got = assert_same_as_oracle(levels)
    assert got[0] is error and got[1].startswith(message), got


def test_near_ties_sort_exactly():
    """Endpoints 2**-80 apart are one float: the exact endpoints order the level."""
    third = F(1, 3)
    levels = [[(0, 1)], [(third + F(1, 2 ** 80), 1), (third, third + F(1, 2 ** 80)), (0, third)]]
    assert float(third) == float(third + F(1, 2 ** 80))
    p = ah.refine_interval_level(levels)
    assert [p.blocks[b].sides[0].lo for b in p.levels[1]] == [0, third, third + F(1, 2 ** 80)]
    assert outcome(ah.refine_interval_level, levels) == outcome(oracle_refine_interval_level, levels)


def test_float_weight_chain_levels_match_the_oracle():
    """Chain embeddings of float-weight graphs carry endpoints of hundreds of bits."""
    for n in (8, 24):
        g = random_digraph(np.random.default_rng([n, 22]), n, True)
        for h in ah.symmetrize(g):
            part = ah.chain_to_intervals(ah.build_chain(h)).partition
            levels = [[(part.blocks[b].sides[0].lo, part.blocks[b].sides[0].hi) for b in level]
                      for level in part.levels]
            assert max(x.denominator for level in levels for iv in level for x in iv) > 2 ** 100
            assert_same_as_oracle(levels)
            assert_same_as_oracle([level[::-1] for level in levels])


# --- Interval ---------------------------------------------------------------------

@pytest.mark.parametrize("lo, hi, text", [
    (F(1, 2), F(1, 2), "[1/2, 1/2]"),
    (F(2, 3), F(1, 3), "[2/3, 1/3]"),
    (F(-1, 4), F(1, 2), "[-1/4, 1/2]"),
    (F(1, 2), F(5, 4), "[1/2, 5/4]"),
    (0, 0, "[0, 0]"),
    (-1, 1, "[-1, 1]"),
    (0, 2, "[0, 2]"),
    (F(0), 2, "[0, 2]"),
    (1, F(1, 2), "[1, 1/2]"),
    (0.0, 1.5, "[0.0, 1.5]"),
    (0.5, F(1, 2), "[0.5, 1/2]"),
], ids=["lo_eq_hi", "lo_gt_hi", "lo_below_0", "hi_above_1", "int_equal", "int_below_0",
        "int_above_1", "mixed_above_1", "mixed_reversed", "float_above_1", "float_equal"])
def test_interval_rejects_with_the_same_text(lo, hi, text):
    with pytest.raises(ValueError) as exc:
        Interval(lo, hi)
    assert str(exc.value) == f"need 0 <= lo < hi <= 1, got {text}"
    assert not (ZERO <= lo < hi <= ONE)  # the comparison the integer check replaced


@pytest.mark.parametrize("lo, hi", [(0, 1), (F(0), 1), (0, F(1, 3)), (F(1, 3), F(1, 2)),
                                    (0.25, 0.5), (F(1, 2), 1.0)])
def test_interval_accepts_int_float_and_fraction_endpoints(lo, hi):
    iv = Interval(lo, hi)
    assert iv.length == hi - lo


ENDPOINTS = st.one_of(
    st.builds(F, st.integers(0, 2 ** 90), st.integers(1, 2 ** 90)).filter(lambda x: x <= 1),
    st.sampled_from([0, 1, F(0), F(1), F(1, 3), F(1, 3) + F(1, 2 ** 80), 0.5, 0.25]),
)


@st.composite
def intervals(draw):
    a, b = draw(ENDPOINTS), draw(ENDPOINTS)
    if a == b:
        b = 1 if a != 1 else 0
    return Interval(min(a, b), max(a, b))


@settings(max_examples=400, deadline=None)
@given(intervals(), intervals())
def test_contains_agrees_with_fraction_comparison(a, b):
    fa, fb = [(F(x.lo), F(x.hi)) for x in (a, b)]
    assert a.contains(b) == (fa[0] <= fb[0] and fb[1] <= fa[1])
    assert b.contains(a) == (fb[0] <= fa[0] and fa[1] <= fb[1])
    assert a.contains(a)
