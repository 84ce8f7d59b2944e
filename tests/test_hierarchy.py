from fractions import Fraction as F

import numpy as np
import pytest

import adahaar as ah
from adahaar import DepthMismatch, GapOrOverlap, NotNested, ParseError
from adahaar.hierarchy import TensorPartition, tensor_grid

from conftest import random_interval_levels


def test_dyadic_1d_depth1():
    p = ah.make_dyadic_partition(1, 1)
    assert p.depth == 1
    assert [b.sides[0].lo for b in map(p.blocks.get, p.levels[1])] == [F(0), F(1, 2)]
    assert [b.sides[0].hi for b in map(p.blocks.get, p.levels[1])] == [F(1, 2), F(1)]


def test_dyadic_2d_depth2_counts():
    p = ah.make_dyadic_partition(2, 2)
    assert [len(level) for level in p.levels] == [1, 4, 16]
    assert all(p.blocks[b].measure == F(1, 16) for b in p.levels[2])


def test_dyadic_2d_quarters_in_order():
    # children of the root: lower-left, lower-right, upper-left, upper-right
    p = ah.make_dyadic_partition(2, 1)
    kids = [p.blocks[c] for c in p.children[p.root]]
    half = F(1, 2)
    expected = [((0, half), (0, half)), ((half, 1), (0, half)),
                ((0, half), (half, 1)), ((half, 1), (half, 1))]
    got = [tuple((s.lo, s.hi) for s in b.sides) for b in kids]
    assert got == [tuple((F(a), F(b)) for a, b in e) for e in expected]
    assert all(b.measure == F(1, 4) for b in kids)


def test_dyadic_children_count():
    for d, J in [(1, 3), (2, 2), (3, 1)]:
        p = ah.make_dyadic_partition(d, J)
        for j in range(J):
            for b in p.levels[j]:
                assert len(p.children[b]) == 2 ** d


def test_refine_interval_golden_leaves():
    levels = [
        [(0, 1)],
        [(0, F(1, 4)), (F(1, 4), 1)],
        [(0, F(1, 4)), (F(1, 4), F(11, 12)), (F(11, 12), 1)],
        [(0, F(1, 6)), (F(1, 6), F(1, 4)), (F(1, 4), F(7, 12)),
         (F(7, 12), F(3, 4)), (F(3, 4), F(11, 12)), (F(11, 12), 1)],
    ]
    p = ah.refine_interval_level(levels)
    assert p.depth == 3
    got = [(p.blocks[b].sides[0].lo, p.blocks[b].sides[0].hi) for b in p.leaf_ids]
    assert got == [(F(a), F(b)) for a, b in levels[3]]
    assert ah.validate_partition(p).ok


def test_refine_single_level_is_root_only():
    p = ah.refine_interval_level([[(0, 1)]])
    assert p.depth == 0
    assert p.blocks[p.root].measure == 1


def test_refine_gap_detected():
    with pytest.raises(GapOrOverlap):
        ah.refine_interval_level([[(0, 1)], [(0, 0.3), (0.4, 1)]])


def test_refine_straddle_detected():
    levels = [[(0, 1)], [(0, F(1, 2)), (F(1, 2), 1)],
              [(0, F(1, 4)), (F(1, 4), F(3, 4)), (F(3, 4), 1)]]
    with pytest.raises(NotNested):
        ah.refine_interval_level(levels)


def test_refine_level0_must_be_unit():
    with pytest.raises(GapOrOverlap):
        ah.refine_interval_level([[(0, F(1, 2)), (F(1, 2), 1)]])


def test_as_fraction_reads_numbers_and_rejects_pairs():
    assert ah.as_fraction(3) == 3 and ah.as_fraction("1/3") == F(1, 3)
    assert ah.as_fraction(0.5) == F(1, 2) and ah.as_fraction(F(2, 7)) == F(2, 7)
    for bad in [(1.5, 2), (1, 2), [1, 2], None]:
        with pytest.raises(TypeError):
            ah.as_fraction(bad)
    with pytest.raises(TypeError):
        ah.refine_interval_level([[(0, 1)], [(0, (1, 2)), ((1, 2), 1)]])


def test_tensor_toy_level_counts(chain_x, chain_y):
    px = ah.chain_to_intervals(chain_x).partition
    py = ah.chain_to_intervals(chain_y).partition
    t = ah.tensor_partitions(px, py)
    assert [len(level) for level in t.levels] == [1, 4, 9, 36]
    assert ah.validate_partition(t).ok


def test_tensor_depth0():
    p = ah.refine_interval_level([[(0, 1)]])
    t = ah.tensor_partitions(p, p)
    assert t.depth == 0 and t.blocks[t.root].measure == 1


def test_tensor_depth_mismatch():
    p1 = ah.make_dyadic_partition(1, 1)
    p2 = ah.make_dyadic_partition(1, 2)
    with pytest.raises(DepthMismatch):
        ah.tensor_partitions(p1, p2)


@pytest.mark.parametrize("J", [0, 1, 2])
def test_tensor_of_dyadic_equals_2d_dyadic(J):
    # structural oracle: same ids, sides, children block-for-block
    t = ah.tensor_partitions(ah.make_dyadic_partition(1, J), ah.make_dyadic_partition(1, J))
    d2 = ah.make_dyadic_partition(2, J)
    assert t.levels == d2.levels
    assert t.children == d2.children
    assert all(t.blocks[b].sides == d2.blocks[b].sides for b in d2.blocks)


def test_validate_dyadic_passes():
    assert ah.validate_partition(ah.make_dyadic_partition(2, 3)).ok


def test_validate_flags_child_outside_parent():
    # hand-built: the child [1/2, 1] is not inside its declared parent [0, 1/2]
    half = F(1, 2)
    blocks = {
        0: ah.Block(0, (ah.Interval(F(0), F(1)),)),
        1: ah.Block(1, (ah.Interval(F(0), half),)),
        2: ah.Block(2, (ah.Interval(half, F(1)),)),
        3: ah.Block(3, (ah.Interval(half, F(1)),)),
        4: ah.Block(4, (ah.Interval(F(0), half),)),
    }
    p = ah.HierarchicalPartition(1, [[0], [1, 2], [3, 4]], blocks, {0: [1, 2], 1: [3], 2: [4]})
    report = ah.validate_partition(p)
    assert not report.ok
    assert set(report.not_nested) == {3, 4}


def test_level_measures_sum_exactly_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = ah.refine_interval_level(random_interval_levels(rng, depth=3))
        for level in p.levels:
            assert sum(p.blocks[b].measure for b in level) == 1
        for parent, kids in p.children.items():
            if kids:
                assert sum(p.blocks[c].measure for c in kids) == p.blocks[parent].measure


def test_tensor_preserves_validity_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        px = ah.refine_interval_level(random_interval_levels(rng, depth=2))
        py = ah.refine_interval_level(random_interval_levels(rng, depth=2))
        assert ah.validate_partition(ah.tensor_partitions(px, py)).ok


def test_json_roundtrip_stable_ids(toy_embedding):
    partition, _ = toy_embedding
    back = ah.HierarchicalPartition.from_json(partition.to_json())
    assert back == partition
    assert back.to_json() == partition.to_json()


def test_json_roundtrip_dyadic():
    """A tensor partition is written as its factors and read back as a tensor partition;
    its explicit grid is written and read back as an explicit one."""
    p = ah.make_dyadic_partition(2, 2)
    obj = p.to_json()
    assert obj == {"format": "tensor", "factors": [f.to_json() for f in p.factors]}
    back = ah.HierarchicalPartition.from_json(obj)
    assert type(back) is TensorPartition and back == p and back.to_json() == obj
    grid = tensor_grid(*p.factors)
    explicit = ah.HierarchicalPartition.from_json(grid.to_json())
    assert type(explicit) is ah.HierarchicalPartition and explicit == p == grid


def test_json_roundtrip_float_endpoints():
    """Float endpoints, which Interval accepts, are written as their exact integer
    ratios: the same JSON as the equal Fraction endpoints, read back as Fractions."""
    def split(lo, cut, hi):
        blocks = {0: ah.Block(0, (ah.Interval(lo, hi),)), 1: ah.Block(1, (ah.Interval(lo, cut),)),
                  2: ah.Block(2, (ah.Interval(cut, hi),))}
        return ah.HierarchicalPartition(1, [[0], [1, 2]], blocks, {0: [1, 2]})

    one = ah.HierarchicalPartition(1, [[0]], {0: ah.Block(0, (ah.Interval(0.0, 1.0),))}, {})
    two = split(0.0, 0.375, 1.0)
    assert ah.validate_partition(two).ok
    for p, exact in ((one, ah.make_dyadic_partition(1, 0).factors[0]),
                     (two, split(F(0), F(3, 8), F(1)))):
        obj = p.to_json()
        assert obj == exact.to_json()
        back = ah.HierarchicalPartition.from_json(obj)
        assert back == p and back.to_json() == obj
    assert two.to_json()["blocks"][1]["sides"] == [[0, 1, 3, 8]]


def test_float_interval_lengths_are_exact():
    """[0.0, 1.0] = [0.0, 0.3] + [0.3, 1.0] with float endpoints tiles exactly: a length
    is the exact difference of the endpoints' binary values, where 1.0 - 0.3 in floats
    rounds and once left a level residual of -2**-54 and a bad parent."""
    blocks = {0: ah.Block(0, (ah.Interval(0.0, 1.0),)), 1: ah.Block(1, (ah.Interval(0.0, 0.3),)),
              2: ah.Block(2, (ah.Interval(0.3, 1.0),))}
    p = ah.HierarchicalPartition(1, [[0], [1, 2]], blocks, {0: [1, 2]})
    report = ah.validate_partition(p)
    assert report.ok, report
    right = blocks[2].sides[0]
    assert right.length == F(1) - F(0.3) == ah.as_fraction(1.0) - ah.as_fraction(0.3)
    assert right.length != F(1.0 - 0.3)
    assert right.length_ratio == right.length.as_integer_ratio()
    assert p.shares(0) == [(F(0.3).numerator, F(0.3).denominator),
                           right.length.as_integer_ratio()]
    assert sum(F(num, den) for num, den in p.shares(0)) == 1


@pytest.mark.parametrize("d, J", [(1, 4), (2, 3), (3, 2), (4, 1)])
def test_dyadic_matches_explicit_formula(d, J):
    """Level j: the cubes prod_i [k_i/2^j, (k_i+1)/2^j], ids level by level with
    k_1 fastest; the children of k are 2k + delta, delta in {0,1}^d, delta_1 fastest."""
    p = ah.make_dyadic_partition(d, J)

    def digits(flat, base):
        return [flat // base ** i % base for i in range(d)]

    def block_id(j, k):
        n = 2 ** j
        return sum(2 ** (i * d) for i in range(j)) + sum(ki * n ** i for i, ki in enumerate(k))

    assert p.dimension == d and p.depth == J
    assert p.blocks.keys() == set(range(sum(2 ** (j * d) for j in range(J + 1))))
    for j in range(J + 1):
        n = 2 ** j
        ks = [digits(flat, n) for flat in range(n ** d)]
        assert list(p.levels[j]) == [block_id(j, k) for k in ks]
        for k in ks:
            b = block_id(j, k)
            assert [(s.lo, s.hi) for s in p.blocks[b].sides] == [(F(ki, n), F(ki + 1, n)) for ki in k]
            kids = [block_id(j + 1, [2 * ki + di for ki, di in zip(k, digits(flat, 2))])
                    for flat in range(2 ** d)] if j < J else []
            assert list(p.children[b]) == kids


def test_tensor_of_three_factors():
    rng = np.random.default_rng(19)
    factors = [ah.refine_interval_level(random_interval_levels(rng, depth=2)) for _ in range(3)]
    t = ah.tensor_partitions(*factors)
    assert t.dimension == 3 and t.depth == 2
    assert ah.validate_partition(t).ok
    offset = 0
    for j in range(3):
        nx, ny, nz = (len(p.levels[j]) for p in factors)
        assert list(t.levels[j]) == list(range(offset, offset + nx * ny * nz))
        for iz, bz in enumerate(factors[2].levels[j]):
            for iy, by in enumerate(factors[1].levels[j]):
                for ix, bx in enumerate(factors[0].levels[j]):
                    b = offset + ix + nx * (iy + ny * iz)
                    sides = tuple(p.blocks[q].sides[0] for p, q in zip(factors, (bx, by, bz)))
                    assert t.blocks[b].sides == sides
                    kids = [t.blocks[c].sides for c in t.children[b]]
                    assert kids == [(factors[0].blocks[cx].sides[0], factors[1].blocks[cy].sides[0],
                                     factors[2].blocks[cz].sides[0])
                                    for cz in factors[2].children[bz]
                                    for cy in factors[1].children[by]
                                    for cx in factors[0].children[bx]]
        offset += nx * ny * nz


def test_tensor_of_one_factor_is_the_factor():
    rng = np.random.default_rng(23)
    for depth in (0, 1, 3):
        p = ah.refine_interval_level(random_interval_levels(rng, depth=depth))
        t = ah.tensor_partitions(p)
        assert t == p and t.to_json() == {"format": "tensor", "factors": [p.to_json()]}
        assert ah.HierarchicalPartition.from_json(t.to_json()) == t


def test_tensor_rejects_no_factor_and_boxes():
    with pytest.raises(ValueError):
        ah.tensor_partitions()
    with pytest.raises(ValueError):
        ah.tensor_partitions(ah.make_dyadic_partition(1, 1), ah.make_dyadic_partition(2, 1))
    with pytest.raises(DepthMismatch):
        ah.tensor_partitions(*[ah.make_dyadic_partition(1, 1)] * 2, ah.make_dyadic_partition(1, 2))


def tampered_dyadic(edit):
    obj = tensor_grid(*ah.make_dyadic_partition(2, 2).factors).to_json()  # the explicit form
    edit(obj)
    return obj


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["blocks"][3]["sides"][1].__setitem__(3, 0), "malformed partition JSON"),
    (lambda o: o.__setitem__("children", [[1, 2, 3, 4]]), "'children' must be an object"),
    (lambda o: o.__setitem__("dimension", 3), "block 0 has 2 sides, not the declared dimension 3"),
    (lambda o: o["blocks"][7]["sides"].pop(), "block 7 has 1 sides, not the declared dimension 2"),
    (lambda o: o.__setitem__("dimension", 0), "dimension 0 is below 1"),
    (lambda o: o.__setitem__("dimension", 2.0), "dimension must be an integer, got 2.0"),
    (lambda o: o.__setitem__("depth", True), "depth must be an integer, got True"),
    (lambda o: o["blocks"][5].__setitem__("id", 5.0), "block id must be an integer, got 5.0"),
    (lambda o: o["blocks"][5].__setitem__("id", "5.0"), "block id must be an integer, got '5.0'"),
    (lambda o: o["blocks"][3]["sides"][1].__setitem__(3, 2.0),
     "side endpoint must be an integer, got 2.0"),
    (lambda o: o["children"]["0"].__setitem__(0, 1.5), "child id must be an integer, got 1.5"),
    (lambda o: o["children"].__setitem__("+1", o["children"].pop("1")),
     "children key must be an integer, got '\\+1'"),
], ids=["zero_denominator", "children_not_an_object", "dimension_3", "leaf_missing_a_side",
        "dimension_0", "dimension_float", "depth_bool", "block_id_float", "block_id_string",
        "side_float", "child_id_float", "children_key_signed"])
def test_partition_json_rejections_are_parse_errors(edit, message):
    with pytest.raises(ParseError, match=message):
        ah.HierarchicalPartition.from_json(tampered_dyadic(edit))


EXPLICIT_SQUARE = tensor_grid(*ah.make_dyadic_partition(2, 2).factors).to_json()


def tampered_tensor(edit):
    obj = ah.make_dyadic_partition(2, 2).to_json()
    edit(obj)
    return obj


@pytest.mark.parametrize("edit, message", [
    (lambda o: o.__setitem__("format", "grid"), "unknown format 'grid'"),
    (lambda o: o.__setitem__("format", None), "unknown format None"),
    (lambda o: o.pop("factors"), "'factors' must be a non-empty list, got None"),
    (lambda o: o.__setitem__("factors", {}), "'factors' must be a non-empty list, got {}"),
    (lambda o: o.__setitem__("factors", []), "'factors' must be a non-empty list, got \\[\\]"),
    (lambda o: o["factors"].__setitem__(1, 7), "factor 1 must be an object"),
    (lambda o: o["factors"].__setitem__(1, EXPLICIT_SQUARE), "factor 1 has dimension 2, not 1"),
    (lambda o: o["factors"].__setitem__(1, ah.make_dyadic_partition(1, 1).factors[0].to_json()),
     "factor depths differ: 2 vs 1"),
    (lambda o: o["factors"].__setitem__(1, ah.make_dyadic_partition(1, 2).to_json()),
     "factor 1 carries a format"),
    (lambda o: o["factors"][0].__setitem__("depth", 1.5),
     "factor 0: partition JSON: depth must be an integer, got 1.5"),
], ids=["format_unknown", "format_null", "factors_missing", "factors_not_a_list",
        "factors_empty", "factor_not_an_object", "factor_2d", "factor_depths_differ",
        "factor_with_format", "factor_malformed"])
def test_tensor_partition_json_rejections_are_parse_errors(edit, message):
    with pytest.raises(ParseError, match=message):
        ah.HierarchicalPartition.from_json(tampered_tensor(edit))


def test_a_nested_tensor_file_is_a_parse_error_not_a_recursion():
    """Factors are read as explicit partitions only: a file whose factor is itself a
    tensor file, nested far below the recursion limit, fails at its first factor."""
    obj = ah.make_dyadic_partition(1, 1).to_json()
    for _ in range(100_000):
        obj = {"format": "tensor", "factors": [obj]}
    with pytest.raises(ParseError, match="factor 0 carries a format"):
        ah.HierarchicalPartition.from_json(obj)


def test_an_invalid_factor_is_a_validation_error():
    """A factor that parses but does not tile [0, 1] fails as the explicit file does."""
    obj = ah.make_dyadic_partition(2, 1).to_json()
    obj["factors"][1]["blocks"][2]["sides"][0] = [1, 2, 3, 4]
    with pytest.raises(GapOrOverlap):
        ah.HierarchicalPartition.from_json(obj)
