import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_oracles as oracle
from conevol.arrangement import arrangement
from conevol.exactlin import (
    Subspace,
    _int_vec,
    _prim,
    _transpose,
    _up_sets,
    dot,
    full_space,
    kernel,
    lp_strictly_feasible,
    mat,
    orthogonal_complement,
    rank,
    rref,
    subspace_from_rows,
    subspace_intersection,
    vec,
)


def test_rref_rank_one_collapse():
    assert rref([[2, 4], [1, 2]]) == mat([[1, 2]])


def test_rref_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rref(eye) == mat(eye)


def test_rref_hand_elimination():
    # hand Gaussian elimination oracle: R2 <- R2, R1 <- R1 - R2
    assert rref([[1, 1, 0], [0, 1, 1]]) == mat([[1, 0, -1], [0, 1, 1]])


def test_rref_idempotent_random():
    rng = random.Random(0)
    for _ in range(100):
        rows = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 5))
        ]
        width = len(rows[0])
        rows = [r[:width] + [F(0)] * (width - len(r)) for r in rows]
        r = rref(rows)
        assert rref(r) == r


def test_rref_returns_fractions():
    for rows in ([[2, 4, 1], [1, 2, 3]],
                 [[F(1, 2), F(-3, 4)], [F(2), F(5, 6)]],
                 [["1/2", "3"], ["-2/3", "4/5"]]):
        out = rref(rows)
        assert out and all(type(x) is F for row in out for x in row), rows


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _rational_matrices(draw):
    """Random rational rows plus rational combinations of them."""
    n = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(_rationals, min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        coeffs = draw(st.lists(_rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(n)])
    order = draw(st.permutations(range(len(rows))))
    return n, [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(_rational_matrices())
def test_rref_and_kernel_match_rational_oracle(case):
    n, rows = case
    got = rref(rows)
    assert got == oracle.rref(rows)
    assert all(type(x) is F for row in got for x in row)
    assert kernel(rows, n) == oracle.kernel(rows, n)


def test_kernel_zero_map():
    k = kernel([[0, 0, 0]], 3)
    assert k.dim == 3


def test_kernel_coordinate():
    k = kernel([[1, 0, 0], [0, 1, 0]], 3)
    assert k.basis == mat([[0, 0, 1]])


def test_kernel_multiply_back():
    m = [[1, 1, 1]]
    k = kernel(m, 3)
    assert k.dim == 2
    for b in k.basis:
        assert dot(vec(m[0]), b) == 0


def test_kernel_rowspace_duality_random():
    rng = random.Random(7)
    for _ in range(150):
        d = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(m)]
        ker = kernel(rows, d)
        assert ker.dim == d - rank(rows)
        for b in ker.basis:
            for row in rows:
                assert dot(vec(row), b) == 0
        assert orthogonal_complement(ker).rref == rref(rows)


def test_orthogonal_complement_examples():
    assert orthogonal_complement(subspace_from_rows([[1, 0]], 2)).basis == mat([[0, 1]])
    assert orthogonal_complement(full_space(3)).dim == 0
    oc = orthogonal_complement(subspace_from_rows([[1, 1, 0], [0, 0, 1]], 3))
    assert oc.basis == ((1, -1, 0),)


def test_subspace_canonical_equality():
    a = subspace_from_rows([[2, 2], [1, 1]], 2)
    b = subspace_from_rows([[1, 1]], 2)
    assert a == b
    assert a.contains([3, 3]) and not a.contains([1, 0])


def test_subspace_holds_integer_echelon_and_derives_rref():
    # coprime integer rows with positive pivots, each a positive multiple of
    # its RREF row; the RREF is formed on demand and is the only Fraction
    s = subspace_from_rows([["-1/2", "-1/4", 0], [0, 0, 3]], 3)
    assert s.basis == ((2, 1, 0), (0, 0, 1))
    assert all(type(x) is int for row in s.basis for x in row)
    assert s.rref == ((1, F(1, 2), 0), (0, 0, 1))
    assert s.rref == rref(s.basis)
    assert s == Subspace(3, ((2, 1, 0), (0, 0, 1)))
    assert hash(s) == hash(Subspace(3, ((2, 1, 0), (0, 0, 1))))
    assert s.contains([F(4), 2, -7]) and not s.contains([1, 0, 0])
    assert full_space(2).basis == ((1, 0), (0, 1)) and full_space(2).rref == mat([[1, 0], [0, 1]])


def test_subspace_contains_rejects_wrong_dimension():
    # dot products zip to the shorter row, so a wrong length must be caught
    with pytest.raises(ValueError, match="R\\^3.*R\\^2"):
        Subspace(2, ((1, 0),)).contains([5, 0, 7])


def test_subspace_intersection():
    a = subspace_from_rows([[1, 0, 0], [0, 1, 0]], 3)
    b = subspace_from_rows([[0, 1, 0], [0, 0, 1]], 3)
    assert subspace_intersection(a, b).basis == mat([[0, 1, 0]])


def test_primitive_scaling():
    assert _prim(_int_vec(["1/2", "1/3"])) == (3, 2)
    assert _prim(_int_vec([-2, 4])) == (-1, 2)
    # hyperplane normals are primitive with a positive leading entry
    assert arrangement([[-2, 4]], 2).normals == ((1, -2),)


def test_lp_open_halfplane():
    assert lp_strictly_feasible([vec([1, 0])], 2) is True


def test_lp_contradictory():
    assert lp_strictly_feasible([vec([1, 0]), vec([-1, 0])], 2) is False


def test_lp_summing_to_zero():
    # the three normals sum to zero, so <0, x> > 0 would be forced
    assert lp_strictly_feasible([vec([1, 0]), vec([0, 1]), vec([-1, -1])], 2) is False


def test_lp_empty_is_vacuous():
    assert lp_strictly_feasible([], 4) is True


def test_lp_zero_normal_infeasible():
    assert lp_strictly_feasible([vec([0, 0])], 2) is False


def test_lp_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_strictly_feasible([vec([1, 0, 0])], 2)


def test_lp_agrees_with_sampling_oracle():
    # sampling "true" implies exact "true"; exact "false" implies no
    # sampled point satisfies every strict inequality
    rng = random.Random(11)
    for _ in range(120):
        d = rng.randint(2, 3)
        m = rng.randint(1, 6)
        normals = [vec([rng.randint(-3, 3) for _ in range(d)]) for _ in range(m)]
        exact = lp_strictly_feasible(normals, d)
        sampled_hit = False
        for _ in range(400):
            x = [F(rng.randint(-100, 100), 100) for _ in range(d)]
            if all(dot(a, vec(x)) > 0 for a in normals):
                sampled_hit = True
                break
        if sampled_hit:
            assert exact is True
        if not exact:
            assert not sampled_hit


@st.composite
def _strict_systems(draw):
    """Up to 8 integer rows in d <= 5, with zero rows and ± pairs."""
    d = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d)
    rows = draw(st.lists(row, max_size=8))
    for i in draw(st.lists(st.integers(min_value=1, max_value=7), max_size=3)):
        if i < len(rows):
            rows[i] = [-x for x in rows[i - 1]]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))] = [0] * d
    return d, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_strict_systems())
def test_lp_matches_rational_simplex(case):
    d, rows = case
    assert lp_strictly_feasible(rows, d) is oracle.rational_lp_strictly_feasible(rows, d)


def test_simplex_textbook():
    # the rational simplex oracle: max x + y s.t. x <= 2, y <= 3, x + y <= 4
    opt = oracle.simplex_max([[1, 0], [0, 1], [1, 1]], [2, 3, 4], [1, 1])
    assert opt == 4
    # infeasible: x <= -1 with x >= 0
    assert oracle.simplex_max([[1]], [-1], [0]) is None


@st.composite
def _incidence_masks(draw):
    """Up to 12 bitmasks over n <= 8 elements, with zero and repeated masks."""
    n = draw(st.integers(min_value=0, max_value=8))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12))
    if masks and draw(st.booleans()):
        masks.append(draw(st.sampled_from(masks)))
    if draw(st.booleans()):
        masks.insert(draw(st.integers(min_value=0, max_value=len(masks))), 0)
    return n, masks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_incidence_masks())
@example((3, []))
@example((3, [0, 0b101, 0b101, 0b001]))
def test_incidence_bitsets_match_pairwise_definitions(case):
    n, masks = case
    cols = _transpose(masks, n)
    assert cols == [sum(1 << i for i, m in enumerate(masks) if m >> a & 1) for a in range(n)]
    assert _up_sets(masks, n) == [
        sum(1 << j for j, mj in enumerate(masks) if mi & mj == mi) for mi in masks
    ]
