from math import comb

from hypothesis import given, settings, strategies as st
import pytest

from detchern import lagrangian, schubert, tables
from detchern.classes import ProjClass, cm_class, csm_class, csm_open, variety_dim
from detchern.errors import BoxSizeError, ConsistencyError, ParameterError
from detchern.lagrangian import (
    BiProjClass,
    ch_from_class,
    charcycle,
    charcycle_open,
    conormal,
    dagger,
    dual_cm,
    ged,
    involution_dual,
    polar_degrees,
    symmetry_check,
)
from detchern.schubert import set_box_cell_limit

from oracles import ch_sum, involution_sum


def pairs_mn(max_product=25):
    return [(m, n) for n in range(2, 6) for m in range(n, 13) if m * n <= max_product]


@st.composite
def biproj(draw, max_N=10):
    N = draw(st.integers(2, max_N))
    values = draw(st.lists(st.integers(-50, 50), min_size=N, max_size=N))
    return BiProjClass(N, values)


def test_ch_from_zero_class_is_zero():
    assert ch_from_class(ProjClass(8)).is_zero()


def test_ch_of_point_class_is_conormal_of_point():
    # a point in P^N has conormal cycle h1^N h2 (hyperplanes through it)
    point = ProjClass(5, [1, 0, 0, 0, 0, 0])
    got = ch_from_class(point)
    assert got == BiProjClass(5, [1, 0, 0, 0, 0])


@pytest.mark.parametrize("key", sorted(tables.CON))
def test_conormal_reference_rows(key):
    m, n, k = key
    assert conormal(m, n, k).dense() == tables.CON[key]


@pytest.mark.parametrize("key", sorted(tables.CH))
def test_charcycle_reference_rows(key):
    m, n, k = key
    assert charcycle(m, n, k).dense() == tables.CH[key]


@pytest.mark.parametrize("key", sorted(tables.CH_OPEN))
def test_charcycle_open_reference_rows(key):
    m, n, k = key
    assert charcycle_open(m, n, k).dense() == tables.CH_OPEN[key]


def test_charcycle_smooth_case_equals_conormal():
    assert charcycle(4, 4, 3) == conormal(4, 4, 3)
    assert charcycle_open(4, 4, 3) == charcycle(4, 4, 3)


@pytest.mark.parametrize("m,n", pairs_mn())
def test_conormal_positive_and_degree(m, n):
    for k in range(1, n):
        con = conormal(m, n, k)
        d = variety_dim(m, n, k)
        codim = m * n - 1 - d
        assert all(c >= 0 for c in con.coeffs)
        # dense() runs over h1^a h2^(N+1-a) for a = N..1, so b >= 1 always
        assert all(c == 0 for a, c in zip(range(m * n - 1, 0, -1), con.dense()) if a < codim)
        # coefficient at h1^codim is the degree: top Chern-Mather coefficient
        assert con.coefficient(codim) == cm_class(m, n, k).coefficient(d)


@pytest.mark.parametrize("m,n", pairs_mn())
def test_conormal_duality_flip(m, n):
    for k in range(1, n):
        assert dagger(conormal(m, n, k)) == conormal(m, n, n - k)


@pytest.mark.parametrize("m,n", pairs_mn())
def test_characteristic_cycles_match_csm_route(m, n):
    # ch is linear, so the conormal combinations must agree with applying
    # the transform directly to the CSM classes
    for k in range(1, n):
        assert charcycle(m, n, k) == ch_from_class(csm_class(m, n, k))
        assert charcycle_open(m, n, k) == ch_from_class(csm_open(m, n, k))


@pytest.mark.parametrize("m,n", pairs_mn())
def test_charcycle_open_triangle(m, n):
    # summing binom(i, k) Ch(open_i) recovers the signed conormal cycle
    for k in range(1, n):
        acc = BiProjClass(m * n - 1)
        for i in range(k, n):
            acc = acc + comb(i, k) * charcycle_open(m, n, i)
        sign = (-1) ** variety_dim(m, n, k)
        assert acc == sign * conormal(m, n, k)


@pytest.mark.parametrize("key,want", [
    ((4, 4, 1), [4, 12, 36, 68, 84, 60, 20, 0, 0, 0, 0, 0, 0, 0, 0]),
    ((4, 4, 3), [20, 60, 84, 68, 36, 12, 4]),
    ((3, 3, 1), [3, 6, 12, 12, 6, 0, 0, 0]),
])
def test_polar_degrees_known(key, want):
    assert polar_degrees(*key) == want


def test_polar_degree_zero_is_degree():
    # Segre threefold P^1 x P^3 in P^7 has degree binom(4,1) = 4;
    # square Segre surface case degree binom(2n-2, n-1)
    assert polar_degrees(4, 2, 1)[0] == 4
    for n in (2, 3):
        assert polar_degrees(n, n, n - 1)[0] == comb(2 * n - 2, n - 1)


def polar_class_sum(m, n, k):
    """The polar-class degrees written out:
    delta_l = sum_(i<=l) binom(d-i+1, d-l+1) (-1)^i beta_(d-i), beta = c_M."""
    d = variety_dim(m, n, k)
    beta = cm_class(m, n, k).coeffs
    return [sum(comb(d - i + 1, d - l + 1) * (-1) ** i * beta[d - i] for i in range(l + 1)) for l in range(d + 1)]


@pytest.mark.parametrize("m,n", pairs_mn(40) + [(12, 12), (30, 2)])
def test_polar_degrees_match_the_explicit_binomial_sum(m, n):
    for k in range(1, n):
        assert polar_degrees(m, n, k) == polar_class_sum(m, n, k), (m, n, k)


def test_polar_degrees_refuse_a_forged_conormal_cycle(monkeypatch):
    real = conormal(5, 4, 2)
    forged = BiProjClass(real.N, [c + (i == 9) for i, c in enumerate(real.coeffs)])
    monkeypatch.setattr(lagrangian, "conormal", lambda m, n, k: forged)
    with pytest.raises(ConsistencyError, match=r"polar degree routes disagree for \(5,4,2\)"):
        polar_degrees(5, 4, 2)


@pytest.mark.parametrize("m,n,k,value", tables.GED)
def test_ged_reference(m, n, k, value):
    assert ged(m, n, k) == value


@pytest.mark.parametrize("m,n", pairs_mn(max_product=20))
def test_ged_duality(m, n):
    for k in range(1, n):
        assert ged(m, n, k) == ged(m, n, n - k)


@given(biproj())
@settings(max_examples=60, deadline=None)
def test_dagger_involution(x):
    assert dagger(dagger(x)) == x
    assert dagger(x - x).is_zero()


@given(biproj(), biproj())
@settings(max_examples=40, deadline=None)
def test_dagger_additive(x, y):
    if x.N != y.N:
        return
    assert dagger(x + y) == dagger(x) + dagger(y)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_involution_dual_is_involution(q):
    # involution on the classes of proper subvarieties: no constant term
    # (no fundamental-class component), like every Chern-Mather class here
    q = (0, *q)
    assert involution_dual(involution_dual(q)) == q


@given(st.lists(st.integers(-50, 50), max_size=25))
@settings(max_examples=80, deadline=None)
def test_horner_maps_match_binomial_sums(q):
    assert list(involution_dual(tuple(q))) == involution_sum(q)
    if q:
        assert list(ch_from_class(ProjClass(len(q) - 1, q)).coeffs) == ch_sum(q)


def test_dual_cm_reference_pair():
    got = dual_cm(cm_class(4, 4, 1), variety_dim(4, 4, 1))
    assert got == cm_class(4, 4, 3)
    back = dual_cm(cm_class(4, 4, 3), variety_dim(4, 4, 3))
    assert back == cm_class(4, 4, 1)


@pytest.mark.parametrize("m,n,k", [(2, 2, 1), (4, 4, 2)])
def test_dual_cm_self_dual(m, n, k):
    assert dual_cm(cm_class(m, n, k), variety_dim(m, n, k)) == cm_class(m, n, k)


@pytest.mark.parametrize("m,n", pairs_mn(max_product=20))
def test_dual_cm_matches_dual_variety(m, n):
    for k in range(1, n):
        got = dual_cm(cm_class(m, n, k), variety_dim(m, n, k))
        assert got == cm_class(m, n, n - k)


def test_symmetry_check_four_three():
    report = symmetry_check(4, 3)
    assert report.ok
    # m even, n odd: the k=1 characteristic cycle is antisymmetric
    assert "antisymmetric" in report.checks[0][0]
    ch = charcycle(4, 3, 1)
    assert ch == -1 * dagger(ch)


def test_symmetry_check_three_three():
    report = symmetry_check(3, 3)
    assert report.ok
    assert "antisymmetric" not in report.checks[0][0]
    ch = charcycle(3, 3, 1)
    assert ch == dagger(ch)


def test_symmetry_check_four_four_flip_identities():
    report = symmetry_check(4, 4)
    assert report.ok
    # spelled out: Ch(o1) + 2 Ch(o2) + 3 Ch(o3) = dagger(Ch(o3)),
    # and Ch(o2) + 3 Ch(o3) is flip invariant
    o1, o2, o3 = (charcycle_open(4, 4, i) for i in (1, 2, 3))
    assert o1 + 2 * o2 + 3 * o3 == dagger(o3)
    assert o2 + 3 * o3 == dagger(o2) + 3 * dagger(o3)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        conormal(3, 3, 0)
    with pytest.raises(ParameterError):
        polar_degrees(3, 3, 3)
    with pytest.raises(ParameterError):
        ged(3, 4, 1)
    with pytest.raises(ParameterError):
        symmetry_check(3, 4)


def test_box_limit_refuses_memoized_classes_and_cycles():
    # the limit is a property of the request, not of what is memoized
    cm_class(5, 5, 2), conormal(5, 5, 2)
    old = set_box_cell_limit(4)
    try:
        for memoized in (cm_class, conormal):
            with pytest.raises(BoxSizeError, match="^box 2x3 exceeds the cell limit 4"):
                memoized(5, 5, 2)
    finally:
        set_box_cell_limit(old)


def test_box_limit_on_a_memo_hit_builds_no_box(monkeypatch):
    # the guard compares the cells with the limit; it builds no Box record
    cm_class(5, 5, 2), conormal(5, 5, 2)

    def refuse(*args):
        raise AssertionError("a memo hit built a Box")

    monkeypatch.setattr(schubert.Box, "_freeze", refuse)
    assert cm_class(5, 5, 2) is cm_class(5, 5, 2)
    old = set_box_cell_limit(4)
    try:
        for memoized in (cm_class, conormal):
            with pytest.raises(BoxSizeError, match="^box 2x3 exceeds the cell limit 4"):
                memoized(5, 5, 2)
    finally:
        set_box_cell_limit(old)


def test_biproj_dense_roundtrip():
    values = tuple(range(-3, 4))  # N = 7
    x = BiProjClass(7, values)
    assert x.dense() == values
    with pytest.raises(ValueError):
        BiProjClass(4, [1] * 5)  # five coefficients: an h1^5 term in P^4 x P^4


def test_vector_types_do_not_mix():
    # a class in P^3 and a class in P^4 x P^4 both have four coefficients
    p, b = ProjClass(3, [1, 2, 3, 4]), BiProjClass(4, [1, 2, 3, 4])
    assert p != b and b != p
    with pytest.raises(ValueError):
        p + b
    with pytest.raises(ValueError):
        b - p
