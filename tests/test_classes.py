import inspect
import tracemalloc
from math import factorial, prod

from hypothesis import given, settings, strategies as st
import pytest

from detchern import classes, tables
from detchern.classes import (
    ProjClass,
    StrataVector,
    at_minus_one_minus_t,
    b_matrix,
    chern_fulton_hypersurface,
    cm_class,
    cm_class_via_trace,
    csm_class,
    csm_open,
    euler_obstruction,
    milnor_class,
    strata_sum,
    variety_dim,
)
from detchern.errors import ParameterError
from detchern.lagrangian import BiProjClass
from detchern.partitions import binom
from detchern.schubert import a_matrix

from oracles import cm_list_horner, cm_triple_sum, hyperplane_power, minus_one_minus_t_sum

# long thin boxes: m(n-k) + 1 up to 51 (the paper's size of A), over a Grassmannian of <= 6 cells
THIN_MN = [(12, 2), (20, 2), (16, 3), (12, 4), (10, 5)]


def all_mnk(pairs, k_min=1):
    for m, n in pairs:
        for k in range(k_min, n):
            yield m, n, k


def test_projclass_h_conversion_roundtrip():
    c = ProjClass(4, [1, 2, 3, 4, 5])
    assert c.h_coefficients() == (5, 4, 3, 2, 1)
    assert ProjClass.from_h_coefficients(c.h_coefficients()) == c


def test_projclass_hyperplane_power():
    c = ProjClass(3, [7, 5, 3, 2])
    assert hyperplane_power(c, 1) == ProjClass(3, [5, 3, 2, 0])
    assert hyperplane_power(c, 3) == ProjClass(3, [2, 0, 0, 0])


def test_projclass_coefficient_outside_range_is_zero():
    c = ProjClass(2, [1, 2, 3])
    assert [c.coefficient(l) for l in range(-1, 4)] == [0, 1, 2, 3, 0]


def test_b_matrix_values():
    b = b_matrix(3, 3, 1)
    assert b[0][0] == 1
    assert b[3][1] == binom(5, 2) == 10
    for i in range(7):
        for p in range(7):
            assert b[i][p] == (0 if i < p else binom(6 - p, i - p))


@pytest.mark.parametrize("key", sorted(tables.CM))
def test_cm_reference_rows(key):
    m, n, k = key
    assert cm_class(m, n, k).coeffs == tables.CM[key]


@pytest.mark.parametrize("key", sorted(tables.CSM))
def test_csm_reference_rows(key):
    m, n, k = key
    assert csm_class(m, n, k).coeffs == tables.CSM[key]


@pytest.mark.parametrize("key", sorted(tables.CSM_OPEN))
def test_csm_open_reference_rows(key):
    m, n, k = key
    assert csm_open(m, n, k).coeffs == tables.CSM_OPEN[key]


def test_cm_smooth_ambient_case():
    # k = 0 is the ambient projective space: binomials of (1+H)^(mn)
    assert cm_class(3, 3, 0).coeffs == tables.CM[(3, 3, 0)]
    assert csm_class(3, 3, 0) == cm_class(3, 3, 0)


@pytest.mark.parametrize("n", range(2, 7))
def test_euler_characteristic_is_n_squared(n):
    for k in range(n):
        assert csm_class(n, n, k).coefficient(0) == n * n


def closed_form_degree(m, n, k):
    """Degree of tau(m, n, k): prod_{i<k} i! (m+i)! / ((n-k+i)! (m-n+k+i)!)."""
    num = prod(factorial(i) * factorial(m + i) for i in range(k))
    den = prod(factorial(n - k + i) * factorial(m - n + k + i) for i in range(k))
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("m,n,k", [(m, n, k) for m in range(2, 8) for n in range(2, m + 1)
                                   for k in range(n)] + list(all_mnk(THIN_MN, k_min=0)))
def test_closed_form_oracles(m, n, k):
    # [P^0] of a c_SM class is the Euler characteristic.  The torus scaling
    # rows and columns fixes exactly the mn matrix units, all of rank one:
    # they lie in every tau(m, n, k), and in the open stratum iff k = n-1
    assert csm_class(m, n, k).coefficient(0) == m * n
    assert csm_open(m, n, k).coefficient(0) == (m * n if k == n - 1 else 0)
    # the same mn points lie in the rank-one stratum, whose Euler obstruction
    # in tau(m, n, k) is C(n-1, k)
    assert cm_class(m, n, k).coefficient(0) == m * n * binom(n - 1, k)
    d = variety_dim(m, n, k)
    assert cm_class(m, n, k).coefficient(d) == closed_form_degree(m, n, k)
    assert csm_class(m, n, k).coefficient(d) == closed_form_degree(m, n, k)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 10) for n in range(2, m + 1)])
def test_rank_one_locus_is_segre_variety(m, n):
    # tau(m, n, n-1) is the smooth Segre image of P^(m-1) x P^(n-1), so
    # c_M = c_SM = c(T) = (1+h1)^m (1+h2)^n pushed forward under H = h1 + h2
    d = m + n - 2
    segre = [sum(binom(m, a) * binom(n, d - l - a) * binom(l, m - 1 - a) for a in range(m))
             for l in range(m * n)]
    assert list(cm_class(m, n, n - 1).coeffs) == segre
    assert list(csm_class(m, n, n - 1).coeffs) == segre


@pytest.mark.parametrize("m,n,k", list(all_mnk([(3, 3), (4, 3), (4, 4), (5, 4)], k_min=0)))
def test_dimension_support(m, n, k):
    c = cm_class(m, n, k)
    s = csm_class(m, n, k)
    d = variety_dim(m, n, k)
    for l in range(d + 1, m * n):
        assert c.coefficient(l) == 0
        assert s.coefficient(l) == 0


@pytest.mark.parametrize("m,n,k", list(all_mnk([(3, 3), (4, 3), (4, 4), (5, 4)])))
def test_top_coefficient_agreement(m, n, k):
    d = variety_dim(m, n, k)
    c = cm_class(m, n, k)
    s = csm_class(m, n, k)
    assert c.coefficient(d) == s.coefficient(d)
    assert c.coefficient(d) > 0


def test_top_coefficients_known_degrees():
    assert cm_class(3, 3, 2).coefficient(variety_dim(3, 3, 2)) == 6
    for n in range(2, 6):
        # determinant hypersurface: degree n in codimension 1
        c = cm_class(n, n, 1)
        h = c.h_coefficients()
        assert h[0] == 0 and h[1] == n


@pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)])
def test_stratum_additivity(m, n):
    for k in range(n):
        total = ProjClass(m * n - 1)
        for i in range(k, n):
            total = total + csm_open(m, n, i)
        assert total == csm_class(m, n, k)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (4, 4), (5, 4)])
def test_euler_obstruction_decomposition(m, n):
    for k in range(1, n):
        total = ProjClass(m * n - 1)
        for i in range(n - k):
            total = total + binom(k + i, k) * csm_open(m, n, k + i)
        assert total == cm_class(m, n, k)


@pytest.mark.parametrize("n", range(2, 13))
def test_binomial_inverse_lemma(n):
    for k in range(n):
        size = n - k
        left = [[binom(k + j, k + i) for j in range(size)] for i in range(size)]
        right = [[(-1) ** (j - i) * binom(k + j, k + i) for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(size):
                entry = sum(left[i][p] * right[p][j] for p in range(size))
                assert entry == (1 if i == j else 0)


@pytest.mark.parametrize(
    "m,n", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (3, 3), (4, 3), (5, 3), (4, 4)]
    + THIN_MN
)
def test_trace_formula_matches_closed_sum(m, n):
    for k in range(1, n):
        assert cm_class_via_trace(m, n, k) == cm_class(m, n, k)


@pytest.mark.parametrize("m,n,k", [(7, 7, 3), (7, 7, 4), (8, 8, 3), (9, 9, 2), (9, 9, 7), (8, 2, 1),
                                   (9, 8, 7)])
def test_cm_horner_matches_triple_sum(m, n, k):
    gamma = cm_triple_sum(a_matrix(m, n, k), m, n, k)
    assert cm_class(m, n, k) == ProjClass.from_h_coefficients(gamma)


def cm_by_list_horner(m, n, k):
    A = a_matrix(m, n, k) if k else [[1]]  # G(0, n) is a point
    return ProjClass.from_h_coefficients(cm_list_horner(A, m, n, k))


def mnk_up_to(m):
    return [(m, n, k) for n in range(2, m + 1) for k in range(n)]


@pytest.mark.parametrize("m", range(2, 13))
def test_cm_kronecker_pass_matches_list_horner(m):
    for key in mnk_up_to(m):
        assert cm_class(*key) == cm_by_list_horner(*key), key


@pytest.mark.parametrize("m,n,k", [(200, 2, 1), (2000, 2, 1), (300, 4, 2), (12, 12, 6)])
def test_cm_kronecker_pass_matches_list_horner_at_large_m(m, n, k):
    assert cm_class(m, n, k) == cm_by_list_horner(m, n, k)


def test_cm_class_at_large_m_holds_only_the_corner_of_a(monkeypatch):
    # A(3000, 2, 1) is a 2x2 corner; the paper's 3001^2 matrix peaked near 70 MB
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    tracemalloc.start()
    try:
        cm_class(3000, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, peak


def test_cm_digit_width_one_byte_short_is_caught():
    # a copy of cm_class with one byte less per digit must give a wrong
    # class (not only an overflow) on a case the list-Horner test compares,
    # both when the byte is lost from the bit bound and when it is lost from
    # the width _digit_width returns
    source = inspect.getsource(classes.cm_class)
    exact = "+ top + 2)"
    assert source.count(exact) == 1

    def short_copy(source, digit_width):
        namespace = dict(vars(classes), _CM_CACHE={}, _digit_width=digit_width)
        exec(compile(source, classes.__file__, "exec"), namespace)
        return namespace["cm_class"]

    def wrong(short, key):
        try:
            return short(*key) != cm_by_list_horner(*key)
        except (OverflowError, ValueError):
            return False

    before = short_copy(source.replace(exact, "+ top - 6)"), classes._digit_width)
    after = short_copy(source, lambda bits: classes._digit_width(bits) - 1)
    for short in (before, after):
        assert any(wrong(short, key) for m in range(2, 13) for key in mnk_up_to(m))


@pytest.mark.parametrize("count", [1, 60])
@pytest.mark.parametrize("width", range(1, 10))
def test_balanced_digits_round_trip(width, count):
    # every width is read slice by slice; digits at both ends of (-X/2, X/2)
    # catch a wrong byte order or half offset, and negative ones borrow from
    # the next
    top = (1 << 8 * width - 1) - 1
    patterns = [[0] * count, [top] * count, [-top] * count, [(0, top, -top)[s % 3] for s in range(count)]]
    for digits in patterns:
        q = sum(d << 8 * width * s for s, d in enumerate(digits))
        assert classes._balanced_digits(q, width, count) == digits


def test_trace_route_visits_only_the_nonzero_entries_of_a(monkeypatch):
    calls = []
    monkeypatch.setattr(classes, "binom", lambda a, b: calls.append((a, b)) or binom(a, b))
    for m, n, k in [(200, 2, 1), (30, 4, 2), (9, 9, 4)]:
        calls.clear()
        nonzero = sum(1 for row in a_matrix(m, n, k) for a in row if a)
        assert cm_class_via_trace(m, n, k) == cm_class(m, n, k)
        assert 0 < len(calls) <= nonzero * (m * (n - k) + 1), (m, n, k)


@given(st.lists(st.integers(-50, 50), max_size=25))
@settings(max_examples=80, deadline=None)
def test_minus_one_minus_t_matches_expansion(p):
    got = at_minus_one_minus_t(p)
    assert got == minus_one_minus_t_sum(p)
    assert at_minus_one_minus_t(got) == p


# Kronecker substitution at its bit bound: coefficients up to 2^256 in size,
# up to 150 of them (the 12 x 12 box has N = 143), zero runs at both ends
BIG = 2**256
SPARSE_ENDS = st.tuples(
    st.integers(0, 15), st.lists(st.integers(-BIG, BIG), max_size=120), st.integers(0, 15)
).map(lambda t: [0] * t[0] + t[1] + [0] * t[2])


@given(SPARSE_ENDS)
@settings(max_examples=40, deadline=None)
def test_minus_one_minus_t_at_large_coefficients(p):
    got = at_minus_one_minus_t(p)
    assert got == minus_one_minus_t_sum(p)
    assert at_minus_one_minus_t(got) == p


@pytest.mark.parametrize("p", [
    [],
    [0],
    [0] * 150,
    [7],
    [-BIG],
    [0, 0, BIG - 1, 0],
    # (-1)^j M gives p(-1-t) = M sum_j (1+t)^j: every term of every output
    # coefficient has one sign, the largest |q_j| for this bit length
    [(-1) ** j * (BIG - 1) for j in range(150)],
    [(-1) ** (j + 1) * (BIG - 1) for j in range(150)],
    [0] * 5 + [(-1) ** j * (BIG - 1) for j in range(140)] + [0] * 5,
], ids=["empty", "zero", "zeros", "single", "minus-big", "inner", "alternating", "alternating-neg", "alternating-padded"])
def test_minus_one_minus_t_edge_cases(p):
    got = at_minus_one_minus_t(p)
    assert got == minus_one_minus_t_sum(p)
    assert at_minus_one_minus_t(got) == p


def test_strata_sum_rejects_a_term_of_another_type_or_size():
    for bad in (BiProjClass(8), ProjClass(7)):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            strata_sum(3, 1, False, lambda j: bad if j == 2 else cm_class(3, 3, j), ProjClass(8))


def test_euler_obstruction_values():
    assert euler_obstruction(3, 3, 1) == StrataVector(1, (1, 2))
    assert euler_obstruction(4, 4, 1) == StrataVector(1, (1, 2, 3))
    for m, n, k in [(3, 3, 1), (4, 4, 2), (5, 4, 3)]:
        assert euler_obstruction(m, n, k)[k] == 1


def test_strata_vector_indexing():
    v = StrataVector(2, (5, 7))
    assert v.hi == 3 and v[2] == 5 and v[3] == 7
    with pytest.raises(IndexError):
        v[1]


def test_chern_fulton_reference():
    assert chern_fulton_hypersurface(3).coeffs == tables.FULTON[3]
    # leading term is n*H: degree of the hypersurface
    for n in (2, 3, 4):
        assert chern_fulton_hypersurface(n).h_coefficients()[1] == n


def test_chern_fulton_quadric():
    # 2H(1+H)^4/(1+2H) = 2H + 4H^2 + 4H^3 mod H^4, which equals the
    # total Chern class of the smooth quadric surface
    c = chern_fulton_hypersurface(2)
    assert c.h_coefficients() == (0, 2, 4, 4)
    assert c == csm_class(2, 2, 1)


def test_milnor_class_reference():
    assert milnor_class(3).coeffs == tables.MILNOR[3]


def test_milnor_class_supported_on_singular_locus():
    mil = milnor_class(3)
    # codimension of the singular locus tau(3,3,2) is 4: H^0..H^3 vanish
    assert mil.h_coefficients()[:4] == (0, 0, 0, 0)


def test_milnor_class_smooth_quadric_vanishes():
    assert milnor_class(2).is_zero()


def test_parameter_errors():
    with pytest.raises(ParameterError):
        cm_class(3, 4, 1)
    with pytest.raises(ParameterError):
        cm_class(3, 3, 3)
    with pytest.raises(ParameterError):
        csm_class(3, 3, -1)
    with pytest.raises(ParameterError):
        euler_obstruction(3, 3, 0)
    with pytest.raises(ParameterError):
        chern_fulton_hypersurface(1)
    with pytest.raises(ParameterError):
        milnor_class(1)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=12))
@settings(max_examples=50, deadline=None)
def test_projclass_scaling_linear(coeffs):
    c = ProjClass(len(coeffs) - 1, coeffs)
    assert 2 * c == c + c
    assert (-1) * c == -c
    assert (c - c).is_zero()
