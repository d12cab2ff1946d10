import subprocess
import sys
from collections import Counter
from pathlib import Path

from hypothesis import assume, example, given, settings, strategies as st
import pytest

from detchern import schubert
from detchern.errors import BoxSizeError, ConsistencyError, ParameterError
from detchern.partitions import (
    _LR_CACHE,
    _horizontal_strips,
    binom,
    conjugate,
    lr_cache_export,
    lr_cache_import,
    lr_expansion,
    normalize,
    partitions_in_box,
)
from detchern.schubert import (
    Box,
    ChowClass,
    a_matrix,
    bundle_power_chern,
    chern_Q,
    chern_S_dual,
    integrate,
    multiply,
    one,
    pairing,
    schubert_class,
    set_box_cell_limit,
    tangent_chern,
    zero,
)
from detchern.schubert import _divide_exactly, _hook_content, _rim_hooks, _schur_at_ones

from oracles import (
    a_matrix_localized,
    corner_of,
    schur_product_in_box,
    tangent_chern_all_terms,
    tangent_chern_localized,
)


def boxed(rows, cols):
    return Box(rows, cols)


@st.composite
def partition_in(draw, rows, cols):
    parts = []
    prev = cols
    for _ in range(rows):
        p = draw(st.integers(min_value=0, max_value=prev))
        parts.append(p)
        prev = p
    return tuple(v for v in parts if v)


@st.composite
def box_and_partitions(draw, count=2, max_side=3):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    lams = tuple(draw(partition_in(rows, cols)) for _ in range(count))
    return Box(rows, cols), lams


@st.composite
def box_and_classes(draw, max_side=3):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    box = Box(rows, cols)
    coeffs = st.dictionaries(partition_in(rows, cols), st.integers(-5, 5), max_size=6)
    return ChowClass(box, draw(coeffs)), ChowClass(box, draw(coeffs))


def test_pieri_square():
    box = boxed(2, 2)
    s1 = schubert_class(box, (1,))
    assert s1 * s1 == ChowClass(box, {(2,): 1, (1, 1): 1})


def test_identity_element():
    box = boxed(2, 2)
    s21 = schubert_class(box, (2, 1))
    assert multiply(s21, one(box)) == s21


def test_sigma1_fourth_power():
    # expansion of s1^4 in two variables puts coefficient 2 on s(2,2)
    box = boxed(2, 2)
    s1 = schubert_class(box, (1,))
    assert s1 * s1 * s1 * s1 == ChowClass(box, {(2, 2): 2})


def test_box_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(one(boxed(2, 2)), one(boxed(2, 3)))


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
def test_lr_matches_schur_polynomial_oracle(rows, cols):
    box = boxed(rows, cols)
    for lam in partitions_in_box(rows, cols):
        for mu in partitions_in_box(rows, cols):
            got = schubert_class(box, lam) * schubert_class(box, mu)
            want = schur_product_in_box(lam, mu, rows, cols)
            assert got.terms == want, (lam, mu)


@given(box_and_partitions(count=2))
@settings(max_examples=60, deadline=None)
def test_multiply_commutative(data):
    box, (lam, mu) = data
    a, b = schubert_class(box, lam), schubert_class(box, mu)
    assert a * b == b * a


@given(box_and_partitions(count=3))
@settings(max_examples=40, deadline=None)
def test_multiply_associative(data):
    box, (lam, mu, nu) = data
    a, b, c = (schubert_class(box, p) for p in (lam, mu, nu))
    assert (a * b) * c == a * (b * c)


@given(box_and_classes())
@settings(max_examples=80, deadline=None)
def test_pairing_is_degree_of_product(data):
    x, y = data
    assert pairing(x, y) == integrate(x * y)


def test_integrate_point_class():
    box = boxed(2, 3)
    assert integrate(schubert_class(box, box.full)) == 1


def test_integrate_degree_of_g24():
    # degree of G(2,4) = number of standard tableaux of 2x2 shape = 2
    box = boxed(2, 2)
    s1 = schubert_class(box, (1,))
    assert integrate(s1 * s1 * s1 * s1) == 2


def test_integrate_wrong_dimension():
    assert integrate(one(boxed(1, 1))) == 0


def test_chern_classes_of_universal_bundles():
    box = boxed(2, 2)
    q = chern_Q(box)
    assert q[2] == schubert_class(box, (2,))
    assert len(q) == 3  # c_i(Q) = 0 beyond the quotient rank
    sd = chern_S_dual(box)
    assert sd[2] == schubert_class(box, (1, 1))
    assert chern_Q(boxed(1, 2))[1] == schubert_class(boxed(1, 2), (1,))
    assert chern_S_dual(boxed(1, 2))[1] == schubert_class(boxed(1, 2), (1,))


@pytest.mark.parametrize("rows,cols", [(r, c) for r in range(1, 6) for c in range(1, 6) if r + c <= 7])
def test_whitney_sum_is_one(rows, cols):
    box = boxed(rows, cols)
    c_s = bundle_power_chern(chern_S_dual(box), 1, dualize=True)
    c_q = bundle_power_chern(chern_Q(box), 1, dualize=False)
    total = zero(box)
    for d in range(box.dim + 1):
        for a in range(d + 1):
            total = total + c_s[a] * c_q[d - a]
    assert total == one(box)


def test_bundle_power_identity():
    box = boxed(2, 2)
    q = chern_Q(box)
    out = bundle_power_chern(q, 1, dualize=False)
    assert out[: len(q)] == q
    assert all(piece.is_zero() for piece in out[len(q):])


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_bundle_power_first_chern_dual(m):
    box = boxed(2, 3)
    out = bundle_power_chern(chern_Q(box), m, dualize=True)
    assert out[1] == schubert_class(box, (1,)) * (-m)


def test_bundle_power_second_chern_of_triple_dual():
    # degree-2 part of (1 - c1 + c2)^3 for rank 2: 3*s(2) + 3*s(1)^2 = 6*s(2) in a 1x2 box
    box = boxed(1, 2)
    out = bundle_power_chern(chern_Q(box), 3, dualize=True)
    assert out[2] == schubert_class(box, (2,)) * 6


@pytest.mark.parametrize("rows,cols", [(r, c) for r in range(1, 6) for c in range(1, 6) if r + c <= 7])
def test_bundle_powers_match_cauchy_closed_forms(rows, cols):
    # with x the Chern roots of S*: c(S*^m) = prod (1 + x)^m = sum_mu s_mu'(1^m) s_mu
    # (dual Cauchy) and c(Q*^m) = prod (1 + x)^(-m) = sum_lam (-1)^|lam| s_lam(1^m) s_lam
    # (Cauchy); the m-round products are the independent witness
    box = boxed(rows, cols)
    for m in range(1, 6):
        cs = bundle_power_chern(chern_S_dual(box), m)
        cq = bundle_power_chern(chern_Q(box), m, dualize=True)
        for d in range(box.dim + 1):
            shapes = [lam for lam in partitions_in_box(rows, cols) if sum(lam) == d]
            assert cs[d] == ChowClass(box, {mu: _schur_at_ones(_hook_content(conjugate(mu)), m) for mu in shapes}), (m, d)
            assert cq[d] == ChowClass(box, {lam: (-1) ** d * _schur_at_ones(_hook_content(lam), m) for lam in shapes}), (m, d)


def test_tangent_chern_projective_line():
    box = boxed(1, 1)
    assert tangent_chern(box) == ChowClass(box, {(): 1, (1,): 2})


def test_tangent_chern_euler_characteristic_g24():
    assert integrate(tangent_chern(boxed(2, 2))) == 6


@pytest.mark.parametrize("n", range(2, 7))
def test_tangent_chern_projective_space(n):
    # c(T_P^(n-1)) = (1 + H)^n, where H^j is s(j) on the box (1, n-1) and
    # s(1^j) on the box (n-1, 1)
    row, column = boxed(1, n - 1), boxed(n - 1, 1)
    assert tangent_chern(row) == ChowClass(row, {(j,): binom(n, j) for j in range(n)})
    assert tangent_chern(column) == ChowClass(column, {(1,) * j: binom(n, j) for j in range(n)})


@pytest.mark.parametrize("rows,cols", [(r, c) for r in range(1, 5) for c in range(1, 5)])
def test_tangent_chern_first_chern_class(rows, cols):
    box = boxed(rows, cols)
    degree_one = {lam: c for lam, c in tangent_chern(box).terms.items() if sum(lam) == 1}
    assert degree_one == {(1,): rows + cols}


def lr_hooks(box, lam, r):
    """s_lam * p_r in the box from p_r = sum_a (-1)^a s_(r-a, 1^a), the hooks of size r."""
    want: dict = {}
    for a in range(r):
        for nu, c in lr_expansion(lam, (r - a,) + (1,) * a).items():
            if box.fits(nu):
                want[nu] = want.get(nu, 0) + (-1) ** a * c
    return {nu: c for nu, c in want.items() if c}


def assert_rim_hooks_match_lr(box, lam):
    # one bead pass gives s_lam * p_r for every r; past rows + cols - 1 no bead can move that far
    hooks = _rim_hooks(box, lam)
    assert all(1 <= r < box.rows + box.cols for r in hooks), (box, lam)
    for r in range(1, box.rows + box.cols + 2):
        terms = hooks.get(r, [])
        assert len({nu for nu, _ in terms}) == len(terms), (box, lam, r)
        assert dict(terms) == lr_hooks(box, lam, r), (box, lam, r)


@given(box_and_partitions(count=1))
@settings(max_examples=60, deadline=None)
def test_power_sum_rim_hook_rule_matches_lr(data):
    box, (lam,) = data
    assert_rim_hooks_match_lr(box, lam)


@pytest.mark.parametrize("rows,cols", [(1, 6), (6, 1), (2, 5), (4, 3), (3, 4), (4, 4)])
def test_rim_hook_pass_matches_lr_on_every_shape(rows, cols):
    box = boxed(rows, cols)
    for lam in partitions_in_box(rows, cols):
        assert_rim_hooks_match_lr(box, lam)


@pytest.mark.parametrize("n", range(2, 9))
def test_tangent_chern_euler_characteristic(n):
    for k in range(1, n):
        assert integrate(tangent_chern(boxed(k, n - k))) == binom(n, k)


def boxes_up_to(cells):
    return [(r, c) for r in range(1, cells + 1) for c in range(1, cells // r + 1)]


def test_tangent_chern_matches_localization():
    # Atiyah-Bott over the torus fixed points: no Schubert-ring code involved
    for rows, cols in boxes_up_to(12):
        assert tangent_chern(boxed(rows, cols)).terms == tangent_chern_localized(rows, cols), (rows, cols)


def test_localization_oracle_does_not_import_the_schubert_engine():
    script = ("import sys; from oracles import a_matrix_localized, tangent_chern_localized; "
              "assert tangent_chern_localized(2, 3)[(3, 3)] == 10; "
              "assert a_matrix_localized(3, 3, 1)[0] == [3, 9, 3, 0, 0, 0, 0]; "
              "assert 'detchern.schubert' not in sys.modules, sorted(sys.modules)")
    tests_dir = Path(__file__).resolve().parent
    done = subprocess.run([sys.executable, "-c", script], cwd=tests_dir, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_tangent_chern_matches_all_terms_route():
    # the former route summed every term t = 0..i of p_i(T) with two
    # rim-hook passes each; the parity-collapsed sums must agree with it
    for rows, cols in boxes_up_to(16):
        box = boxed(rows, cols)
        assert tangent_chern(box).terms == tangent_chern_all_terms(box), (rows, cols)


def test_tangent_chern_takes_one_rim_hook_pass_per_shape(monkeypatch):
    calls = Counter()
    real = schubert._rim_hooks

    def counting(box, lam):
        calls[box, lam] += 1
        return real(box, lam)

    monkeypatch.setattr(schubert, "_rim_hooks", counting)
    assert integrate(tangent_chern(boxed(4, 4))) == binom(8, 4)
    assert calls and max(calls.values()) == 1
    assert {box for box, _ in calls} == {boxed(4, 4)}


def test_tall_box_takes_its_tangent_class_from_the_transposed_box(monkeypatch):
    # one rim-hook pass per shape of the wide box 2x4 below its point class
    # (the top piece c_8 multiplies nothing), none in the tall box 4x2
    calls = Counter()
    real = schubert._rim_hooks

    def counting(box, lam):
        calls[box.rows, box.cols, lam] += 1
        return real(box, lam)

    monkeypatch.setattr(schubert, "_rim_hooks", counting)
    tall = tangent_chern(boxed(4, 2))
    assert calls == Counter({(2, 4, lam): 1 for lam in partitions_in_box(2, 4) if lam != (4, 4)})
    wide = tangent_chern(boxed(2, 4))
    assert tall.terms == {conjugate(lam): c for lam, c in wide.terms.items()}
    assert tall.terms == tangent_chern_localized(4, 2)


A_331 = [
    [3, 9, 3, 0, 0, 0, 0],
    [0, -9, -9, 0, 0, 0, 0],
    [0, 0, 6, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
]

A_432 = [
    [3, 12, 10, 0, 0],
    [0, -12, -16, 0, 0],
    [0, 0, 6, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
]


def test_a_matrix_known_values():
    assert a_matrix(3, 3, 1) == corner_of(A_331, 2)
    assert a_matrix(4, 3, 2) == corner_of(A_432, 2)


@pytest.mark.parametrize("m,n,k", [(9, 9, 7), (8, 8, 4), (9, 9, 2)], ids=["tall", "square", "wide"])
def test_a_matrix_returns_only_its_corner(m, n, k):
    # (k(n-k)+1)^2 entries, not the paper's (m(n-k)+1)^2
    dim = k * (n - k)
    A = a_matrix(m, n, k)
    assert len(A) == dim + 1 and all(len(row) == dim + 1 for row in A)


@pytest.mark.parametrize("m,n,k", [
    (5, 5, 2), (6, 6, 3), (5, 4, 3), (6, 5, 2),
    (7, 7, 3), (7, 7, 4), (8, 8, 3), (9, 9, 2), (9, 9, 7), (8, 5, 2),
])
def test_a_matrix_matches_general_product_formula(m, n, k):
    # the general LR route: integrate((c(T) * c_i(Q*^m)) * c_j(S*^m))
    box = boxed(k, n - k)
    tangent = tangent_chern(box)
    cq = bundle_power_chern(chern_Q(box), m, dualize=True)
    cs = bundle_power_chern(chern_S_dual(box), m)
    size = m * (n - k) + 1
    want = [[0] * size for _ in range(size)]
    for i in range(box.dim + 1):
        for j in range(box.dim + 1):
            if i + j < size:
                want[i][i + j] = integrate((tangent * cq[i]) * cs[j])
    assert a_matrix(m, n, k) == corner_of(want, box.dim)


@pytest.mark.parametrize("m,n,k", [
    (3, 3, 1), (4, 3, 2), (5, 5, 2), (6, 6, 3), (7, 7, 3), (8, 8, 4),
    (9, 9, 4), (9, 9, 2), (9, 9, 7), (8, 5, 2), (9, 8, 5), (10, 10, 5),
    # wide boxes and their transposes: one Pieri table serves both
    (10, 10, 2), (10, 10, 8), (11, 11, 3), (11, 11, 8), (20, 4, 1), (20, 4, 3), (9, 9, 1), (9, 9, 8),
])
def test_a_matrix_matches_localization(m, n, k):
    # Atiyah-Bott over the k-subsets: no partitions, no Pieri table, no c(T_G)
    assert a_matrix(m, n, k) == corner_of(a_matrix_localized(m, n, k), k * (n - k))


def test_divide_exactly_drops_zeros_and_names_a_remainder():
    assert _divide_exactly({(1,): 6, (2,): 0, (1, 1): -3}, 3, "x") == {(1,): 2, (1, 1): -1}
    assert _divide_exactly({(): 5, (1,): 0}, 0, "x") == {(): 5}
    with pytest.raises(ConsistencyError, match=r"c_2\(T\) of box 2x2 is not integral at \(2,\)"):
        _divide_exactly({(1, 1): 4, (2,): 3}, 2, "c_2(T) of box 2x2")


@pytest.mark.parametrize("rows,cols,m,n,k,message", [
    pytest.param(2, 2, 4, 4, 2, r"c\(T\) c_3\(Q\*\^4\) of box 2x2 is not integral at \(2, 1\)$", id="square"),
    # box 2x4 reads its corner off the pass of its tall partner 4x2, and the
    # message names the box the pass ran in
    pytest.param(4, 2, 6, 6, 2, r"c\(T\) c_5\(Q\*\^6\) of box 4x2 is not integral at \(2, 1, 1, 1\)$", id="wide"),
])
def test_a_matrix_names_a_remainder_of_the_miller_pass(monkeypatch, rows, cols, m, n, k, message):
    # drop the Pieri term s_() * s_(1) = s_(1): i R_i is no longer divisible by i
    schubert._corner.cache_clear()  # a memoized corner would skip the forged pass
    shapes, pieri, *rest = schubert._row_pieri(boxed(rows, cols))
    forged = [list(terms) for terms in pieri]
    assert forged[0][0] == (1, shapes.index((1,)))
    del forged[0][0]
    monkeypatch.setattr(schubert, "_row_pieri", lambda b: (shapes, forged, *rest))
    with pytest.raises(ConsistencyError, match=message):
        a_matrix(m, n, k)


@pytest.mark.parametrize("m,n,k", [(4, 4, 2), (6, 6, 2)], ids=["square", "wide"])
def test_a_matrix_names_a_remainder_of_a_column_weight(monkeypatch, m, n, k):
    # the table keeps the hook product of each column weight; one that does
    # not divide its content product must stop the pass, not give 0
    schubert._corner.cache_clear()  # a memoized corner would skip the forged weights
    box = boxed(max(k, n - k), min(k, n - k))
    *head, hook_contents = schubert._row_pieri(box)
    point = head[0].index(box.full)  # its weight's shape is empty: hook 1, no contents
    assert hook_contents[point] == (1, ())
    forged = list(hook_contents)
    forged[point] = (2, ())
    monkeypatch.setattr(schubert, "_row_pieri", lambda b: (*head, forged))
    with pytest.raises(ConsistencyError, match=r"s_lam\(1\^%d\) with hook product 2 and contents \(\) is not integral$" % m):
        a_matrix(m, n, k)


def test_a_wide_box_multiplies_along_its_short_side_and_shares_the_table(monkeypatch):
    # box 2x5 runs its pass in its tall partner 5x2, asking only for s_(e) with
    # e <= 2, and that table then serves G(5, 7) as it is
    calls = []
    real = schubert.lr_expansion
    monkeypatch.setattr(schubert, "lr_expansion", lambda lam, mu: calls.append((lam, mu)) or real(lam, mu))
    schubert._row_pieri.cache_clear()
    schubert._corner.cache_clear()
    a_matrix(7, 7, 2)
    assert calls and {mu for _, mu in calls} == {(1,), (2,)}
    calls.clear()
    a_matrix(7, 7, 5)
    assert not calls


def test_a_matrix_takes_no_class_products(monkeypatch):
    want = a_matrix(6, 6, 3)

    def refuse(*args):
        raise AssertionError("a_matrix multiplied or paired classes")

    monkeypatch.setattr(schubert.ChowClass, "__mul__", refuse)
    monkeypatch.setattr(schubert, "pairing", refuse)
    schubert._row_pieri.cache_clear()
    schubert._corner.cache_clear()  # else the second call is a memo hit and checks nothing
    assert a_matrix(6, 6, 3) == want


def test_a_matrix_looks_up_lr_expansion_on_a_cold_box(monkeypatch):
    # the benchmark tracer records its LR spans through this module global
    calls = []
    real = schubert.lr_expansion
    monkeypatch.setattr(schubert, "lr_expansion", lambda lam, mu: calls.append((lam, mu)) or real(lam, mu))
    schubert._row_pieri.cache_clear()
    schubert._corner.cache_clear()
    a_matrix(4, 4, 2)
    assert calls


def test_the_schubert_layer_keeps_two_memos():
    # a Pieri table per box, which also keeps c(T_G) and the hook products
    # and contents of the column weights, and a corner per (m, n, k), which
    # divides those products once per m (a wide key holds the flip of its
    # tall partner's corner); nothing else is memoized, the pass included
    memos = {name for name, value in vars(schubert).items() if hasattr(value, "cache_clear")}
    assert memos == {"_row_pieri", "_corner"}


@pytest.mark.parametrize("m,n,k", [(9, 9, 7), (8, 8, 4), (9, 9, 2), (5, 5, 3), (5, 5, 2)],
                         ids=["tall", "square", "wide", "tall-3x2", "wide-2x3"])
def test_a_changed_a_matrix_leaves_the_next_one_unchanged(m, n, k):
    A = a_matrix(m, n, k)
    # the memo holds tuples: a corner of lists could be changed for the whole
    # process by any holder of one of its rows.  A wide key keeps its own
    # flipped rows, and the tall partner's corner it read is kept too
    for key in {(m, n, k), (m, n, max(k, n - k))}:
        corner = schubert._corner(*key)
        assert type(corner) is tuple and all(type(row) is tuple for row in corner)
    assert list(map(list, schubert._corner(m, n, k))) == A
    want = [list(row) for row in A]
    for row in A:
        row[:] = [7] * len(row)
    A.append([])
    assert a_matrix(m, n, k) == want
    schubert._corner.cache_clear()
    assert a_matrix(m, n, k) == want  # and equal to a cold one


def test_a_memoized_corner_is_refused_past_the_cell_limit():
    # G(2, 6) and G(4, 6) keep a memoized corner each, the wide one flipped
    # from the tall one, but the box asked for is checked first
    schubert._corner.cache_clear()
    want = {k: a_matrix(6, 6, k) for k in (2, 4)}
    assert schubert._corner.cache_info().currsize == 2
    old = set_box_cell_limit(7)
    try:
        for k in (2, 4):
            with pytest.raises(BoxSizeError, match=f"box {k}x{6 - k} exceeds the cell limit 7"):
                a_matrix(6, 6, k)
    finally:
        set_box_cell_limit(old)
    assert {k: a_matrix(6, 6, k) for k in (2, 4)} == want


def test_a_matrix_zero_pattern():
    for (m, n, k) in [(3, 3, 1), (4, 3, 1), (4, 3, 2), (4, 4, 2), (5, 4, 3)]:
        mat = a_matrix(m, n, k)
        dim = k * (n - k)
        for i, row in enumerate(mat):
            for p, entry in enumerate(row):
                if i > p or i > dim or p > dim:
                    assert entry == 0, (m, n, k, i, p)


def test_a_matrix_parameter_errors():
    with pytest.raises(ParameterError):
        a_matrix(3, 3, 0)
    with pytest.raises(ParameterError):
        a_matrix(3, 4, 1)  # needs n <= m
    with pytest.raises(ParameterError):
        a_matrix(4, 4, 4)


def test_box_guardrail():
    with pytest.raises(BoxSizeError):
        Box(7, 6)
    old = set_box_cell_limit(42)
    try:
        assert Box(7, 6).dim == 42
    finally:
        set_box_cell_limit(old)
    with pytest.raises(BoxSizeError):
        Box(7, 6)
    for limit in (0, -1):  # no box fits: an invalid limit, left unset
        with pytest.raises(ParameterError, match="at least 1"):
            set_box_cell_limit(limit)
    assert Box(6, 6).dim == 36


def test_lr_expansion_universal_cache_is_box_free():
    # the raw expansion keeps partitions that no box can hold
    exp = lr_expansion((2, 2), (2, 2))
    assert exp[(4, 4)] == 1
    assert exp[(2, 2, 2, 2)] == 1
    assert sum(c * 1 for c in exp.values()) >= 5


def schur_oracle(lam, mu):
    """Universal s_lam * s_mu: len(lam) + len(mu) variables and a box of width
    lam[0] + mu[0] hold every shape of the product."""
    rows = max(len(lam) + len(mu), 1)
    cols = (lam[0] if lam else 0) + (mu[0] if mu else 0)
    return schur_product_in_box(lam, mu, rows, cols)


@given(partition_in(3, 4), partition_in(4, 4))
@example((2, 1), (3, 1))  # wide: one strip per row of mu
@example((2, 1), (2, 1, 1))  # tall: expanded through the conjugates
@example((2, 2), (2, 2))  # equal rows of mu: the lattice slack binds
@example((3, 1), (4,))  # one row
@example((2, 2), (1, 1, 1, 1))  # one column
@example((2, 1), ())
@example((), (2, 1))
@settings(max_examples=150, deadline=None)
def test_lr_expansion_matches_schur_oracle(lam, mu):
    assume(sum(lam) + sum(mu) <= 8 and len(lam) + len(mu) <= 6)
    want = schur_oracle(lam, mu)
    assert lr_expansion(lam, mu) == want
    assert _LR_CACHE[(lam, mu)] == want


def brute_force_strips(lam, r):
    """Every nu with nu/lam a horizontal strip of r cells: nu_i in
    [lam_i, lam_(i-1)] below the first row (nu_1 >= lam_1 free), with one more
    row than lam, by trying each row length independently."""
    padded = lam + (0,)
    out = set()

    def grow(i, acc):
        if i == len(padded):
            if sum(acc) - sum(lam) == r:
                out.add(tuple(p for p in acc if p))
            return
        high = padded[0] + r if i == 0 else padded[i - 1]
        for p in range(padded[i], high + 1):
            grow(i + 1, acc + [p])

    grow(0, [])
    return out


def test_horizontal_strips_match_brute_force_on_the_4x4_box():
    # the builder fills rows 2.. first and gives row 1 the rest, so every
    # leaf of a Pieri strip is kept; none may be lost or found twice
    for lam in partitions_in_box(4, 4):
        for r in range(7):
            got = _horizontal_strips(lam, r)
            assert len(got) == len(set(got)), (lam, r)
            assert set(got) == brute_force_strips(lam, r), (lam, r)


@pytest.mark.parametrize("lam,mu", [((2, 1), (2,)), ((2, 1), (2, 1)), ((3, 1), (1, 1, 1)), ((), (2, 1)), ((2,), ())])
def test_lr_expansion_normalizes_lists_and_trailing_zeros(lam, mu):
    # every form is normalized before the one lookup, and gets the same
    # answer warm and cold
    _LR_CACHE.clear()
    want = lr_expansion(lam, mu)
    forms = [(list(lam), list(mu)), (lam + (0,), mu + (0, 0)), (list(lam) + [0], mu)]
    for a, b in forms:  # the cache holds the key
        assert lr_expansion(a, b) == want, (a, b)
    for a, b in forms:  # the cache does not
        _LR_CACHE.clear()
        assert lr_expansion(a, b) == want, (a, b)
        assert set(_LR_CACHE) == {(lam, mu)}, (a, b)


def test_lr_expansion_cannot_be_changed_by_a_caller():
    # the cache hands out read-only views: a caller's edit raises and the
    # next product (and the exported snapshot) is unchanged
    _LR_CACHE.clear()
    want = {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    got = lr_expansion((2, 1), (1,))
    with pytest.raises(TypeError):
        got[(9,)] = 5
    assert lr_expansion((2, 1), (1,)) == want
    snapshot = lr_cache_export()
    assert snapshot == {((2, 1), (1,)): want} and type(snapshot[(2, 1), (1,)]) is dict
    lr_cache_import({((3,), (1,)): {(4,): 1, (3, 1): 1}})
    with pytest.raises(TypeError):
        lr_expansion([3], (1, 0))[(9,)] = 5
    assert lr_expansion((3,), (1,)) == {(4,): 1, (3, 1): 1}


@given(box_and_partitions(count=1, max_side=4), st.integers(1, 5), st.booleans())
@settings(max_examples=80, deadline=None)
def test_pieri_fast_path_matches_schur_oracle(data, size, column):
    _, (lam,) = data
    mu = (1,) * size if column else (size,)
    assume(len(lam) + len(mu) <= 7)
    want = schur_oracle(lam, mu)
    assert lr_expansion(lam, mu) == want
    assert _LR_CACHE[(lam, mu)] == want


def test_pieri_fast_path_keeps_shapes_outside_every_small_box():
    assert lr_expansion((2, 1), (3,)) == {(5, 1): 1, (4, 2): 1, (4, 1, 1): 1, (3, 2, 1): 1}
    assert lr_expansion((2, 1), (1, 1, 1)) == {
        (3, 2, 1): 1, (3, 1, 1, 1): 1, (2, 2, 1, 1): 1, (2, 1, 1, 1, 1): 1,
    }


# --- general paths that replaced special cases -------------------------------


def test_lr_expansion_of_an_empty_lam_is_mu_by_the_chain_rule():
    # no branch for lam = (): the strips of mu's rows, grown from the empty
    # shape, leave mu alone, for one-row, tall and wide mu alike
    _LR_CACHE.clear()
    for mu in partitions_in_box(5, 5):
        assert dict(lr_expansion((), mu)) == {mu: 1}, mu


def test_partitions_in_box_come_out_sorted():
    # the recursion takes parts in ascending order, so it emits the
    # lexicographic order itself; _row_pieri's shape indices rely on it
    for rows in range(1, 6):
        for cols in range(1, 6):
            shapes = partitions_in_box(rows, cols)
            assert shapes == tuple(sorted(shapes)) and len(set(shapes)) == binom(rows + cols, rows)


def test_pairing_is_symmetric_for_a_sparse_and_a_dense_class():
    box = Box(3, 3)
    sparse = schubert_class(box, (2, 1)) * 4 - schubert_class(box, (3,))
    dense = ChowClass(box, {lam: x * x - 7 for x, lam in enumerate(partitions_in_box(3, 3))})
    for x, y in [(sparse, dense), (dense, sparse), (dense, dense), (sparse, sparse)]:
        assert pairing(x, y) == pairing(y, x) == integrate(x * y)


@pytest.mark.parametrize("parts", [(2.5, 1), ("2", True), (2.0,), (True,), [3, 1.0]])
def test_normalize_refuses_a_part_that_is_not_an_int(parts):
    with pytest.raises(TypeError, match="not an int"):
        normalize(parts)
    with pytest.raises(TypeError):
        lr_expansion(parts, (1,))
    with pytest.raises(TypeError):
        schubert_class(Box(3, 3), parts)


def test_normalize_refuses_a_numpy_integer():
    np = pytest.importorskip("numpy")
    with pytest.raises(TypeError):
        normalize((np.int64(2), 1))
    assert normalize([2, 1, 0]) == (2, 1)
