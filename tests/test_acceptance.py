"""Acceptance suite: one test per criterion, exact integer comparisons.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with its runtime.
"""

import time
from math import comb

import pytest

from detchern import tables
from detchern.classes import (
    cm_class,
    cm_class_via_trace,
    csm_class,
    csm_open,
    milnor_class,
    variety_dim,
)
from detchern.cli import scan_conjectures
from detchern.lagrangian import (
    charcycle,
    charcycle_open,
    conormal,
    dagger,
    dual_cm,
    ged,
    polar_degrees,
    symmetry_check,
)
from detchern.microlocal import determinantal_system, ic_char_cycle, solve_multiplicities
from detchern.partitions import binom, partitions_in_box
from detchern.schubert import Box, a_matrix, bundle_power_chern, chern_Q, chern_S_dual, one, schubert_class, zero

from oracles import corner_of, schur_product_in_box


@pytest.fixture
def criterion(request):
    started = time.monotonic()
    failed = []

    def report(number, description):
        elapsed = time.monotonic() - started
        status = "FAIL" if failed else "PASS"
        print(f"\ncriterion {number:2d} {status} ({elapsed:7.2f} s): {description}")

    yield report


def test_criterion_1_a_matrices(criterion):
    # the tables hold the paper's (m(n-k)+1)^2 matrices; a_matrix returns their 3x3 corners
    assert a_matrix(3, 3, 1) == corner_of(tables.A_MATRICES[(3, 3, 1)], 2)
    assert a_matrix(4, 3, 2) == corner_of(tables.A_MATRICES[(4, 3, 2)], 2)
    criterion(1, "degree matrices for (3,3,1) and (4,3,2) match entry for entry")


def test_criterion_2_chern_mather_tables(criterion):
    for (m, n, k), row in sorted(tables.CM.items()):
        assert cm_class(m, n, k).coeffs == row, (m, n, k)
    criterion(2, "Chern-Mather rows for (3,3,k), (4,3,k), (4,4,k) reproduced")


def test_criterion_3_csm_tables(criterion):
    for (m, n, k), row in sorted(tables.CSM.items()):
        assert csm_class(m, n, k).coeffs == row, (m, n, k)
    for (m, n, k), row in sorted(tables.CSM_OPEN.items()):
        got = csm_open(m, n, k)
        assert got.coeffs == row, (m, n, k)
        for l in range(n - k - 1):
            assert got.coefficient(l) == 0, (m, n, k, l)
    criterion(3, "CSM rows for (3,3,k) and (4,4,k), open-strata zeros included")


def test_criterion_4_euler_characteristics(criterion):
    for n in range(2, 7):
        for k in range(n):
            assert csm_class(n, n, k).coefficient(0) == n * n, (n, k)
    criterion(4, "degree of the CSM class is n^2 for all square cases, n <= 6")


def test_criterion_5_cycle_tables(criterion):
    for (m, n, k), row in sorted(tables.CON.items()):
        assert conormal(m, n, k).dense() == row, (m, n, k)
    for (m, n, k), row in sorted(tables.CH.items()):
        assert charcycle(m, n, k).dense() == row, (m, n, k)
    for (m, n, k), row in sorted(tables.CH_OPEN.items()):
        assert charcycle_open(m, n, k).dense() == row, (m, n, k)
    criterion(5, "conormal rows for (4,4,s), (5,4,s); characteristic rows for (4,4,k), (4,3,k)")


def test_criterion_6_ged_table(criterion):
    for m, n, k, value in tables.GED:
        assert ged(m, n, k) == value, (m, n, k)
    for n in range(2, 10):
        assert ged(n, n, 1) == ged(n, n, n - 1), n
    criterion(6, "all 24 generic Euclidean distance degrees, dual rows equal")


def test_criterion_7_milnor_class(criterion):
    assert milnor_class(3).coeffs == tables.MILNOR[3]
    assert milnor_class(3).h_coefficients() == (0, 0, 0, 0, 6, 0, 24, -54, 171)
    criterion(7, "Milnor class of the 3x3 determinant hypersurface")


def test_criterion_8_microlocal_irreducibility(criterion):
    for n in range(2, 7):
        for m in range(n, n + 3):
            for k in range(1, n):
                r = solve_multiplicities(determinantal_system(m, n, k))
                assert r.values == tuple(1 if i == k else 0 for i in range(n)), (m, n, k)
                assert ic_char_cycle(m, n, k) == conormal(m, n, k), (m, n, k)
    criterion(8, "microlocal multiplicities are unit vectors, IC cycle = conormal (n<=6, m<=n+2)")


def test_criterion_9_duality_suite(criterion):
    # flip duality of conormal cycles
    for m, n in [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)]:
        for k in range(1, n):
            assert dagger(conormal(m, n, k)) == conormal(m, n, n - k), (m, n, k)
    # involution reproduces the dual pair and the self-dual cases
    assert dual_cm(cm_class(4, 4, 1), variety_dim(4, 4, 1)) == cm_class(4, 4, 3)
    assert dual_cm(cm_class(4, 4, 3), variety_dim(4, 4, 3)) == cm_class(4, 4, 1)
    for m, n, k in [(2, 2, 1), (4, 4, 2)]:
        assert dual_cm(cm_class(m, n, k), variety_dim(m, n, k)) == cm_class(m, n, k)
    # parity-dependent (anti)symmetry of the corank-1 characteristic cycle
    for n in range(2, 6):
        for m in range(n, 6):
            ch = charcycle(m, n, 1)
            sign = -1 if (m % 2 == 0 and n % 2 == 1) else 1
            assert ch == sign * dagger(ch), (m, n)
            assert symmetry_check(m, n).checks[0][1], (m, n)
    # binomial flip identity at (4,4)
    report = symmetry_check(4, 4)
    assert report.ok
    o1, o2, o3 = (charcycle_open(4, 4, i) for i in (1, 2, 3))
    assert o1 + 2 * o2 + 3 * o3 == dagger(o3)
    assert o2 + 3 * o3 == dagger(o2) + 3 * dagger(o3)
    criterion(9, "flip duality, dual involution, self-duality, parity symmetry, flip identity")


def test_criterion_10_property_suites(criterion):
    # LR expansion against the Schur-polynomial oracle, boxes up to 3x4
    for rows in range(1, 4):
        for cols in range(1, 5):
            box = Box(rows, cols)
            for lam in partitions_in_box(rows, cols):
                for mu in partitions_in_box(rows, cols):
                    got = schubert_class(box, lam) * schubert_class(box, mu)
                    assert got.terms == schur_product_in_box(lam, mu, rows, cols), (rows, cols, lam, mu)
    # Whitney: c(S) c(Q) = 1 in every box with rows + cols <= 7
    for rows in range(1, 7):
        for cols in range(1, 8 - rows):
            box = Box(rows, cols)
            c_s = bundle_power_chern(chern_S_dual(box), 1, dualize=True)
            c_q = bundle_power_chern(chern_Q(box), 1, dualize=False)
            total = zero(box)
            for d in range(box.dim + 1):
                for a in range(d + 1):
                    total = total + c_s[a] * c_q[d - a]
            assert total == one(box), (rows, cols)
    # binomial inverse matrices multiply to the identity for n <= 12
    for n in range(2, 13):
        for k in range(n):
            size = n - k
            for i in range(size):
                for j in range(size):
                    entry = sum(
                        binom(k + p, k + i) * (-1) ** (j - p) * binom(k + j, k + p)
                        for p in range(size)
                    )
                    assert entry == (1 if i == j else 0), (n, k, i, j)
    # two-route polar degrees and trace/closed-sum agreement for mn <= 16
    for n in range(2, 5):
        for m in range(n, 17):
            if m * n > 16:
                break
            for k in range(1, n):
                polar_degrees(m, n, k)  # raises on route disagreement
                assert cm_class_via_trace(m, n, k) == cm_class(m, n, k), (m, n, k)
    criterion(10, "LR oracle, Whitney check, binomial inverses, two-route agreements")


def test_criterion_11_conjecture_scan(criterion):
    report = scan_conjectures(6, 5)
    assert report.effectivity_violations == []
    assert report.vanishing_violations == []
    assert report.instances_checked == sum(
        n - 1 for m in range(2, 7) for n in range(2, min(m, 5) + 1)
    )
    criterion(11, "scan(6,5): no effectivity or vanishing violations")
