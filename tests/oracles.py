"""Brute-force oracles used by the test suite.

Deliberately independent of the package internals: Schur polynomials are
expanded by enumerating semistandard tableaux, products are raw polynomial
multiplication, and Schur expansion works by peeling lex-leading monomials.
The polynomial maps in the hyperplane class (the Chern-Mather contraction,
the characteristic-cycle transform and the dual-variety involution) are
written out as the explicit binomial sums they expand to.  The total Chern
class of the tangent bundle of G(k, n) and the degree matrix A come from
Atiyah-Bott localization over the torus fixed points, with no Schubert-ring
code at all; the former power-sum route for c(T), which summed every term
of p_i(T), is kept beside it as a regression fence for the rewrite and is
the one oracle that calls into the package (its rim-hook kernel).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm, prod


def _binom(a, b):
    return comb(a, b) if 0 <= b <= a else 0


def minus_one_minus_t_sum(p):
    """Coefficients of p(-1-t), from (-1-t)^j = (-1)^j sum_s binom(j, s) t^s."""
    out = [0] * len(p)
    for j, pj in enumerate(p):
        for s in range(j + 1):
            out[s] += (-1) ** j * pj * _binom(j, s)
    return out


def cm_triple_sum(A, m, n, k):
    """H-power coefficients of the Chern-Mather class of tau(m, n, k), k >= 1,
    from its degree matrix A: gamma_l = sum over mk+j-p = l of
    A[i][p] binom(top-i, j-i), with top = m(n-k) and l = 0..mn-1."""
    N = m * n - 1
    top = m * (n - k)
    gamma = [0] * (N + 1)
    for i in range(top + 1):
        for p in range(top + 1):
            for j in range(top + 1):
                l = m * k + j - p
                if 0 <= l <= N:
                    gamma[l] += A[i][p] * _binom(top - i, j - i)
    return gamma


def ch_sum(gamma):
    """Characteristic-cycle coefficients, by descending h1 exponent, of the
    class with coefficients gamma over [P^0], ..., [P^N]: the monomial
    h1^(N+1-j) h2^j carries sum_{l=j-1}^{N-1} (-1)^l gamma_l binom(l+1, j)."""
    N = len(gamma) - 1
    return [sum((-1) ** l * gamma[l] * _binom(l + 1, j) for l in range(j - 1, N))
            for j in range(1, N + 1)]


def involution_sum(q):
    """p(t) -> p(-1-t) - p(-1)((1+t)^(N+1) - t^(N+1)), N = len(q) - 1."""
    N = len(q) - 1
    at_minus1 = sum((-1) ** j * qj for j, qj in enumerate(q))
    return [c - at_minus1 * _binom(N + 1, s) for s, c in enumerate(minus_one_minus_t_sum(q))]


def semistandard_fillings(shape, nvars):
    """Yield all semistandard fillings of a partition shape with entries in
    1..nvars, as row tuples (weakly increasing rows, strict columns)."""
    rows = len(shape)

    def fill(rowidx, above, acc):
        if rowidx == rows:
            yield tuple(acc)
            return
        width = shape[rowidx]

        def build_row(col, row):
            if col == width:
                yield tuple(row)
                return
            lo = row[col - 1] if col else 1
            if above is not None and col < len(above):
                lo = max(lo, above[col] + 1)
            for v in range(lo, nvars + 1):
                row.append(v)
                yield from build_row(col + 1, row)
                row.pop()

        for row in build_row(0, []):
            acc.append(row)
            yield from fill(rowidx + 1, row, acc)
            acc.pop()

    yield from fill(0, None, [])


@lru_cache(maxsize=None)
def schur_polynomial(shape, nvars):
    """Schur polynomial as a monomial dict {exponent tuple: coefficient}."""
    if len(shape) > nvars:
        return {}
    out = {}
    for filling in semistandard_fillings(shape, nvars):
        expo = [0] * nvars
        for row in filling:
            for v in row:
                expo[v - 1] += 1
        key = tuple(expo)
        out[key] = out.get(key, 0) + 1
    return out


def poly_mul(p, q):
    out = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            s = out.get(key, 0) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def schur_expand(poly, nvars):
    """Expand a symmetric polynomial in the Schur basis by repeatedly
    subtracting the Schur polynomial of the lex-leading monomial."""
    work = {k: v for k, v in poly.items() if v}
    out = {}
    while work:
        lead = max(work)
        lam = tuple(p for p in lead if p)
        assert all(lead[i] >= lead[i + 1] for i in range(nvars - 1)), "not symmetric"
        c = work[lead]
        out[lam] = c
        for mono, sc in schur_polynomial(lam, nvars).items():
            s = work.get(mono, 0) - c * sc
            if s:
                work[mono] = s
            else:
                work.pop(mono, None)
    return out


def schur_product_in_box(lam, mu, rows, cols):
    """Schur-basis expansion of s_lam * s_mu computed with explicit
    polynomials in `rows` variables, filtered to the rows x cols box."""
    prod = poly_mul(schur_polynomial(tuple(lam), rows), schur_polynomial(tuple(mu), rows))
    full = schur_expand(prod, rows)
    return {nu: c for nu, c in full.items() if not nu or nu[0] <= cols}


def _box_partitions(rows, cols):
    """Every partition in the rows x cols box, trailing zeros stripped."""
    def build(prefix, cap):
        yield tuple(prefix)
        if len(prefix) < rows:
            for p in range(min(cap, cols), 0, -1):
                yield from build(prefix + [p], p)
    return list(build([], cols))


def _elementary(weights):
    """[e_0, e_1, ...] of a list of integers."""
    e = [1]
    for w in weights:
        e = [a + w * b for a, b in zip(e + [0], [0] + e)]
    return e


def _det(matrix):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; 1 for the empty matrix."""
    a = [list(row) for row in matrix]
    size, sign, prev = len(a), 1, 1
    for k in range(size - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def tangent_chern_localized(rows, cols):
    """Schubert coefficients of c(T) on G(rows, rows+cols) by Atiyah-Bott
    localization.  With torus weights t = 0..n-1, the fixed point I (a
    rows-subset) has T-weights t_j - t_i (i in I, j not in I) and Q-weights
    t_j (j not in I).  The coefficient of s_lam is the degree of
    c_|lam|(T) s_mu, mu the complement of lam, i.e.
    sum_I e_|lam|(T-weights) det(e_(mu_a+b-a)(Q-weights)) / prod (t_j - t_i),
    the determinant being Giambelli's formula for s_mu."""
    n = rows + cols
    points = []
    for fixed in combinations(range(n), rows):
        rest = [j for j in range(n) if j not in fixed]
        tangent = [j - i for i in fixed for j in rest]
        points.append((_elementary(tangent), _elementary(rest), prod(tangent)))
    out = {}
    for lam in _box_partitions(rows, cols):
        padded = list(lam) + [0] * (rows - len(lam))
        mu = [cols - p for p in reversed(padded) if p < cols]
        total = Fraction(0)
        for e_tangent, e_quot, euler in points:
            giambelli = _det([[e_quot[mu[a] + b - a] if 0 <= mu[a] + b - a < len(e_quot) else 0
                               for b in range(len(mu))] for a in range(len(mu))])
            total += Fraction(e_tangent[sum(lam)] * giambelli, euler)
        assert total.denominator == 1, (rows, cols, lam)
        if total:
            out[lam] = int(total)
    return out


def a_matrix_localized(m, n, k):
    """The degree matrix A of size m(n-k)+1, A[i][p] = the degree of
    c_(dim-p)(T) c_i(Q*^m) c_(p-i)(S*^m) on G(k, n), dim = k(n-k), by
    Atiyah-Bott localization.  With torus weights t = 0..n-1, the fixed
    point I (a k-subset) has T-weights t_j - t_i (i in I, j not in I),
    Q*^m-weights -t_j and S*^m-weights -t_i, each m times.  Each point's
    term is scaled by L / e(I), L the lcm of the Euler classes
    e(I) = prod (t_j - t_i), and the sum must divide by L exactly."""
    dim, top = k * (n - k), m * (n - k)
    points = []
    for fixed in combinations(range(n), k):
        rest = [j for j in range(n) if j not in fixed]
        tangent = [j - i for i in fixed for j in rest]
        points.append((_elementary(tangent), _elementary([-j for j in rest] * m),
                       _elementary([-i for i in fixed] * m), prod(tangent)))
    scale = lcm(*(euler for *_, euler in points))
    matrix = [[0] * (top + 1) for _ in range(top + 1)]
    for i in range(dim + 1):
        for p in range(i, dim + 1):
            total = sum(e_tangent[dim - p] * e_quot[i] * e_sub[p - i] * (scale // euler)
                        for e_tangent, e_quot, e_sub, euler in points)
            matrix[i][p], rem = divmod(total, scale)
            assert not rem, (m, n, k, i, p)
    return matrix


def tangent_chern_all_terms(box):
    """The former power-sum route for c(T): every term t = 0..j of
    p_j(T) = sum_t C(j,t) p_t(x) p_(j-t)(y), two rim-hook passes each, and
    Newton's identities j c_j = sum_i (-1)^(i-1) c_(j-i) p_i(T) summed
    backwards for each j."""
    from detchern.schubert import _times_power_sum

    def times_tangent_power_sum(terms, j):
        out = {}
        for t in range(j + 1):
            piece, scale = terms, comb(j, t)
            if t:
                piece = _times_power_sum(box, piece, t)
            else:
                scale *= box.rows
            if t < j:
                piece = _times_power_sum(box, piece, j - t)
                scale *= (-1) ** (j - t - 1)
            else:
                scale *= box.cols
            for nu, c in piece.items():
                out[nu] = out.get(nu, 0) + scale * c
        return out

    chern = [{(): 1}]
    for j in range(1, box.dim + 1):
        acc = {}
        for i in range(1, j + 1):
            for nu, c in times_tangent_power_sum(chern[j - i], i).items():
                acc[nu] = acc.get(nu, 0) + (-1) ** (i - 1) * c
        assert all(c % j == 0 for c in acc.values()), (box, j)
        chern.append({nu: c // j for nu, c in acc.items() if c})
    return {nu: c for piece in chern for nu, c in piece.items()}
