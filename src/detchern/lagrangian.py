"""Lagrangian cycles of determinantal varieties in P^N x P^N.

Projectivized conormal cycles, characteristic cycles of the closed
varieties and of their open strata, polar degrees, generic Euclidean
distance degrees, the exponent-swapping flip, and the dual-variety
involution on Chern-Mather classes.  Main routes: ch_from_class and
involution_dual substitute t -> -1-t (classes.at_minus_one_minus_t), one
Horner pass on a single integer at t = 2^B, with B = (largest bit length
of a coefficient) + (degree) + 2 bits, enough for every coefficient of the
image.  Each map is exactly one pass, by two identities: for p = t G,
(1+t) G(-1-t) = -p(-1-t); and for s(u) = q(u) + (-1)^N q(-1) u^(N+1),
s(-1-t) = q(-1-t) - q(-1)(1+t)^(N+1), whose cut at t^N is the involution.
Check route: polar_degrees checks the conormal coefficients against the
polar-class binomial sums over the Chern-Mather class, by Pascal's rule.

A BiProjClass is a classes.CoeffVector: its N coefficients are stored
densely by descending h1 exponent (h1^N h2, ..., h1 h2^N), the order of
`dense()` and of the reference tables, so the flip is a reversal.
Conormal cycles are stored with the (-1)^dim prefactor already applied, so
their coefficients are the (nonnegative) polar degrees; characteristic
cycles are the classes.strata_sum of those signed conormal cycles and keep
the signs produced by the alternating sums.
"""

from __future__ import annotations

from operator import add, neg

from ._record import Record
from .classes import CoeffVector, ProjClass, at_minus_one_minus_t, cm_class, strata_sum, variety_dim
from .errors import ConsistencyError, ParameterError, check_params
from .partitions import binom
from .schubert import Box


class BiProjClass(CoeffVector):
    """Integer class of dimension N in P^N x P^N: coefficients of the
    monomials h1^a h2^(N+1-a), stored by descending a = N, ..., 1."""

    __slots__ = ()

    @property
    def N(self) -> int:
        return len(self.coeffs)

    def coefficient(self, a: int) -> int:
        return self.coeffs[self.N - a] if 1 <= a <= self.N else 0

    def dense(self) -> tuple[int, ...]:
        """Coefficients by descending h1 exponent: h1^N h2, ..., h1 h2^N."""
        return self.coeffs

    def dagger(self) -> "BiProjClass":
        """Swap the h1 and h2 exponents of every monomial (an involution)."""
        return self._new(reversed(self.coeffs))

    def __repr__(self):
        N = self.N
        bits = [f"{c}*h1^{N - i}h2^{i + 1}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(bits) or "0"


def dagger(x: BiProjClass) -> BiProjClass:
    return x.dagger()


def ch_from_class(c: ProjClass) -> BiProjClass:
    """Characteristic-cycle class of a constructible function from its
    Chern class transform G(t) = sum_l gamma_l t^l, gamma_l the coefficient
    of [P^l] for l < N: the coefficient of t^j in (1+t) G(-1-t) goes on the
    monomial h1^(N+1-j) h2^j, for j = 1..N.  That polynomial is -p(-1-t)
    for p = t G, so it is one substitution of -p."""
    N = c.ambient_dim
    # p(-1-t) = (-1-t) G(-1-t), so (1+t) G(-1-t) = -p(-1-t) with p = t G
    return BiProjClass(N, at_minus_one_minus_t([0, *map(neg, c.coeffs[:N])])[1:])


_CON_CACHE: dict[tuple[int, int, int], BiProjClass] = {}


def conormal(m: int, n: int, k: int) -> BiProjClass:
    """Projectivized conormal cycle of tau(m, n, k): the characteristic
    cycle of its local Euler obstruction, normalized by (-1)^dim so all
    coefficients are nonnegative polar degrees.  The box cell limit applies
    to a memoized cycle too."""
    check_params(m, n, k)
    Box.check(k, n - k)
    key = (m, n, k)
    hit = _CON_CACHE.get(key)
    if hit is None:
        sign = (-1) ** variety_dim(m, n, k)
        hit = sign * ch_from_class(cm_class(m, n, k))
        _CON_CACHE[key] = hit
    return hit


def _signed_conormal(m: int, n: int, j: int) -> BiProjClass:
    # ch(Eu) = (-1)^dim Con, so this is the characteristic cycle of Eu
    return (-1) ** variety_dim(m, n, j) * conormal(m, n, j)


def charcycle(m: int, n: int, k: int) -> BiProjClass:
    """Characteristic cycle of the closed variety tau(m, n, k)."""
    check_params(m, n, k)
    return strata_sum(n, k, False, lambda j: _signed_conormal(m, n, j), BiProjClass(m * n - 1))


def charcycle_open(m: int, n: int, k: int) -> BiProjClass:
    """Characteristic cycle of the open stratum of kernel dimension k."""
    check_params(m, n, k)
    return strata_sum(n, k, True, lambda j: _signed_conormal(m, n, j), BiProjClass(m * n - 1))


def polar_degrees(m: int, n: int, k: int) -> list[int]:
    """Polar degrees delta_0..delta_d of tau(m, n, k).

    Primary route: read the conormal-cycle coefficient at
    h1^(codim+l) h2^(mn-codim-l).  Secondary route: the polar-class degree
    sums over the Chern-Mather coefficients, by Pascal's rule on plain lists
    (no Kronecker pass, so it shares no code with the first).  The routes must agree.
    """
    check_params(m, n, k)
    N = m * n - 1
    d = variety_dim(m, n, k)
    codim = N - d
    con = conormal(m, n, k)
    from_con = [con.coefficient(codim + l) for l in range(d + 1)]
    beta = cm_class(m, n, k).coeffs
    # sum_(i<=l) binom(d-i+1, d-l+1) (-1)^i beta_(d-i) is [x^(d+1-l)] of P = sum_i (-1)^i beta_(d-i)
    # (1+x)^(d+1-i), built by Pascal's rule P <- (P + (-1)^i beta_(d-i)) (1+x) on a plain list
    P = [0]
    for i in range(d + 1):
        P[0] += -beta[d - i] if i & 1 else beta[d - i]
        P = list(map(add, [*P, 0], [0, *P]))
    from_polar = P[d + 1 : 0 : -1]
    if from_con != from_polar:
        raise ConsistencyError(
            f"polar degree routes disagree for ({m},{n},{k}): "
            f"conormal {from_con} vs polar classes {from_polar}"
        )
    return from_con


def ged(m: int, n: int, k: int) -> int:
    """Generic Euclidean distance degree: the sum of the polar degrees,
    whose two routes `polar_degrees` has already asserted equal."""
    return sum(polar_degrees(m, n, k))


def involution_dual(q: tuple[int, ...]) -> tuple[int, ...]:
    """The map p(t) -> p(-1-t) - p(-1)((1+t)^(N+1) - t^(N+1)) on integer
    polynomials of degree <= N, as coefficient tuples (index = power).
    An involution on polynomials without constant term (the classes of
    proper subvarieties carry no fundamental-class component).  It is one
    substitution of s(u) = p(u) + (-1)^N p(-1) u^(N+1), cut at t^N."""
    # s(-1-t) = p(-1-t) - p(-1)(1+t)^(N+1), and cutting at t^N drops exactly
    # the t^(N+1) term the map adds back; (-1)^N p(-1) is the alternating sum
    # of the coefficients from the top one down
    return tuple(at_minus_one_minus_t([*q, sum(q[::-2]) - sum(q[-2::-2])])[: len(q)])


def dual_cm(c: ProjClass, dim_x: int) -> ProjClass:
    """Chern-Mather class of the dual variety, from the involution on the
    hyperplane-power representation of the input class.  The involution is
    linear, so the sign (-1)^dim_x of its input and the sign (-1)^(dim of
    the dual) of its output go on the output together."""
    N = c.ambient_dim
    r = involution_dual(c.h_coefficients())
    # the dual has dimension N - low, low the lowest nonzero H-power of the
    # image; a zero image reads low = N, and any sign leaves it zero
    low = next((j for j, v in enumerate(r) if v), N)
    return (-1 if (dim_x + N - low) & 1 else 1) * ProjClass.from_h_coefficients(r)


class SymmetryReport(Record):
    """Pass/fail results for the flip symmetries of characteristic cycles."""

    __slots__ = ("m", "n", "checks")

    def __init__(self, m: int, n: int, checks: list[tuple[str, bool]] | None = None):
        self.m, self.n = m, n
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def symmetry_check(m: int, n: int) -> SymmetryReport:
    """Verify the flip (anti)symmetry of Ch(tau(m, n, 1)) dictated by the
    parities of m and n, and the binomial flip identity relating the
    characteristic cycles of the open strata for every k."""
    if not (2 <= n <= m):
        raise ParameterError(f"need 2 <= n <= m, got m={m} n={n}")
    report = SymmetryReport(m, n)
    ch1 = charcycle(m, n, 1)
    sign = -1 if (m % 2 == 0 and n % 2 == 1) else 1
    label = "antisymmetric" if sign == -1 else "symmetric"
    report.checks.append((f"Ch(tau({m},{n},1)) {label} under flip", ch1 == sign * ch1.dagger()))
    opens = {i: charcycle_open(m, n, i) for i in range(1, n)}
    # the flipped side carries (-1)^(mn): the two sides are signed conormal
    # cycles of dual varieties whose dimensions differ by mn mod 2
    flip_sign = (-1) ** (m * n)
    for k in range(1, n):
        lhs = BiProjClass(m * n - 1)
        for i in range(k, n):
            lhs = lhs + binom(i, k) * opens[i]
        rhs = BiProjClass(m * n - 1)
        for i in range(n - k, n):
            rhs = rhs + flip_sign * binom(i, n - k) * opens[i].dagger()
        report.checks.append((f"binomial flip identity at k={k}", lhs == rhs))
    return report
