"""Lagrangian cycles of determinantal varieties in P^N x P^N.

Projectivized conormal cycles, characteristic cycles of the closed
varieties and of their open strata, polar degrees (computed along two
independent routes that must agree), generic Euclidean distance degrees,
the exponent-swapping flip, and the dual-variety involution on
Chern-Mather classes.

Conormal cycles are stored with the (-1)^dim prefactor already applied, so
their coefficients are the (nonnegative) polar degrees; characteristic
cycles keep the signs produced by the alternating sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classes import ProjClass, cm_class, variety_dim
from .errors import ConsistencyError, ParameterError
from .partitions import binom


class BiProjClass:
    """Integer class of dimension N in P^N x P^N: coefficients of the
    monomials h1^a h2^b with a + b = N + 1 and 1 <= a, b <= N."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: dict[tuple[int, int], int] | None = None):
        self.N = N
        clean: dict[tuple[int, int], int] = {}
        if coeffs:
            for (a, b), c in coeffs.items():
                if a + b != N + 1 or a < 1 or b < 1:
                    raise ValueError(f"monomial h1^{a} h2^{b} invalid for N={N}")
                if c:
                    clean[(a, b)] = clean.get((a, b), 0) + c
        self.coeffs = clean

    def coefficient(self, a: int, b: int | None = None) -> int:
        if b is None:
            b = self.N + 1 - a
        return self.coeffs.get((a, b), 0)

    def dense(self) -> tuple[int, ...]:
        """Coefficients by descending h1 exponent: h1^N h2, ..., h1 h2^N."""
        return tuple(self.coefficient(a) for a in range(self.N, 0, -1))

    @classmethod
    def from_dense(cls, N: int, values) -> "BiProjClass":
        values = list(values)
        if len(values) != N:
            raise ValueError(f"expected {N} coefficients, got {len(values)}")
        return cls(N, {(N - i, i + 1): v for i, v in enumerate(values) if v})

    def dagger(self) -> "BiProjClass":
        """Swap the h1 and h2 exponents of every monomial (an involution)."""
        return BiProjClass(self.N, {(b, a): c for (a, b), c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "BiProjClass") -> "BiProjClass":
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return BiProjClass(self.N, out)

    def __sub__(self, other: "BiProjClass") -> "BiProjClass":
        return self + (-1) * other

    def __mul__(self, scalar: int) -> "BiProjClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return BiProjClass(self.N, {key: c * scalar for key, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, BiProjClass) and self.N == other.N and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.N, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = [f"{c}*h1^{a}h2^{b}" for (a, b), c in sorted(self.coeffs.items(), reverse=True)]
        return " + ".join(bits)

    def _check(self, other: "BiProjClass") -> None:
        if self.N != other.N:
            raise ValueError("ambient mismatch")


def dagger(x: BiProjClass) -> BiProjClass:
    return x.dagger()


def ch_from_class(c: ProjClass) -> BiProjClass:
    """Characteristic-cycle class of a constructible function from its
    Chern class transform: with gamma_l the coefficient of [P^l], the
    result is sum over j of sum_{l >= j-1} (-1)^l gamma_l binom(l+1, j)
    on the monomial h1^(N+1-j) h2^j."""
    N = c.ambient_dim
    out: dict[tuple[int, int], int] = {}
    gamma = c.coeffs
    for j in range(1, N + 1):
        total = 0
        for l in range(j - 1, N):
            g = gamma[l]
            if g:
                total += (-1) ** l * g * binom(l + 1, j)
        if total:
            out[(N + 1 - j, j)] = total
    return BiProjClass(N, out)


def _check_params(m: int, n: int, k: int) -> None:
    if not (1 <= k <= n - 1 <= m - 1):
        raise ParameterError(f"need 1 <= k <= n-1 <= m-1, got m={m} n={n} k={k}")


_CON_CACHE: dict[tuple[int, int, int], BiProjClass] = {}


def conormal(m: int, n: int, k: int) -> BiProjClass:
    """Projectivized conormal cycle of tau(m, n, k): the characteristic
    cycle of its local Euler obstruction, normalized by (-1)^dim so all
    coefficients are nonnegative polar degrees."""
    _check_params(m, n, k)
    key = (m, n, k)
    hit = _CON_CACHE.get(key)
    if hit is None:
        sign = (-1) ** variety_dim(m, n, k)
        hit = sign * ch_from_class(cm_class(m, n, k))
        _CON_CACHE[key] = hit
    return hit


def _euler_to_indicator_sign(m: int, n: int, k: int, i: int) -> int:
    # sign carried by Con(tau_{m,n,k+i}) inside a characteristic cycle:
    # (-1)^i from the change of basis times (-1)^dim from ch(Eu) = +-Con
    return (-1) ** (i + variety_dim(m, n, k + i))


def charcycle(m: int, n: int, k: int) -> BiProjClass:
    """Characteristic cycle of the closed variety tau(m, n, k)."""
    _check_params(m, n, k)
    out = BiProjClass(m * n - 1)
    for i in range(n - k):
        coeff = binom(k + i - 1, k - 1) * _euler_to_indicator_sign(m, n, k, i)
        if coeff:
            out = out + coeff * conormal(m, n, k + i)
    return out


def charcycle_open(m: int, n: int, k: int) -> BiProjClass:
    """Characteristic cycle of the open stratum of kernel dimension k."""
    _check_params(m, n, k)
    out = BiProjClass(m * n - 1)
    for i in range(n - k):
        coeff = binom(k + i, k) * _euler_to_indicator_sign(m, n, k, i)
        if coeff:
            out = out + coeff * conormal(m, n, k + i)
    return out


def polar_degrees(m: int, n: int, k: int) -> list[int]:
    """Polar degrees delta_0..delta_d of tau(m, n, k).

    Primary route: read the conormal-cycle coefficient at
    h1^(codim+l) h2^(mn-codim-l).  Secondary route: the polar-class degree
    sums over the Chern-Mather coefficients.  The routes must agree.
    """
    _check_params(m, n, k)
    N = m * n - 1
    d = variety_dim(m, n, k)
    codim = N - d
    con = conormal(m, n, k)
    from_con = [con.coefficient(codim + l) for l in range(d + 1)]
    beta = cm_class(m, n, k).coeffs
    from_polar = []
    for l in range(d + 1):
        total = 0
        for i in range(l + 1):
            total += (-1) ** i * binom(d - i + 1, d - l + 1) * beta[d - i]
        from_polar.append(total)
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
    proper subvarieties carry no fundamental-class component)."""
    N = len(q) - 1
    out = [0] * (N + 1)
    for j, qj in enumerate(q):
        if qj == 0:
            continue
        # (-1-t)^j = (-1)^j sum_s binom(j, s) t^s
        sign = (-1) ** j
        for s in range(j + 1):
            out[s] += sign * qj * binom(j, s)
    q_at_minus1 = sum(qj * (-1) ** j for j, qj in enumerate(q))
    if q_at_minus1:
        for s in range(N + 1):
            out[s] -= q_at_minus1 * binom(N + 1, s)
    return tuple(out)


def dual_cm(c: ProjClass, dim_x: int) -> ProjClass:
    """Chern-Mather class of the dual variety, from the involution on the
    hyperplane-power representation of the input class."""
    N = c.ambient_dim
    sign = (-1) ** dim_x
    q = tuple(sign * v for v in c.h_coefficients())
    r = involution_dual(q)
    if not any(r):
        return ProjClass(N)
    low = next(j for j, v in enumerate(r) if v)
    dim_dual = N - low
    out_sign = (-1) ** dim_dual
    return ProjClass.from_h_coefficients(tuple(out_sign * v for v in r))


@dataclass
class SymmetryReport:
    """Pass/fail results for the flip symmetries of characteristic cycles."""

    m: int
    n: int
    checks: list[tuple[str, bool]] = field(default_factory=list)

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
