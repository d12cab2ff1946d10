"""Characteristic classes of determinantal varieties in projective space.

tau(m, n, k) is the variety of m x n matrices (up to scalar, m >= n) of
kernel dimension >= k inside P^(mn-1).  This module computes its
Chern-Mather class, the Chern-Schwartz-MacPherson classes of the variety
and of its open strata, local Euler obstructions, and (for the
hypersurface case) the Chern-Fulton and Milnor classes.  All classes live
in the Chow group of P^(mn-1) and are stored little-endian over the basis
[P^0], ..., [P^N]; the reversal to hyperplane-power coefficients happens in
exactly one place (ProjClass.h_coefficients / from_h_coefficients).

Main routes: cm_class and chern_fulton_hypersurface, polynomial maps in
the hyperplane class H.  Check route: cm_class_via_trace, the literal
trace of A * H * b_matrix over the nonzero entries of A, which shares no
contraction code with them.  Gate: check_closed_forms, the closed forms
that share no code with the engine (the Giambelli-Thom-Porteous degree
porteous_degree at [P^dim] and the Euler characteristic at [P^0]); the CLI
applies it to every entry of cm.json it loads and to every class --check
computes.

cm_class and at_minus_one_minus_t (the substitution t -> -1-t behind the
characteristic cycles and the dual involution) are Kronecker
substitutions: Horner's rule runs on one integer at X = 2^B, and the
balanced base-X digits of the result (_balanced_digits) are the output
coefficients.  A digit is exact while its coefficient lies in (-X/2, X/2).
Every output coefficient is a signed sum of inputs c times binomials
binom(j, .), j <= top (the degree), each at most 2^top, so its absolute
value is at most 2^top sum |c| < 2^(b+top+1), b the bit length of sum |c|
(cm_class) or of the largest |c| (at_minus_one_minus_t, through sum_j 2^j
< 2^(top+1)); B = b + top + 2 is enough, rounded up to whole bytes
(_digit_width), and each digit is read as one signed little-endian slice.

ProjClass and lagrangian.BiProjClass are both dense integer tuples and
share their linear operations through CoeffVector.  The c_SM classes of
tau(m, n, k) and of its open stratum, and the characteristic cycles in
lagrangian, are all one alternating binomial sum over the deeper strata,
written once in strata_sum.
"""

from __future__ import annotations

from math import comb, factorial, prod
from operator import add, neg

from ._record import FrozenRecord
from .errors import ConsistencyError, ParameterError, check_params
from .partitions import binom
from .schubert import Box, a_matrix


class CoeffVector:
    """Dense integer coefficient vector over a basis indexed by an ambient
    dimension; subclasses fix how many coefficients that dimension has
    (ambient_dim + _EXTRA) and how to read them."""

    __slots__ = ("coeffs",)
    _EXTRA = 0

    def __init__(self, ambient_dim: int, coeffs=None):
        size = ambient_dim + self._EXTRA
        coeffs = (0,) * size if coeffs is None else tuple(int(c) for c in coeffs)
        if len(coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    def _new(self, coeffs):
        """A vector of the same type and ambient dimension; no validation."""
        out = object.__new__(type(self))
        out.coeffs = tuple(coeffs)
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        if type(other) is not type(self) or len(other.coeffs) != len(self.coeffs):
            raise ValueError("ambient dimension mismatch")
        return self._new(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._new(map(neg, self.coeffs))

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return self._new([a * scalar for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


class ProjClass(CoeffVector):
    """Integer class in the Chow group of P^N, coefficients over [P^l]."""

    __slots__ = ()
    _EXTRA = 1

    @property
    def ambient_dim(self) -> int:
        return len(self.coeffs) - 1

    # The single conversion point between the [P^l] basis and powers of the
    # hyperplane class: coefficient of H^j equals coefficient of [P^(N-j)].
    def h_coefficients(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))

    @classmethod
    def from_h_coefficients(cls, hcoeffs) -> "ProjClass":
        hcoeffs = list(hcoeffs)
        return cls(len(hcoeffs) - 1, list(reversed(hcoeffs)))

    def coefficient(self, l: int) -> int:
        return self.coeffs[l] if 0 <= l <= self.ambient_dim else 0

    def __repr__(self):
        return f"ProjClass({list(self.coeffs)})"


class StrataVector(FrozenRecord):
    """Integers indexed by strata lo..lo+len(values)-1 of the rank filtration."""

    __slots__ = ("lo", "values")

    def __init__(self, lo: int, values: tuple[int, ...]):
        self._freeze(lo, values)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __getitem__(self, stratum: int) -> int:
        if not (self.lo <= stratum <= self.hi):
            raise IndexError(f"stratum {stratum} outside {self.lo}..{self.hi}")
        return self.values[stratum - self.lo]


def variety_dim(m: int, n: int, k: int) -> int:
    """dim tau(m, n, k) = (m+k)(n-k) - 1."""
    return (m + k) * (n - k) - 1


def porteous_degree(m: int, n: int, k: int) -> int:
    """Degree of tau(m, n, k) by the Giambelli-Thom-Porteous formula,
    prod_{i<k} i! (m+i)! / ((n-k+i)! (m-n+k+i)!)."""
    num = prod(factorial(i) * factorial(m + i) for i in range(k))
    den = prod(factorial(n - k + i) * factorial(m - n + k + i) for i in range(k))
    return num // den


def check_closed_forms(name: str, m: int, n: int, k: int, coeffs: tuple[int, ...]) -> None:
    """The one gate on closed forms that share no code with the Schubert
    engine, for the `cm`, `csm` or `csm_open` class of tau(m, n, k) (`name`):
    every class has the Porteous degree at [P^dim], and each has its Euler
    characteristic at [P^0].  The torus scaling rows and columns fixes only
    the mn matrix units, all of rank one, so that is mn times the Euler
    obstruction binom(n-1, k) on the rank-one stratum for c_M, mn for the
    closed variety, and for the open stratum mn when k = n-1, 0 otherwise."""
    d, degree = variety_dim(m, n, k), porteous_degree(m, n, k)
    euler = {"cm": m * n * comb(n - 1, k), "csm": m * n, "csm_open": m * n if k == n - 1 else 0}[name]
    if coeffs[d] != degree:
        raise ConsistencyError(f"{name} of ({m},{n},{k}) has {coeffs[d]} at [P^{d}], not the degree {degree}")
    if coeffs[0] != euler:
        raise ConsistencyError(
            f"{name} of ({m},{n},{k}) has {coeffs[0]} at [P^0], not the Euler characteristic {euler}"
        )


def check_strata(n: int, k: int) -> None:
    """Refuse, before any work, the first stratum box j x (n-j) past the cell
    limit, j = max(k, 1)..n-1; G(0, n) is a point and has no box."""
    for j in range(max(k, 1), n):
        Box.check(j, n - j)


def strata_sum(n: int, k: int, open_stratum: bool, term, zero):
    """sum_i (-1)^i w_i term(k+i) over the strata k+i = k..n-1, with
    w_i = binom(k+i, k) for the open stratum of kernel dimension exactly k
    and w_i = binom(k+i-1, k-1) for the closure tau(m, n, k).  Every
    stratum's box is checked before the first term.  `zero` fixes the
    vector type and size; a term of another type or size is a ValueError
    from CoeffVector.__add__."""
    check_strata(n, k)
    total = zero
    for i in range(n - k):
        w = binom(k + i, k) if open_stratum else binom(k + i - 1, k - 1)
        total = total + (-w if i & 1 else w) * term(k + i)
    return total


def at_minus_one_minus_t(p) -> list[int]:
    """Coefficients of p(-1-t) from those of p(t) (index = power, same
    length), as a Kronecker substitution (module docstring): Horner's rule
    q <- c + q (-1-X) runs from the highest nonzero coefficient down (a
    class of a d-dimensional variety is zero above [P^d])."""
    top = len(p) - 1
    while top >= 0 and not p[top]:
        top -= 1
    if top < 0:
        return [0] * len(p)
    width = _digit_width(max(map(int.bit_length, p)) + top + 2)  # bit_length ignores the sign
    shift = 8 * width
    q = 0
    for c in reversed(p[: top + 1]):
        q = c - q - (q << shift)
    return _balanced_digits(q, width, top + 1) + [0] * (len(p) - top - 1)


def _digit_width(bits: int) -> int:
    """Bytes per Kronecker digit of at least `bits` bits: the whole bytes
    that hold them."""
    return (bits + 7) // 8


def _balanced_digits(q: int, width: int, count: int) -> list[int]:
    """The lowest `count` balanced digits of q in base X = 2^(8 width), each
    inside (-X/2, X/2): adding X/2 to every digit makes them all
    nonnegative, so they are the bytes of u = (q + sum_s X^s X/2) mod X^count,
    and flipping the top bit of each digit of u reads back digit - X/2 as a
    signed little-endian slice of `width` bytes."""
    size = width * count
    halves = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = (((q + halves) & ((1 << 8 * size) - 1)) ^ halves).to_bytes(size, "little")
    return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, size, width)]


def b_matrix(m: int, n: int, k: int) -> list[list[int]]:
    """Square binomial matrix of size m(n-k)+1 with entry (i, p) equal to
    binom(m(n-k)-p, i-p); vanishes above the diagonal (i < p)."""
    check_params(m, n, k)
    size = m * (n - k) + 1
    top = m * (n - k)
    return [[binom(top - p, i - p) for p in range(size)] for i in range(size)]


_CM_CACHE: dict[tuple[int, int, int], ProjClass] = {}


def cm_class(m: int, n: int, k: int) -> ProjClass:
    """Chern-Mather class of tau(m, n, k) pushed to P^(mn-1): with
    top = m(n-k), sum_i (1+H)^(top-i) sum_p A[i][p] H^(mk+i-p) mod H^mn.
    A[i][p] = 0 unless i <= p <= dim = k(n-k) <= mk, and a_matrix returns
    only that (dim+1)^2 corner, so that is
    H^(mk-dim) (1+H)^(top-dim) sum_i (1+H)^(dim-i) r_i over i <= dim, with
    r_i = sum_p A[i][p] H^(dim+i-p): a Kronecker substitution (module
    docstring) that runs Horner's rule q <- q + qX + r_i and multiplies once
    by the packed row of binom(top-dim, j).  Each coefficient is a sum of
    A[i][p] binom(top-i, .).  For k = 0, G(0, n) is a point and A = [[1]].
    The box cell limit applies to a memoized class too."""
    check_params(m, n, k, k_min=0)
    if k:
        Box.check(k, n - k)
    key = (m, n, k)
    hit = _CM_CACHE.get(key)
    if hit is not None:
        return hit
    top, dim = m * (n - k), k * (n - k)
    corner = a_matrix(m, n, k) if k else [[1]]
    width = _digit_width(sum(abs(a) for row in corner for a in row).bit_length() + top + 2)
    shift = 8 * width
    q = 0
    for i, row in enumerate(corner):
        r = 0
        for a in row[i:]:  # A[i][p] goes to X^(dim+i-p)
            r = (r << shift) + a
        q += (q << shift) + (r << shift * i)
    c, packed = 1, []  # binom(top-dim, j) by the row recurrence
    for j in range(top - dim + 1):
        packed.append(c.to_bytes(width, "little"))
        c = c * (top - dim - j) // (j + 1)
    q *= int.from_bytes(b"".join(packed), "little")
    out = ProjClass.from_h_coefficients([0] * (m * k - dim) + _balanced_digits(q, width, top + dim))
    _CM_CACHE[key] = out
    return out


def cm_class_via_trace(m: int, n: int, k: int) -> ProjClass:
    """Cross-check path: literal trace of A * H * B over the truncated
    polynomial ring Z[H]/(H^mn), where H is the matrix [H^(mk+j-i)] and B
    is b_matrix.  A is read as a_matrix returns it, its (dim+1)^2 corner:
    the rest of the m(n-k)+1 square is zero and adds nothing to the trace.
    Only the nonzero entries A[i][p] are visited, each against the nonzero
    entries B[j][i] = binom(top-i, j-i), j >= i, of column i, so the cost is
    nnz(A) (top+1) binomials.  A monomial with a negative exponent needs
    p > mk + j >= dim, outside the corner, so one that survives means A
    has a nonzero entry where the paper's matrix has none."""
    check_params(m, n, k)
    N, top = m * n - 1, m * (n - k)
    trace: dict[int, int] = {}
    for i, row in enumerate(a_matrix(m, n, k)):
        for p, a in enumerate(row):
            if a:
                # entry (i, j) of A*H is sum_p A[i][p] H^(mk+j-p), and B[j][i] is 0 for j < i
                for j in range(i, top + 1):
                    e = m * k + j - p
                    if e <= N:  # truncate H^mn and above
                        trace[e] = trace.get(e, 0) + a * binom(top - i, j - i)
    for e, c in trace.items():
        if c and e < 0:
            raise ConsistencyError(f"negative hyperplane power survived: H^{e}")
    return ProjClass.from_h_coefficients([trace.get(e, 0) for e in range(N + 1)])


def csm_class(m: int, n: int, k: int) -> ProjClass:
    """Chern-Schwartz-MacPherson class of the closed variety tau(m, n, k):
    alternating binomial combination of the Chern-Mather classes of the
    deeper strata closures."""
    check_params(m, n, k, k_min=0)
    if k == 0:
        return cm_class(m, n, 0)
    return strata_sum(n, k, False, lambda j: cm_class(m, n, j), ProjClass(m * n - 1))


def csm_open(m: int, n: int, k: int) -> ProjClass:
    """Chern-Schwartz-MacPherson class of the open stratum (matrices of
    kernel dimension exactly k)."""
    check_params(m, n, k, k_min=0)
    return strata_sum(n, k, True, lambda j: cm_class(m, n, j), ProjClass(m * n - 1))


def euler_obstruction(m: int, n: int, k: int) -> StrataVector:
    """Local Euler obstruction of tau(m, n, k): binom(k+i, i) on the
    stratum of kernel dimension exactly k+i."""
    check_params(m, n, k)
    return StrataVector(k, tuple(binom(k + i, i) for i in range(n - k)))


def chern_fulton_hypersurface(n: int) -> ProjClass:
    """Chern-Fulton class of the degree-n determinant hypersurface in
    P^(n^2-1): sum_j h_j H^j = nH (1+H)^(n^2) / (1+nH) mod H^(n^2), so
    h_0 = 0 and h_j = n binom(n^2, j-1) - n h_(j-1)."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    h = [0]
    for j in range(1, n * n):
        h.append(n * binom(n * n, j - 1) - n * h[-1])
    return ProjClass.from_h_coefficients(h)


def milnor_class(n: int) -> ProjClass:
    """Milnor class of the determinant hypersurface: the signed difference
    (-1)^dim (c_Fulton - c_SM), supported on the singular locus."""
    sign = (-1) ** (n * n - 2)
    return sign * (chern_fulton_hypersurface(n) - csm_class(n, n, 1))


def cm_cache_export() -> dict[tuple[int, int, int], tuple[int, ...]]:
    return {key: cls.coeffs for key, cls in _CM_CACHE.items()}


def cm_cache_import(entries: dict[tuple[int, int, int], tuple[int, ...]]) -> None:
    for key, coeffs in entries.items():
        _CM_CACHE.setdefault(key, ProjClass(len(coeffs) - 1, coeffs))
