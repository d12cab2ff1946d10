"""Exact solver for the microlocal index linear system.

The stratification of P^(mn-1) by kernel dimension gives a unit
lower-triangular system relating stalk Euler characteristics, local Euler
obstructions between strata, and the multiplicities of conormal cycles in
the characteristic cycle of the intersection-cohomology sheaf.  Forward
substitution over plain integers solves it exactly.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .classes import StrataVector
from .errors import ConsistencyError, ParameterError, check_params, plain_ints
from .lagrangian import BiProjClass, conormal
from .partitions import binom


class IndexSystem(FrozenRecord):
    """chi = e . r with e unit lower-triangular over the strata 0..n-1."""

    __slots__ = ("chi", "e")

    def __init__(self, chi: tuple[int, ...], e: tuple[tuple[int, ...], ...]):
        self._freeze(chi, e)

    @property
    def strata_count(self) -> int:
        return len(self.chi)

    def validate(self) -> None:
        n = self.strata_count
        if len(self.e) != n or any(len(row) != n for row in self.e):
            raise ValueError("obstruction matrix shape does not match strata count")
        for j in range(n):
            if self.e[j][j] != 1:
                raise ValueError(f"diagonal entry e({j},{j}) must be 1")
            for i in range(j + 1, n):
                if self.e[j][i] != 0:
                    raise ValueError(f"entry e({j},{i}) above the diagonal must be 0")


def stalk_euler(m: int, n: int, k: int) -> StrataVector:
    """Stalk Euler characteristics of the intersection-cohomology sheaf of
    tau(m, n, k) on the strata j = 0..n-1: binom(j, k)."""
    check_params(m, n, k)
    return StrataVector(0, tuple(binom(j, k) for j in range(n)))


def obstruction_matrix(n: int) -> list[list[int]]:
    """Local Euler obstructions between strata closures: entry (j, i) is
    binom(j, i), a unit lower-triangular Pascal matrix."""
    if not (plain_ints(n) and n >= 1):
        raise ParameterError(f"need an int n >= 1, got {n!r}")
    return [[binom(j, i) for i in range(n)] for j in range(n)]


def determinantal_system(m: int, n: int, k: int) -> IndexSystem:
    chi = stalk_euler(m, n, k)
    e = obstruction_matrix(n)
    return IndexSystem(tuple(chi.values), tuple(tuple(row) for row in e))


def solve_multiplicities(system: IndexSystem) -> StrataVector:
    """Exact integer solution of e . r = chi by forward substitution."""
    system.validate()
    n = system.strata_count
    r = [0] * n
    for j in range(n):
        acc = system.chi[j]
        for i in range(j):
            acc -= system.e[j][i] * r[i]
        r[j] = acc
    return StrataVector(0, tuple(r))


def ic_char_cycle(m: int, n: int, k: int) -> BiProjClass:
    """Characteristic cycle of the intersection-cohomology sheaf of
    tau(m, n, k): the conormal-cycle combination weighted by the solved
    microlocal multiplicities.  Must coincide with the conormal cycle of
    the variety itself (the cycle is irreducible)."""
    r = solve_multiplicities(determinantal_system(m, n, k))
    if r[0] != 0:
        raise ConsistencyError(
            f"ambient stratum received nonzero multiplicity {r[0]} for ({m},{n},{k})"
        )
    out = BiProjClass(m * n - 1)
    for i in range(1, n):
        if r[i]:
            out = out + r[i] * conormal(m, n, i)
    expected = conormal(m, n, k)
    if out != expected:
        raise ConsistencyError(
            f"microlocal combination differs from the conormal cycle for ({m},{n},{k})"
        )
    return out
