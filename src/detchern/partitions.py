"""Integer partitions and the Littlewood-Richardson rule.

Partitions are plain tuples of weakly decreasing positive integers, with
trailing zeros stripped.  The LR expansion computed here is universal (no
box restriction); callers working in a Grassmannian Chow ring filter the
result against their box after lookup.  One kernel computes every product:
s_lam * s_mu adds one horizontal strip per row of mu, the strip of value v
bounded by the lattice slack that value v-1 left, and counts the chains of
shapes; a strip fills the rows below the first, and the first row takes
the rest.  A one-row factor is a single strip (Pieri rule), the only
factor the engine asks for; a tall factor runs one strip per row like any
other.  lr_expansion normalizes its
arguments and then looks the expansion up in a cache that is shared
process-wide and lives in memory only; it holds read-only views, so no
caller can change a later product.  lr_cache_export/lr_cache_import
snapshot it as plain dicts and seed it.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate
from math import comb
from types import MappingProxyType

from .errors import plain_ints

Partition = tuple[int, ...]


def binom(a: int, b: int) -> int:
    """Binomial coefficient with binom(a, b) = 0 for a < b, a < 0 or b < 0."""
    if a < 0 or b < 0 or a < b:
        return 0
    return comb(a, b)


def normalize(parts) -> Partition:
    """Validate weak decrease and strip trailing zeros.  Every part must be
    a plain int (errors.plain_ints): a float, a str or a bool is a
    TypeError, not converted."""
    parts = tuple(parts)
    if not plain_ints(*parts):
        raise TypeError(f"a part of {parts} is not an int")
    for left, right in zip(parts, parts[1:]):
        if left < right:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def fits_in(lam: Partition, rows: int, cols: int) -> bool:
    """True iff the diagram of lam fits in a rows x cols rectangle."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def partitions_in_box(rows: int, cols: int) -> tuple[Partition, ...]:
    """All partitions fitting in a rows x cols rectangle, lexicographically
    sorted: each prefix comes before its extensions, which take their next
    part in ascending order, so the recursion emits that order itself."""
    out: list[Partition] = []

    def build(prefix: list[int], maxpart: int, depth: int) -> None:
        out.append(tuple(prefix))
        if depth == rows:
            return
        for p in range(1, maxpart + 1):
            prefix.append(p)
            build(prefix, p, depth + 1)
            prefix.pop()

    build([], cols, 0)
    return tuple(out)


# Universal LR expansions as read-only views, keyed by the normalized (lam, mu).
_LR_CACHE: dict[tuple[Partition, Partition], Mapping[Partition, int]] = {}


def _horizontal_strips(lam: Partition, r: int, above: list[int] | None = None) -> list[Partition]:
    """Partitions nu containing lam such that nu/lam is a horizontal strip of
    r cells: row i grows by at most lam[i-1] - lam[i], the first row freely.
    With `above` (the cells each row of lam gained from the previous value of
    an LR chain), row i also grows by at most its lattice slack: the cells the
    rows above it gained from the previous value minus the cells they gain now.
    The rows below the first are filled first and the first row takes the
    remainder: its room is r for a Pieri strip and 0 under the lattice bound,
    so no Pieri branch dies at a leaf."""
    padded = lam + (0,)
    caps = [r if above is None else 0] + [padded[i - 1] - padded[i] for i in range(1, len(padded))]
    # The slack of row i > 0 is sum(above[:i]) - (r - remaining), so the room
    # left is min(caps[i], remaining + lattice[i]); lattice 0 leaves only caps.
    # The first row gains nothing under the bound, so the rows below it see
    # the same remaining cells as when it is filled first.
    lattice = [0] * len(padded) if above is None else [min(p - r, 0) for p in accumulate(above, initial=0)]
    out: list[Partition] = []

    def build(row: int, remaining: int, acc: list[int]) -> None:
        if row == len(padded):
            if remaining <= caps[0]:
                nu = (padded[0] + remaining, *acc)
                out.append(nu if nu[-1] else nu[:-1])
            return
        for add in range(min(caps[row], remaining + lattice[row]) + 1):
            acc.append(padded[row] + add)
            build(row + 1, remaining - add, acc)
            acc.pop()

    build(1, r, [])
    return out


def _lr_chains(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """c^nu_{lam,mu} as the number of chains lam = nu_0 < nu_1 < ... < nu_l = nu
    in which nu_v / nu_(v-1) is a horizontal strip of mu[v-1] cells (the cells
    of an LR tableau holding v) within the lattice slack left by value v-1.
    Chains are counted by shape pairs (nu_(v-1), nu_v), which fix that slack."""
    if len(mu) == 1:  # Pieri: a single strip, no lattice bound
        return dict.fromkeys(_horizontal_strips(lam, mu[0]), 1)
    chains = {(lam, nu): 1 for nu in _horizontal_strips(lam, mu[0])}
    for r in mu[1:]:
        grown: dict[tuple[Partition, Partition], int] = {}
        for (prev, cur), count in chains.items():
            above = [c - (prev[i] if i < len(prev) else 0) for i, c in enumerate(cur)]
            for nu in _horizontal_strips(cur, r, above):
                grown[cur, nu] = grown.get((cur, nu), 0) + count
        chains = grown
    out: dict[Partition, int] = {}
    for (_, nu), count in chains.items():
        out[nu] = out.get(nu, 0) + count
    return out


def lr_expansion(lam, mu) -> Mapping[Partition, int]:
    """Expansion of the product of Schur functions s_lam * s_mu in the Schur
    basis: a read-only map nu -> c^nu_{lam,mu} over the nonzero LR
    coefficients.  Both arguments (tuples, lists, trailing zeros) are
    normalized, and the normalized pair is looked up once.  An empty mu
    gives {lam: 1}; an empty lam needs no branch, as the chain of strips
    of mu's rows from the empty shape is mu alone."""
    lam = normalize(lam)
    mu = normalize(mu)
    key = (lam, mu)
    hit = _LR_CACHE.get(key)
    if hit is not None:
        return hit
    result = _lr_chains(lam, mu) if mu else {lam: 1}
    _LR_CACHE[key] = result = MappingProxyType(result)
    return result


def lr_cache_export() -> dict[tuple[Partition, Partition], dict[Partition, int]]:
    """Snapshot of the process-wide LR cache."""
    return {k: dict(v) for k, v in _LR_CACHE.items()}


def lr_cache_import(entries: dict[tuple[Partition, Partition], dict[Partition, int]]) -> None:
    """Seed the LR cache with read-only copies; existing keys are kept
    (values are deterministic)."""
    for key, value in entries.items():
        _LR_CACHE.setdefault(key, MappingProxyType(dict(value)))
