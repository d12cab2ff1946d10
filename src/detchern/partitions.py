"""Integer partitions and the Littlewood-Richardson rule.

Partitions are plain tuples of weakly decreasing positive integers, with
trailing zeros stripped.  The LR expansion computed here is universal (no
box restriction); callers working in a Grassmannian Chow ring filter the
result against their box after lookup.  A single row or column factor is
expanded by the Pieri rule (adding a horizontal or vertical strip); any
other pair by counting LR tableaux.  The expansion cache is shared
process-wide and lives in memory only; lr_cache_export/lr_cache_import
snapshot and seed it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

Partition = tuple[int, ...]


def binom(a: int, b: int) -> int:
    """Binomial coefficient with binom(a, b) = 0 for a < b, a < 0 or b < 0."""
    if a < 0 or b < 0 or a < b:
        return 0
    return comb(a, b)


def normalize(parts) -> Partition:
    """Validate weak decrease and strip trailing zeros."""
    parts = tuple(int(p) for p in parts)
    for left, right in zip(parts, parts[1:]):
        if left < right:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def weight(lam: Partition) -> int:
    return sum(lam)


def fits_in(lam: Partition, rows: int, cols: int) -> bool:
    """True iff the diagram of lam fits in a rows x cols rectangle."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


@lru_cache(maxsize=None)
def partitions_in_box(rows: int, cols: int) -> tuple[Partition, ...]:
    """All partitions fitting in a rows x cols rectangle, lexicographically sorted."""
    out: list[Partition] = []

    def build(prefix: list[int], maxpart: int, depth: int) -> None:
        out.append(tuple(prefix))
        if depth == rows:
            return
        for p in range(maxpart, 0, -1):
            prefix.append(p)
            build(prefix, p, depth + 1)
            prefix.pop()

    build([], cols, 0)
    return tuple(sorted(out))


# Universal LR expansions, keyed by the (lam, mu) pair exactly as requested.
_LR_CACHE: dict[tuple[Partition, Partition], dict[Partition, int]] = {}


def _candidate_shapes(lam: Partition, mu: Partition) -> list[Partition]:
    """Partitions nu containing lam with |nu| = |lam| + |mu| that could carry
    a nonzero LR coefficient (first-part and length bounds applied)."""
    total = weight(lam) + weight(mu)
    maxlen = len(lam) + len(mu)
    maxfirst = (lam[0] if lam else 0) + (mu[0] if mu else 0)
    suffix = [0] * (len(lam) + 1)
    for i in range(len(lam) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + lam[i]
    out: list[Partition] = []

    def build(row: int, prev: int, remaining: int, acc: list[int]) -> None:
        if remaining == 0:
            if row >= len(lam):
                out.append(tuple(acc))
            return
        if row >= maxlen:
            return
        lo = max(lam[row] if row < len(lam) else 0, 1)
        hi = min(prev, remaining - (suffix[row + 1] if row + 1 <= len(lam) else 0))
        for r in range(lo, hi + 1):
            acc.append(r)
            build(row + 1, r, remaining - r, acc)
            acc.pop()

    build(0, maxfirst, total, [])
    return out


def _horizontal_strips(lam: Partition, r: int) -> list[Partition]:
    """Partitions nu containing lam such that nu/lam is a horizontal strip of
    r cells: row i grows by at most lam[i-1] - lam[i], the first row freely."""
    padded = lam + (0,)
    out: list[Partition] = []

    def build(row: int, remaining: int, acc: list[int]) -> None:
        if row == len(padded):
            if remaining == 0:
                out.append(tuple(acc) if acc[-1] else tuple(acc[:-1]))
            return
        room = remaining if row == 0 else min(remaining, padded[row - 1] - padded[row])
        for add in range(room + 1):
            acc.append(padded[row] + add)
            build(row + 1, remaining - add, acc)
            acc.pop()

    build(0, r, [])
    return out


def _count_lr_tableaux(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Number of column-strict fillings of nu/lam with content mu whose
    reverse reading word (rows top to bottom, each right to left) is a
    lattice word.  Cells are filled in reading order so the lattice
    condition prunes immediately."""
    ell = len(mu)
    cells: list[tuple[int, int]] = []
    for i, top in enumerate(nu):
        lo = lam[i] if i < len(lam) else 0
        for c in range(top - 1, lo - 1, -1):
            cells.append((i, c))
    grid: dict[tuple[int, int], int] = {}
    need = list(mu)
    counts = [0] * (ell + 1)

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, c = cells[idx]
        vmax = grid.get((i, c + 1), ell)
        vmin = grid.get((i - 1, c), 0) + 1
        total = 0
        for v in range(vmin, vmax + 1):
            if need[v - 1] == 0:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            need[v - 1] -= 1
            grid[(i, c)] = v
            total += place(idx + 1)
            counts[v] -= 1
            need[v - 1] += 1
            del grid[(i, c)]
        return total

    return place(0)


def lr_expansion(lam, mu) -> dict[Partition, int]:
    """Expansion of the product of Schur functions s_lam * s_mu in the Schur
    basis: a map nu -> c^nu_{lam,mu} over the nonzero LR coefficients."""
    if type(lam) is tuple and type(mu) is tuple:
        hit = _LR_CACHE.get((lam, mu))
        if hit is not None:
            return hit
    lam = normalize(lam)
    mu = normalize(mu)
    key = (lam, mu)
    hit = _LR_CACHE.get(key)
    if hit is not None:
        return hit
    if not mu:
        result = {lam: 1}
    elif not lam:
        result = {mu: 1}
    elif len(mu) == 1:  # Pieri: s_lam s_(r) adds a horizontal strip
        result = dict.fromkeys(_horizontal_strips(lam, mu[0]), 1)
    elif mu[0] == 1:  # and s_lam s_(1^c) a vertical one
        result = dict.fromkeys((conjugate(nu) for nu in _horizontal_strips(conjugate(lam), len(mu))), 1)
    else:
        result = {}
        for nu in _candidate_shapes(lam, mu):
            c = _count_lr_tableaux(nu, lam, mu)
            if c:
                result[nu] = c
    _LR_CACHE[key] = result
    return result


def lr_cache_export() -> dict[tuple[Partition, Partition], dict[Partition, int]]:
    """Snapshot of the process-wide LR cache."""
    return {k: dict(v) for k, v in _LR_CACHE.items()}


def lr_cache_import(entries: dict[tuple[Partition, Partition], dict[Partition, int]]) -> None:
    """Seed the LR cache; existing keys are kept (values are deterministic)."""
    for key, value in entries.items():
        _LR_CACHE.setdefault(key, dict(value))
