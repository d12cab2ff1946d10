"""Exact Chow-ring arithmetic for the Grassmannian G(k, n).

Classes are stored in the Schubert basis: a map from partitions fitting in
the k x (n-k) box to arbitrary-precision integers.  A product looks up the
universal Littlewood-Richardson expansion of each pair of terms and keeps
the partitions that fit the box (pairs whose degrees add up past the box
dimension are not expanded at all); the expansion is a chain of horizontal
strips, a single one (the Pieri rule) for a row class.  On top of
the ring the module provides the Chern classes of the universal bundles,
Chern classes of their m-fold (dualized) direct sums, the total Chern class
of the tangent bundle from its power sums (Murnaghan-Nakayama rule, one
bead pass per shape for every power, and Newton's identities, no LR
products; for a tall box read off the transposed one; the terms t and
i-t of p_i(T) cancel
for odd i, leaving n p_i(x), and coincide for even i), the degree map,
and the matrix of degrees of tangent-twisted products of those Chern
classes that drives the characteristic-class formulas downstream.  That
matrix is kept as its (dim+1)^2 corner, dim = k(n-k), the only block of
the paper's (m(n-k)+1)^2 matrix that can be nonzero; it takes no
products of classes: its rows come from c(T_G) in one pass of Miller's
recurrence for c(Q*)^m, on
dense lists over the shape indices of partitions_in_box, with row Pieri
steps s_(e), e <= min(k, n-k), in the tall or square box
max(k, n-k) x min(k, n-k).  A wide box (k < n-k) flips the matrix of
G(n-k, n) once: W -> W^perp swaps S with Q* and Q with S*, so
A(m, n, k)[i][p] = (-1)^p A(m, n, n-k)[p-i][p], and a dual pair runs one
pass.  Its columns c(S*^m) are closed by the dual Cauchy identity and the
hook-content formula, and Poincare duality reads each entry off the
complement of a row's partition; the hook product and contents of each
column weight do not depend on m, so the weight is one exact division per
(m, box).

Everything is a pure function of immutable values.  This module keeps two
memos: a Pieri table per tall or square box (c(T_G) and the hook products
and contents of the column weights included) and the corner of A per
(m, n, k), stored as tuples and copied out; a wide key holds the flip of
its tall partner's.  With the LR
expansions in partitions they are deterministic and safe to repopulate
from concurrent callers.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

from ._record import FrozenRecord
from .errors import BoxSizeError, ConsistencyError, ParameterError, check_params, plain_ints
from .partitions import Partition, conjugate, fits_in, lr_expansion, normalize, partitions_in_box

# Desk-scale guardrail against accidental combinatorial blowup; override via
# set_box_cell_limit (library) or --max-box (CLI).
DEFAULT_BOX_CELL_LIMIT = 36
_box_cell_limit = DEFAULT_BOX_CELL_LIMIT


def set_box_cell_limit(cells: int) -> int:
    """Set the maximum allowed rows*cols for a Box; returns the old limit.
    A limit that is not a plain int, or is below 1 (no box fits it), is a
    ParameterError."""
    global _box_cell_limit
    if not plain_ints(cells):
        raise ParameterError(f"the box cell limit must be an int, got {cells!r}")
    if cells < 1:
        raise ParameterError(f"the box cell limit must be at least 1, got {cells}")
    old = _box_cell_limit
    _box_cell_limit = cells
    return old


class Box(FrozenRecord):
    """The k x (n-k) rectangle indexing the Schubert basis of G(k, n)."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int):
        if not (plain_ints(rows, cols) and rows >= 1 and cols >= 1):
            raise ParameterError(f"box sides must be positive ints, got {rows!r}x{cols!r}")
        Box.check(rows, cols)
        self._freeze(rows, cols)

    @staticmethod
    def check(rows: int, cols: int) -> None:
        """Refuse a rows x cols box past the cell limit with a BoxSizeError
        naming it.  The one home of the limit; it builds no record, so a memo
        hit can afford it."""
        if rows * cols > _box_cell_limit:
            raise BoxSizeError(
                f"box {rows}x{cols} exceeds the cell limit "
                f"{_box_cell_limit}; raise it with set_box_cell_limit()"
            )

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    @property
    def full(self) -> Partition:
        """Partition of the point class (the full rectangle)."""
        return (self.cols,) * self.rows

    def fits(self, lam: Partition) -> bool:
        return fits_in(lam, self.rows, self.cols)

    def complement(self, lam: Partition) -> Partition:
        """The Poincare dual of lam: the rest of the box, rotated 180 degrees."""
        padded = lam + (0,) * (self.rows - len(lam))
        return tuple(self.cols - p for p in reversed(padded) if p < self.cols)


class ChowClass:
    """Integer combination of Schubert classes in a fixed box."""

    __slots__ = ("box", "terms")

    def __init__(self, box: Box, terms: dict[Partition, int] | None = None):
        self.box = box
        clean: dict[Partition, int] = {}
        if terms:
            for lam, c in terms.items():
                if c == 0:
                    continue
                lam = normalize(lam)
                if not box.fits(lam):
                    raise ValueError(f"partition {lam} does not fit in {box.rows}x{box.cols}")
                clean[lam] = clean.get(lam, 0) + c
        self.terms = clean

    @classmethod
    def _trusted(cls, box: Box, terms: dict[Partition, int]) -> "ChowClass":
        """Build from keys that are already normalized and fit the box,
        skipping the checks of __init__; zero coefficients are dropped."""
        obj = cls.__new__(cls)
        obj.box = box
        obj.terms = {lam: c for lam, c in terms.items() if c}
        return obj

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam) -> int:
        return self.terms.get(normalize(lam), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.box == other.box
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.box, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check_box(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return ChowClass._trusted(self.box, out)

    def __neg__(self) -> "ChowClass":
        return ChowClass._trusted(self.box, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ChowClass._trusted(self.box, {lam: c * other for lam, c in self.terms.items()})
        self._check_box(other)
        out: dict[Partition, int] = {}
        rows, cols = self.box.rows, self.box.cols
        for lam, ca in self.terms.items():
            for mu, cb in other.terms.items():
                if sum(lam) + sum(mu) > self.box.dim:
                    continue  # every nu has |lam| + |mu| cells, so none fits
                for nu, lr in lr_expansion(lam, mu).items():
                    if fits_in(nu, rows, cols):
                        out[nu] = out.get(nu, 0) + ca * cb * lr
        return ChowClass._trusted(self.box, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in sorted(self.terms):
            c = self.terms[lam]
            bits.append(f"{c}*s{list(lam)}")
        return " + ".join(bits)

    def _check_box(self, other: "ChowClass") -> None:
        if self.box != other.box:
            raise ValueError(f"box mismatch: {self.box} vs {other.box}")


def zero(box: Box) -> ChowClass:
    return ChowClass(box)


def one(box: Box) -> ChowClass:
    return ChowClass(box, {(): 1})


def schubert_class(box: Box, lam) -> ChowClass:
    return ChowClass(box, {normalize(lam): 1})


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in the Chow ring (alias for the * operator)."""
    return a * b


def integrate(x: ChowClass) -> int:
    """Degree map: the coefficient of the point class (full box)."""
    return x.terms.get(x.box.full, 0)


def chern_Q(box: Box) -> list[ChowClass]:
    """Chern classes of the universal quotient bundle: c_i(Q) = s_(i)."""
    return [one(box)] + [schubert_class(box, (i,)) for i in range(1, box.cols + 1)]


def chern_S_dual(box: Box) -> list[ChowClass]:
    """Chern classes of the dual universal subbundle: c_i(S*) = s_(1^i)."""
    return [one(box)] + [schubert_class(box, (1,) * i) for i in range(1, box.rows + 1)]


def bundle_power_chern(chern: list[ChowClass], m: int, dualize: bool = False) -> list[ChowClass]:
    """Graded Chern classes of the m-fold direct sum of a bundle, optionally
    dualized first (sign (-1)^i on the degree-i input piece); truncated at
    the box dimension."""
    if m < 1:
        raise ParameterError(f"multiplicity must be positive, got {m}")
    if not chern or chern[0] != one(chern[0].box):
        raise ValueError("total Chern class sequence must start with 1")
    box, top = chern[0].box, chern[0].box.dim
    base = [zero(box) for _ in range(top + 1)]
    for i, piece in enumerate(chern[: top + 1]):
        base[i] = -piece if (dualize and i % 2 == 1) else piece
    out = [one(box)] + [zero(box) for _ in range(top)]
    for _ in range(m):  # each round multiplies by c(E)
        out = [
            sum((out[a] * base[d - a] for a in range(d + 1) if out[a].terms and base[d - a].terms), zero(box))
            for d in range(top + 1)
        ]
    return out


# --- tangent bundle from power sums ----------------------------------------
#
# With x the Chern roots of S* and y those of Q, T_G = S* (x) Q has roots
# x_a + y_b, so its power sums are p_i(T) = sum_t C(i,t) p_t(x) p_(i-t)(y)
# with p_0(x) = rows and p_0(y) = cols.  Since c(S)c(Q) = 1, p_r(y) equals
# (-1)^(r-1) p_r(x), so for 0 < t < i the terms t and i-t carry the signs
# (-1)^(i-t-1) and (-1)^(t-1): they cancel for odd i and agree for even i.
# Writing p_r for p_r(x), that leaves p_i(T) = (rows+cols) p_i for odd i and
#   p_i(T) = (cols-rows) p_i + sum_{0<t<i/2} 2 C(i,t) (-1)^(t-1) p_t p_(i-t)
#            + C(i,i/2) (-1)^(i/2-1) p_(i/2)^2
# for even i.  Each p_r acts on the Schubert basis s_lam = s_lam(x) by the
# Murnaghan-Nakayama rule, and Newton's identities turn p(T) into c(T).


def _rim_hooks(box: Box, lam: Partition) -> dict[int, list[tuple[Partition, int]]]:
    """Every term of s_lam * p_r(x) in the box, for every r, by the rim-hook
    rule on an abacus of box.rows beads: r -> [(nu, sign)].  One pass moves
    each bead once to every free position above it, up to rows-1+cols (past
    it a row is longer than cols); jumping h beads gives the sign (-1)^h."""
    rows = box.rows
    padded = lam + (0,) * (rows - len(lam))
    beads = [p + rows - 1 - i for i, p in enumerate(padded)]
    out: dict[int, list[tuple[Partition, int]]] = {}
    for i, b in enumerate(beads):
        j = i  # the moved bead lands at index j, past the i - j beads it jumped
        for q in range(b + 1, rows + box.cols):
            if j and beads[j - 1] == q:
                j -= 1
                continue
            nu = lam[:j] + (q - rows + 1 + j,) + tuple(p + 1 for p in padded[j:i]) + lam[i + 1:]
            out.setdefault(q - b, []).append((nu, -1 if (i - j) & 1 else 1))
    return out


def _divide_exactly(terms: dict[Partition, int], d: int, name: str) -> dict[Partition, int]:
    """terms / max(d, 1), zero terms dropped; a remainder raises ConsistencyError naming the class."""
    for nu, c in terms.items():
        if c % max(d, 1):
            raise ConsistencyError(f"{name} is not integral at {nu}")
    return {nu: c // max(d, 1) for nu, c in terms.items() if c}


def tangent_chern(box: Box) -> ChowClass:
    """Total Chern class of the tangent bundle of G(k, n), reduced into the
    Schubert basis through Newton's identities
    j c_j(T) = sum_i (-1)^(i-1) c_(j-i)(T) p_i(T), run forward: each finished
    c_d adds (-1)^(i-1) c_d p_i(T) to j c_j(T) at j = d+i, from products
    c_d p_t shared by every i.  One rim-hook pass per shape lam gives s_lam p_r
    for every r.  Nothing is kept between calls: its one caller here,
    _row_pieri, runs once per box.  A tall box (rows > cols)
    takes the conjugate of the wide one's class: G(k, n) = G(n-k, n) swaps
    S* and Q, so it sends s_lam to s_lam'."""
    if box.rows > box.cols:
        wide = tangent_chern(Box(box.cols, box.rows))
        return ChowClass._trusted(box, {conjugate(lam): c for lam, c in wide.terms.items()})
    memo: dict[Partition, dict[int, list[tuple[Partition, int]]]] = {}

    def times(terms: dict[Partition, int], r: int, scale: int, out: dict[Partition, int]) -> dict[Partition, int]:
        """out += scale * terms * p_r(x); returns out."""
        for lam, c in terms.items():
            hooks = memo.get(lam)
            if hooks is None:
                hooks = memo[lam] = _rim_hooks(box, lam)
            c *= scale
            for nu, sign in hooks.get(r, ()):
                out[nu] = out.get(nu, 0) + (c if sign > 0 else -c)
        return out

    rows, cols, dim = box.rows, box.cols, box.dim
    sums: list[dict[Partition, int]] = [{(): 1}] + [{} for _ in range(dim)]  # j c_j(T) at index j
    chern: dict[Partition, int] = {}
    for d, acc in enumerate(sums):
        piece = _divide_exactly(acc, d, f"c_{d}(T) of box {rows}x{cols}")
        chern.update(piece)
        by_t = [piece] + [times(piece, t, 1, {}) for t in range(1, dim - d + 1)]  # c_d p_t
        for i in range(1, dim - d + 1):  # add c_d (-1)^(i-1) p_i(T), by the parity of i
            out = sums[d + i]
            scale = rows + cols if i & 1 else rows - cols
            for nu, c in by_t[i].items():
                out[nu] = out.get(nu, 0) + scale * c
            if not i & 1:
                for t in range(1, i // 2 + 1):
                    times(by_t[t], i - t, (1 if 2 * t == i else 2) * comb(i, t) * (-1) ** t, out)
    return ChowClass._trusted(box, chern)  # rim hooks give normalized shapes in the box


@lru_cache(maxsize=None)
def _row_pieri(box: Box) -> tuple:
    """What _miller_pass reads of a box with rows >= cols, none of it
    depending on m, built once per box: the shapes lam of partitions_in_box;
    for each, every (e, index of nu) with s_nu a term of s_lam * s_(e) in the box,
    e = 1..min(cols, dim - |lam|); the column offset dim - |lam|; the dense row of
    c(T_G); the hook product and contents (_hook_content) of the column weight's
    shape, the conjugate of the complement of lam.  A wide box reads the table
    of its transpose, so the two share it."""
    shapes = partitions_in_box(box.rows, box.cols)
    index = {lam: x for x, lam in enumerate(shapes)}  # nu is in the box iff it has one
    pieri = [[(e, index[nu]) for e in range(1, min(box.cols, box.dim - sum(lam)) + 1)
              for nu in lr_expansion(lam, (e,)) if nu in index] for lam in shapes]
    tangent = tangent_chern(box).terms
    return (shapes, pieri, [box.dim - sum(lam) for lam in shapes], [tangent.get(lam, 0) for lam in shapes],
            [_hook_content(conjugate(box.complement(lam))) for lam in shapes])


def _hook_content(lam: Partition) -> tuple[int, tuple[int, ...]]:
    """The parts of the hook-content formula
    s_lam(1^m) = prod over cells (i, j) of (m + j - i) / hook(i, j)
    that do not depend on m: the product of the hooks and the contents j - i."""
    heights = conjugate(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    return prod(lam[i] - j + heights[j] - i - 1 for i, j in cells), tuple(j - i for i, j in cells)


def _schur_at_ones(hook_content: tuple[int, tuple[int, ...]], m: int) -> int:
    """s_lam(1^m) from _hook_content(lam): prod(m + content) // hook, which
    must leave no remainder."""
    hook, contents = hook_content
    value, rem = divmod(prod([m + c for c in contents]), hook)
    if rem:
        raise ConsistencyError(f"s_lam(1^{m}) with hook product {hook} and contents {contents} is not integral")
    return value


def a_matrix(m: int, n: int, k: int) -> list[list[int]]:
    """Square integer matrix of size dim+1, dim = k(n-k), whose (i, p) entry
    is the degree of c(T_G) c_i(Q*^m) c_(p-i)(S*^m) on G(k, n); zero for
    i > p.  The paper's matrix has size m(n-k)+1, but an entry with
    p > dim reads c_(dim-p)(T_G) = 0, and one with i > dim has i > p or
    p > dim, so only this (dim+1)^2 corner can be nonzero.  It is all that
    is returned, and its size does not grow with m; `detchern amatrix`
    pads it back to the paper's size.

    The corner is memoized per (m, n, k) (_corner), so a call copies its
    rows into fresh lists and computes nothing on a hit.  The box asked for
    is checked against the cell limit first, memo hit or not.
    """
    check_params(m, n, k)
    Box.check(k, n - k)  # name the box asked for, not its transpose
    return [list(row) for row in _corner(m, n, k)]


@lru_cache(maxsize=None)
def _corner(m: int, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The corner of A(m, n, k) as immutable rows.  A tall or square box
    (k >= n-k) runs one Miller pass (_miller_pass) in the box k x (n-k).  A
    wide box (k < n-k) flips its tall partner's memoized corner once:
    W -> W^perp identifies G(k, V) with G(n-k, V*) and pulls the subbundle
    there back to Q* and the quotient back to S*, so
    A(m, n, k)[i][p] = (-1)^p A(m, n, n-k)[p-i][p], and a dual pair
    G(k, n), G(n-k, n) runs one pass."""
    if k >= n - k:
        return _miller_pass(Box(k, n - k), m)
    tall = _corner(m, n, n - k)
    return tuple((0,) * i + tuple(-tall[p - i][p] if p & 1 else tall[p - i][p] for p in range(i, len(tall)))
                 for i in range(len(tall)))


def _miller_pass(box: Box, m: int) -> tuple[tuple[int, ...], ...]:
    """The corner of A in a box with rows >= cols, as immutable rows, by one
    Miller pass with its Pieri factor along the short side.  Rows:
    R_i = c(T_G) c_i(Q*^m) by Miller's recurrence for a power, run forward
    from R_0 = c(T_G): i R_i = sum_e ((m+1)e - i) c_e(Q*) R_(i-e), so a term
    c s_lam of a finished R_j adds (me - j)(-1)^e c s_nu to i R_i, i = j+e,
    per term s_nu of s_lam s_(e).  Columns: c_j(S*^m) = sum_{|mu|=j}
    s_mu'(1^m) s_mu (dual Cauchy), so c s_lam in R_i adds c s_mu'(1^m) at
    p = i + |mu|, mu its complement.  Not memoized itself: _corner keeps
    its result."""
    shapes, pieri, column, tangent, hook_contents = _row_pieri(box)
    weight = [_schur_at_ones(hc, m) for hc in hook_contents]
    rows, cols, dim = box.rows, box.cols, box.dim
    sums = [list(tangent)] + [[0] * len(shapes) for _ in range(dim)]  # j R_j at index j
    corner = [[0] * (dim + 1) for _ in range(dim + 1)]
    for j, acc in enumerate(sums):
        row, slots = corner[j], sums[j:]
        step = [(m * e - j) * (-1) ** e for e in range(cols + 1)]
        for x, c in enumerate(acc):
            if not c:
                continue
            c, rem = divmod(c, max(j, 1))
            if rem:
                raise ConsistencyError(f"c(T) c_{j}(Q*^{m}) of box {rows}x{cols} is not integral at {shapes[x]}")
            row[j + column[x]] += c * weight[x]
            for e, y in pieri[x]:
                slots[e][y] += step[e] * c
    return tuple(map(tuple, corner))
