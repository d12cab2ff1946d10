"""Command-line surface.

One table, `KINDS`, maps each document kind to its basis label, the
function that computes it and its `--check` route; it drives the
subcommands, the documents (rendered as JSON, CSV or markdown), the checks
and the replay of the bundled reference tables.  Three reports, `symmetry`,
`scan` and `tables`, check the flip symmetries, the effectivity/vanishing
conjectures and the reference tables.  Computed Chern-Mather classes
persist across runs in `cm.json`.  The closed forms that share no code with
the engine live in the library, `classes.check_closed_forms`; they gate
every entry of `cm.json` on load and every class `--check` computes.  A file
that fails them is rebuilt like any corrupt one.

Every command is a fresh process, so importing this module does only what
every command needs: it imports no `dataclasses` (see `_record`), loads the
reference tables (`detchern.tables`) only for the `tables` report, and the
options all commands share are declared once, on a parent parser.  Check
with `python -X importtime -c "import detchern.cli"`.

Exit codes: 0 success, 2 parameter errors, 3 internal consistency failure
(including a report whose check fails).  A reader that closes stdout early
(`| head`) is no failure: the run finishes, saves its cache and exits 0.
Integers are always rendered as decimal strings, exactly at any length;
repeated invocations with identical flags produce byte-identical stdout
(timing goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from itertools import zip_longest

from ._record import Record
from .classes import (
    check_closed_forms,
    check_strata,
    chern_fulton_hypersurface,
    cm_cache_export,
    cm_cache_import,
    cm_class,
    cm_class_via_trace,
    csm_class,
    csm_open,
    euler_obstruction,
    milnor_class,
    variety_dim,
)
from .errors import BoxSizeError, ConsistencyError, ParameterError, check_params, plain_ints
from .lagrangian import (
    ch_from_class,
    charcycle,
    charcycle_open,
    conormal,
    dagger,
    dual_cm,
    ged,
    polar_degrees,
    symmetry_check,
)
from .microlocal import determinantal_system, ic_char_cycle, solve_multiplicities
from .schubert import a_matrix, set_box_cell_limit

TOOL_VERSION = "detchern 0.1.0"
DOC_VERSION = "1"
CACHE_VERSION = "detchern-cache-1"
CACHE_DIR_ENV = "DETCHERN_CACHE_DIR"
_DECIMAL = re.compile(r"-?[0-9]+")  # how save_caches writes a cm.json coefficient


class OutputDocument(Record):
    """Lossless, deterministic serialization of one computed payload.  It is
    written, never read back: to_json's fields are __init__'s keywords, so
    OutputDocument(**json.loads(text)) rebuilds one where needed."""

    __slots__ = ("kind", "m", "n", "k", "basis", "coefficients", "meta", "version")

    def __init__(self, kind: str, m: int | None, n: int | None, k: int | None, basis: str,
                 coefficients: list, meta: dict | None = None, version: str = DOC_VERSION):
        self.kind, self.m, self.n, self.k, self.basis = kind, m, n, k, basis
        self.coefficients = coefficients
        self.meta = {} if meta is None else meta
        self.version = version

    def to_json(self) -> str:
        return json.dumps(dict(zip(self.__slots__, self._values())), sort_keys=True)

    def to_csv(self) -> str:
        return "\n".join(map(",".join, self._rows()))

    def to_markdown(self) -> str:
        head, rows = self._labels(), self._rows()
        if self.basis == "matrix":  # a matrix also indexes its rows
            head, rows = ["i\\p", *head], [[str(i), *row] for i, row in enumerate(rows)]
        lines = ["| " + " | ".join(cells) + " |" for cells in [head, *rows]]
        return "\n".join([lines[0], "|" + "---|" * len(head), *lines[1:]])

    def _rows(self) -> list[list[str]]:
        """The table of the document: a matrix's rows, or a vector as one row."""
        return self.coefficients if self.basis == "matrix" else [self.coefficients]

    def _labels(self) -> list[str]:
        """One label per column: a prefix by basis (none for a scalar or a
        matrix) and the index, offset by the lowest stratum of `strata:lo`."""
        size = len(self._rows()[0])
        if self.basis == "biprojective":
            return [f"h1^{a}h2^{size + 1 - a}" for a in range(size, 0, -1)]
        name, _, lo = self.basis.partition(":")
        prefix = {"projective": "P^", "strata": "stratum_", "polar": "delta_"}.get(name, "")
        return [f"{prefix}{int(lo or 0) + i}" for i in range(size)]


class ScanReport(Record):
    """Falsifiable regression gate for the effectivity and vanishing
    conjectures on open-stratum CSM classes."""

    __slots__ = ("m_max", "n_max", "instances_checked", "effectivity_violations", "vanishing_violations")

    def __init__(self, m_max: int, n_max: int, instances_checked: int = 0,
                 effectivity_violations: list | None = None, vanishing_violations: list | None = None):
        self.m_max, self.n_max, self.instances_checked = m_max, n_max, instances_checked
        self.effectivity_violations = [] if effectivity_violations is None else effectivity_violations
        self.vanishing_violations = [] if vanishing_violations is None else vanishing_violations

    @property
    def ok(self) -> bool:
        return not self.effectivity_violations and not self.vanishing_violations


def scan_conjectures(m_max: int, n_max: int) -> ScanReport:
    """Check that every open-stratum CSM coefficient is nonnegative and
    that the coefficients of [P^0..P^(n-k-2)] vanish, for all m <= m_max,
    n <= min(m, n_max), 1 <= k <= n-1.  Violations are collected verbatim,
    never raised.  Every box the scan meets, up to the largest
    floor(n_max/2) x ceil(n_max/2), is checked against the cell limit
    before the first instance, so a refusal names the first one past it."""
    if not (plain_ints(m_max, n_max) and 2 <= n_max <= m_max):
        raise ParameterError(f"need ints 2 <= n_max <= m_max, got {m_max!r}, {n_max!r}")
    for n in range(2, n_max + 1):
        check_strata(n, 1)
    report = ScanReport(m_max, n_max)
    for m in range(2, m_max + 1):
        for n in range(2, min(m, n_max) + 1):
            for k in range(1, n):
                report.instances_checked += 1
                row = csm_open(m, n, k).coeffs
                for l, c in enumerate(row):
                    if c < 0:
                        report.effectivity_violations.append((m, n, k, l, c))
                    if l <= n - k - 2 and c != 0:
                        report.vanishing_violations.append((m, n, k, l, c))
    return report


class TableReport(Record):
    """Outcome of replaying the reference tables: the number of cells
    compared and one (kind, key, index, expected, actual) tuple per cell
    that differs, with both values as strings."""

    __slots__ = ("cells_checked", "mismatches")

    def __init__(self, cells_checked: int = 0, mismatches: list | None = None):
        self.cells_checked = cells_checked
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches


def default_fixtures() -> list[tuple[str, tuple, object]]:
    """Every value of the bundled reference tables as (kind, key, value).
    The tables are imported here, so only the `tables` report loads them."""
    from . import tables

    fixtures: list[tuple[str, tuple, object]] = []
    for kind, table in {
        "cm": tables.CM,
        "csm": tables.CSM,
        "csm_open": tables.CSM_OPEN,
        "conormal": tables.CON,
        "charcycle": tables.CH,
        "charcycle_open": tables.CH_OPEN,
        "amatrix": tables.A_MATRICES,
        "fulton": tables.FULTON,
        "milnor": tables.MILNOR,
        "ged": tables.GED,
    }.items():
        if isinstance(table, dict):
            for key in sorted(table):
                fixtures.append((kind, key if isinstance(key, tuple) else (key,), table[key]))
        else:  # GED rows (m, n, k, value), replayed in order: one row repeats
            fixtures.extend((kind, (m, n, k), value) for m, n, k, value in table)
    return fixtures


def reproduce_reference_tables(fixtures=None) -> TableReport:
    """Recompute every bundled reference value and compare cell by cell."""
    report = TableReport()
    for kind, key, expected in (default_fixtures() if fixtures is None else fixtures):
        m, n, k = key if len(key) == 3 else (key[0], key[0], 1)  # fulton, milnor: (n,)
        actual = KINDS[kind][1](m, n, k)
        if isinstance(expected, (int, str)):
            cells = [(0, int(expected), actual)]
        elif expected and isinstance(expected[0], tuple):  # a missing cell reads None
            cells = [((i, j), e, a) for i, (erow, arow) in enumerate(zip_longest(expected, actual, fillvalue=()))
                     for j, (e, a) in enumerate(zip_longest(erow, arow))]
        else:
            cells = [(i, e, a) for i, (e, a) in enumerate(zip_longest(expected, actual))]
        report.cells_checked += len(cells)
        report.mismatches += [(kind, key, idx, str(e), str(a)) for idx, e, a in cells if e != a]
    return report


# --- cache persistence ------------------------------------------------------
#
# Only Chern-Mather classes persist (cm.json): every other value is rebuilt
# from them or recomputed faster than a larger file loads.


def load_caches(cache_dir: str, check: bool = False) -> dict | None:
    """Seed the Chern-Mather cache from cm.json; returns the entries when the
    file loaded cleanly, None when it is missing, stale or corrupt (run then
    rewrites it).  Every entry must pass check_closed_forms: a file with
    one that does not is corrupt like any other, and under `check` it is a
    ConsistencyError that names the file (the file is then left as it is)."""
    path = os.path.join(cache_dir, "cm.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("version") != CACHE_VERSION:
            return None  # stale format: rebuild silently
        entries = {}
        for key, coeffs in data["cm"].items():
            m, n, k = (int(x) for x in key.split(","))
            check_params(m, n, k, k_min=0)
            if not isinstance(coeffs, list) or len(coeffs) != m * n:
                raise ValueError(f"entry {key!r} does not describe a class of tau(m, n, k)")
            if not all(isinstance(c, str) and _DECIMAL.fullmatch(c) for c in coeffs):
                raise ValueError(f"entry {key!r} has a coefficient that is not a decimal string")
            values = tuple(int(c) for c in coeffs)
            # a class of a d-dimensional variety ends at [P^d]
            d = variety_dim(m, n, k)
            if any(values[d + 1:]):
                raise ValueError(f"entry {key!r} is not the class of a {d}-dimensional variety")
            check_closed_forms("cm", m, n, k, values)
            entries[(m, n, k)] = values
        cm_cache_import(entries)
        return entries
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ConsistencyError) as exc:
        if check and isinstance(exc, ConsistencyError):
            raise ConsistencyError(f"cache {path}: {exc}") from None
        print(f"warning: ignoring corrupt cache {path}: {exc}", file=sys.stderr)
        return None


def save_caches(cache_dir: str) -> None:
    """Write cm.json atomically: a temp file in the same directory is moved
    into place, so a reader never sees a half-written file."""
    os.makedirs(cache_dir, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "cm": {
            f"{m},{n},{k}": [str(c) for c in coeffs]
            for (m, n, k), coeffs in sorted(cm_cache_export().items())
        },
    }
    path = os.path.join(cache_dir, "cm.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- command dispatch -------------------------------------------------------
#
# KINDS maps each document kind to (basis, value, check): `basis` is
# formatted with k; value(m, n, k) returns the raw value in the shape
# `detchern.tables` stores it; check(m, n, k), or None, is the cross-route
# assertion behind --check and raises ConsistencyError on a disagreement.
# Both look the layer functions up in this module's globals at call time, so
# a wrapper installed there sees every call.


def _agree(a, b, message: str) -> None:
    if a != b:
        raise ConsistencyError(message)


def _padded_a_matrix(m: int, n: int, k: int) -> list[list[int]]:
    """The paper's (m(n-k)+1)^2 degree matrix: the (k(n-k)+1)^2 corner that
    a_matrix returns, padded with zeros.  The one place that builds it."""
    pad = (m - k) * (n - k)  # rows, and columns, past the corner
    return [row + [0] * pad for row in a_matrix(m, n, k)] + [[0] * (m * (n - k) + 1) for _ in range(pad)]


def _checked_dual_cm(m: int, n: int, k: int) -> tuple[int, ...]:
    check_params(m, n, k)
    dual = dual_cm(cm_class(m, n, k), variety_dim(m, n, k))
    _agree(dual, cm_class(m, n, n - k), f"involution image differs from the dual variety class at ({m},{n},{k})")
    return dual.coeffs


def _check_classes(m: int, n: int, k: int) -> None:
    """--check of cm, csm and csm_open: the closed forms of all three
    classes, then the trace route on every stratum.  It reads every stratum,
    so it refuses the first box past the cell limit before any class."""
    check_params(m, n, k, k_min=0)
    check_strata(n, k)
    for name in ("cm", "csm", "csm_open"):
        check_closed_forms(name, m, n, k, KINDS[name][1](m, n, k))
    for j in range(max(k, 1), n):
        _agree(cm_class_via_trace(m, n, j), cm_class(m, n, j), f"trace route disagrees at ({m},{n},{j})")


KINDS = {
    "cm": ("projective", lambda m, n, k: cm_class(m, n, k).coeffs, _check_classes),
    "csm": ("projective", lambda m, n, k: csm_class(m, n, k).coeffs, _check_classes),
    "csm_open": ("projective", lambda m, n, k: csm_open(m, n, k).coeffs, _check_classes),
    "eu": ("strata:{k}", lambda m, n, k: euler_obstruction(m, n, k).values, None),
    "fulton": ("projective", lambda m, n, k: chern_fulton_hypersurface(n).coeffs, None),
    "milnor": ("projective", lambda m, n, k: milnor_class(n).coeffs, None),
    "conormal": ("biprojective", lambda m, n, k: conormal(m, n, k).dense(), lambda m, n, k: _agree(
        dagger(conormal(m, n, k)), conormal(m, n, n - k), f"conormal flip duality fails at ({m},{n},{k})")),
    "charcycle": ("biprojective", lambda m, n, k: charcycle(m, n, k).dense(), lambda m, n, k: _agree(
        charcycle(m, n, k), ch_from_class(csm_class(m, n, k)),
        f"characteristic cycle routes disagree at ({m},{n},{k})")),
    "charcycle_open": ("biprojective", lambda m, n, k: charcycle_open(m, n, k).dense(), lambda m, n, k: _agree(
        charcycle_open(m, n, k), ch_from_class(csm_open(m, n, k)),
        f"open characteristic cycle routes disagree at ({m},{n},{k})")),
    "polar": ("polar", lambda m, n, k: polar_degrees(m, n, k), None),
    "ged": ("scalar", lambda m, n, k: ged(m, n, k), None),
    "microlocal": ("strata:0", lambda m, n, k: solve_multiplicities(determinantal_system(m, n, k)).values,
                   lambda m, n, k: ic_char_cycle(m, n, k)),  # the check raises on any disagreement
    "amatrix": ("matrix", _padded_a_matrix, None),
    "dual_check": ("projective", lambda m, n, k: _checked_dual_cm(m, n, k), None),
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def compute_document(kind: str, m, n, k, check: bool = False) -> OutputDocument:
    """The document of `kind` at (m, n, k); under `check` the kind's check
    route runs first, so a check that reads other strata refuses their boxes
    before any class is computed."""
    if kind not in KINDS:
        raise ParameterError(f"unknown kind {kind}")
    if kind in {"fulton", "milnor"}:
        _require(n is not None, f"{kind} requires -n")
        _require(m is None or m == n, f"{kind} is defined for square matrices")
        m, k = n, 1
    else:
        _require(m is not None and n is not None and k is not None,
                 f"{kind} requires -m, -n and -k")
    basis, value, check_route = KINDS[kind]
    if check and check_route:
        check_route(m, n, k)
    raw = value(m, n, k)
    if basis == "matrix":
        coefficients = [[str(v) for v in row] for row in raw]
    else:
        coefficients = [str(v) for v in ([raw] if basis == "scalar" else raw)]
    meta = {"tool": TOOL_VERSION, "params": {"m": m, "n": n, "k": k}}
    if kind == "dual_check":
        meta["dual_of"] = f"({m},{n},{n - k})"
    return OutputDocument(kind, m, n, k, basis.format(k=k), coefficients, meta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detchern",
        description="Exact characteristic classes and cycles of determinantal varieties.",
    )
    common = argparse.ArgumentParser(add_help=False)  # the options every command takes
    common.add_argument("-m", type=int, default=None)
    common.add_argument("-n", type=int, default=None)
    common.add_argument("-k", type=int, default=None)
    common.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    common.add_argument("--cache-dir", default=None)
    common.add_argument("--max-box", type=int, default=None)
    common.add_argument("--check", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in [*KINDS, "symmetry", "scan", "tables"]:
        sub.add_parser(kind, parents=[common])
    return parser


def _report(command: str, m, n) -> tuple[dict, list[str], bool]:
    """Run the symmetry, scan or tables report; return the fields of its
    JSON document, the lines of its text form and its verdict."""
    if command == "tables":
        report = reproduce_reference_tables()
        lines = [f"cells_checked,{report.cells_checked}", f"mismatches,{len(report.mismatches)}"]
        lines += [
            f"FAIL {kind}{key} at {idx}: expected {expected}, got {actual}"
            for kind, key, idx, expected, actual in report.mismatches
        ]
        fields = {"cells_checked": report.cells_checked, "mismatches": report.mismatches}
        return fields, lines, report.ok
    fields = {"m": m, "n": n, "k": None}
    if command == "symmetry":
        _require(m is not None and n is not None, "symmetry requires -m and -n")
        report = symmetry_check(m, n)
        lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in report.checks]
        return {**fields, "checks": report.checks}, lines, report.ok
    _require(m is not None and n is not None, "scan requires -m and -n maxima")
    report = scan_conjectures(m, n)
    fields.update(
        instances_checked=report.instances_checked,
        effectivity_violations=report.effectivity_violations,
        vanishing_violations=report.vanishing_violations,
    )
    lines = [
        f"instances_checked,{report.instances_checked}",
        f"effectivity_violations,{len(report.effectivity_violations)}",
        f"vanishing_violations,{len(report.vanishing_violations)}",
    ]
    return fields, lines, report.ok


def _cache_note(cache_dir, loaded, m, n) -> str:
    """The end of the stderr line of a consistency failure: the cm.json the
    run loaded and the classes of tau(m, n, .) it holds, so that a failure
    caused by a forged entry (polar, ged and the --check routes compare with
    c_M) can be traced to the file; empty when it holds none."""
    held = sorted(key for key in loaded or () if key[:2] == (m, n))
    if not held:
        return ""
    keys = ", ".join(f"({','.join(map(str, key))})" for key in held)
    return f"; cache {os.path.join(cache_dir, 'cm.json')} holds c_M of {keys}"


def run(argv) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    old_limit = loaded = None
    started = time.monotonic()
    # CPython 3.10.7+ caps int <-> str at 4,300 digits: lift it so exact values of any length print and load
    old_digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if old_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.max_box is not None:
            try:
                old_limit = set_box_cell_limit(args.max_box)
            except ParameterError as exc:
                raise ParameterError(f"--max-box: {exc}") from None
        loaded = load_caches(cache_dir, args.check) if cache_dir else None
        if args.command in KINDS:
            doc = compute_document(args.command, args.m, args.n, args.k, check=args.check)
            text, ok = getattr(doc, f"to_{args.format}")(), True
        else:
            fields, lines, ok = _report(args.command, args.m, args.n)
            if args.format == "json":
                payload = {"version": DOC_VERSION, "kind": args.command, **fields, "ok": ok}
                text = json.dumps(payload, sort_keys=True)
            else:
                text = "\n".join(lines)
        try:
            print(text)
        except BrokenPipeError:
            pass  # the reader closed stdout early (`| head`): its choice, not a failure
        if not ok:
            return 3
        # a file that loaded cleanly and already holds every entry stays as it is
        if cache_dir and cm_cache_export() != loaded:
            try:
                save_caches(cache_dir)
            except OSError as exc:
                print(f"warning: could not save cache to {cache_dir}: {exc}", file=sys.stderr)
    except (ParameterError, BoxSizeError) as exc:
        # a refused box names the flag that raises the limit, not the library call
        print(f"error: {str(exc).replace('set_box_cell_limit()', '--max-box')}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}{_cache_note(cache_dir, loaded, args.m, args.n)}", file=sys.stderr)
        return 3
    finally:
        if old_limit is not None:
            set_box_cell_limit(old_limit)
        if old_digits is not None:
            sys.set_int_max_str_digits(old_digits)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # a closed reader: shutdown flushes the rest into os.devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
