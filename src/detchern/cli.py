"""Command-line surface.

Subcommands compute any of the classes, cycles and degrees, render them as
JSON, CSV or markdown, reproduce the bundled reference tables, scan the
effectivity/vanishing conjectures, and persist computed Chern-Mather
classes across runs.

Exit codes: 0 success, 2 parameter errors, 3 internal consistency failure.
Integers are always rendered as decimal strings; repeated invocations with
identical flags produce byte-identical stdout (timing goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import tables
from .classes import (
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
from .errors import BoxSizeError, ConsistencyError, ParameterError
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


@dataclass
class OutputDocument:
    """Lossless, deterministic serialization of one computed payload."""

    kind: str
    m: int | None
    n: int | None
    k: int | None
    basis: str
    coefficients: list
    meta: dict = field(default_factory=dict)
    version: str = DOC_VERSION

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "basis": self.basis,
            "coefficients": self.coefficients,
            "meta": self.meta,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "OutputDocument":
        data = json.loads(blob)
        return cls(
            kind=data["kind"],
            m=data["m"],
            n=data["n"],
            k=data["k"],
            basis=data["basis"],
            coefficients=data["coefficients"],
            meta=data["meta"],
            version=data["version"],
        )

    def to_csv(self) -> str:
        if isinstance(self.coefficients, list) and self.coefficients and isinstance(self.coefficients[0], list):
            return "\n".join(",".join(row) for row in self.coefficients)
        if isinstance(self.coefficients, list):
            return ",".join(self.coefficients)
        return str(self.coefficients)

    def to_markdown(self) -> str:
        labels = self._labels()
        if isinstance(self.coefficients, list) and self.coefficients and isinstance(self.coefficients[0], list):
            size = len(self.coefficients[0])
            head = "| i\\p | " + " | ".join(str(p) for p in range(size)) + " |"
            sep = "|" + "---|" * (size + 1)
            rows = [
                f"| {i} | " + " | ".join(row) + " |"
                for i, row in enumerate(self.coefficients)
            ]
            return "\n".join([head, sep, *rows])
        head = "| " + " | ".join(labels) + " |"
        sep = "|" + "---|" * len(labels)
        row = "| " + " | ".join(self.coefficients) + " |"
        return "\n".join([head, sep, row])

    def _labels(self) -> list[str]:
        if self.basis == "projective":
            return [f"P^{l}" for l in range(len(self.coefficients))]
        if self.basis == "biprojective":
            N = len(self.coefficients)
            return [f"h1^{a}h2^{N + 1 - a}" for a in range(N, 0, -1)]
        if self.basis.startswith("strata:"):
            lo = int(self.basis.split(":")[1])
            return [f"stratum_{lo + i}" for i in range(len(self.coefficients))]
        if self.basis == "polar":
            return [f"delta_{l}" for l in range(len(self.coefficients))]
        return [str(i) for i in range(len(self.coefficients))]


@dataclass
class ScanReport:
    """Falsifiable regression gate for the effectivity and vanishing
    conjectures on open-stratum CSM classes."""

    m_max: int
    n_max: int
    instances_checked: int = 0
    effectivity_violations: list = field(default_factory=list)
    vanishing_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.effectivity_violations and not self.vanishing_violations


def scan_conjectures(m_max: int, n_max: int) -> ScanReport:
    """Check that every open-stratum CSM coefficient is nonnegative and
    that the coefficients of [P^0..P^(n-k-2)] vanish, for all m <= m_max,
    n <= min(m, n_max), 1 <= k <= n-1.  Violations are collected verbatim,
    never raised."""
    if not (2 <= n_max <= m_max):
        raise ParameterError(f"need 2 <= n_max <= m_max, got {m_max}, {n_max}")
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


@dataclass
class TableReport:
    cells_checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def default_fixtures() -> list[tuple[str, tuple, object]]:
    fixtures: list[tuple[str, tuple, object]] = []
    for name, table in (
        ("cm", tables.CM),
        ("csm", tables.CSM),
        ("csm_open", tables.CSM_OPEN),
        ("conormal", tables.CON),
        ("charcycle", tables.CH),
        ("charcycle_open", tables.CH_OPEN),
        ("amatrix", tables.A_MATRICES),
    ):
        for key in sorted(table):
            fixtures.append((name, key, table[key]))
    for n in sorted(tables.FULTON):
        fixtures.append(("fulton", (n,), tables.FULTON[n]))
    for n in sorted(tables.MILNOR):
        fixtures.append(("milnor", (n,), tables.MILNOR[n]))
    for m, n, k, value in tables.GED:
        fixtures.append(("ged", (m, n, k), value))
    return fixtures


def _fresh_value(kind: str, key: tuple):
    if kind == "cm":
        return cm_class(*key).coeffs
    if kind == "csm":
        return csm_class(*key).coeffs
    if kind == "csm_open":
        return csm_open(*key).coeffs
    if kind == "conormal":
        return conormal(*key).dense()
    if kind == "charcycle":
        return charcycle(*key).dense()
    if kind == "charcycle_open":
        return charcycle_open(*key).dense()
    if kind == "amatrix":
        return tuple(tuple(row) for row in a_matrix(*key))
    if kind == "fulton":
        return chern_fulton_hypersurface(key[0]).coeffs
    if kind == "milnor":
        return milnor_class(key[0]).coeffs
    if kind == "ged":
        return ged(*key)
    raise ValueError(f"unknown fixture kind {kind}")


def reproduce_reference_tables(fixtures=None) -> TableReport:
    """Recompute every bundled reference value and compare cell by cell."""
    report = TableReport()
    for kind, key, expected in (default_fixtures() if fixtures is None else fixtures):
        actual = _fresh_value(kind, key)
        if isinstance(expected, (int, str)):
            report.cells_checked += 1
            if int(expected) != actual:
                report.mismatches.append((kind, key, 0, str(expected), str(actual)))
        elif expected and isinstance(expected[0], tuple):
            for i, (erow, arow) in enumerate(zip(expected, actual)):
                for j, (e, a) in enumerate(zip(erow, arow)):
                    report.cells_checked += 1
                    if e != a:
                        report.mismatches.append((kind, key, (i, j), str(e), str(a)))
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                report.cells_checked += 1
                if e != a:
                    report.mismatches.append((kind, key, i, str(e), str(a)))
    return report


# --- cache persistence ------------------------------------------------------
#
# Only Chern-Mather classes persist (cm.json): every other value is rebuilt
# from them or recomputed faster than a larger file loads.


def load_caches(cache_dir: str) -> None:
    path = os.path.join(cache_dir, "cm.json")
    if not os.path.exists(path):
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("version") != CACHE_VERSION:
            return  # stale format: rebuild silently
        entries = {}
        for key, coeffs in data["cm"].items():
            m, n, k = (int(x) for x in key.split(","))
            if not (0 <= k <= n - 1 <= m - 1) or not isinstance(coeffs, list) or len(coeffs) != m * n:
                raise ValueError(f"entry {key!r} does not describe a class of tau(m, n, k)")
            entries[(m, n, k)] = tuple(int(c) for c in coeffs)
        cm_cache_import(entries)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"warning: ignoring corrupt cache {path}: {exc}", file=sys.stderr)


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


def _doc(kind, m, n, k, basis, values, **meta) -> OutputDocument:
    meta = {"tool": TOOL_VERSION, "params": {"m": m, "n": n, "k": k}, **meta}
    return OutputDocument(kind, m, n, k, basis, values, meta)


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _run_checks(kind: str, m: int, n: int, k: int) -> None:
    """Cross-route assertions behind --check."""
    if kind in {"cm", "csm", "csm_open"}:
        for kk in range(max(k, 1), n):
            if cm_class_via_trace(m, n, kk) != cm_class(m, n, kk):
                raise ConsistencyError(f"trace route disagrees at ({m},{n},{kk})")
    elif kind == "conormal":
        if dagger(conormal(m, n, k)) != conormal(m, n, n - k):
            raise ConsistencyError(f"conormal flip duality fails at ({m},{n},{k})")
    elif kind == "charcycle":
        if charcycle(m, n, k) != ch_from_class(csm_class(m, n, k)):
            raise ConsistencyError(f"characteristic cycle routes disagree at ({m},{n},{k})")
    elif kind == "charcycle_open":
        if charcycle_open(m, n, k) != ch_from_class(csm_open(m, n, k)):
            raise ConsistencyError(f"open characteristic cycle routes disagree at ({m},{n},{k})")
    elif kind == "microlocal":
        ic_char_cycle(m, n, k)  # raises on any disagreement


def compute_document(kind: str, m, n, k, check: bool = False) -> OutputDocument:
    needs_mnk = kind in {
        "cm", "csm", "csm_open", "eu", "conormal", "charcycle",
        "charcycle_open", "polar", "ged", "microlocal", "amatrix", "dual_check",
    }
    if needs_mnk:
        _require(m is not None and n is not None and k is not None,
                 f"{kind} requires -m, -n and -k")
    if kind in {"fulton", "milnor"}:
        _require(n is not None, f"{kind} requires -n")
        _require(m is None or m == n, f"{kind} is defined for square matrices")
        m, k = n, 1

    if kind == "cm":
        values = cm_class(m, n, k).coeffs
        doc = _doc(kind, m, n, k, "projective", _strs(values))
    elif kind == "csm":
        doc = _doc(kind, m, n, k, "projective", _strs(csm_class(m, n, k).coeffs))
    elif kind == "csm_open":
        doc = _doc(kind, m, n, k, "projective", _strs(csm_open(m, n, k).coeffs))
    elif kind == "eu":
        vec = euler_obstruction(m, n, k)
        doc = _doc(kind, m, n, k, f"strata:{vec.lo}", _strs(vec.values))
    elif kind == "fulton":
        doc = _doc(kind, m, n, k, "projective", _strs(chern_fulton_hypersurface(n).coeffs))
    elif kind == "milnor":
        doc = _doc(kind, m, n, k, "projective", _strs(milnor_class(n).coeffs))
    elif kind == "conormal":
        doc = _doc(kind, m, n, k, "biprojective", _strs(conormal(m, n, k).dense()))
    elif kind == "charcycle":
        doc = _doc(kind, m, n, k, "biprojective", _strs(charcycle(m, n, k).dense()))
    elif kind == "charcycle_open":
        doc = _doc(kind, m, n, k, "biprojective", _strs(charcycle_open(m, n, k).dense()))
    elif kind == "polar":
        doc = _doc(kind, m, n, k, "polar", _strs(polar_degrees(m, n, k)))
    elif kind == "ged":
        doc = _doc(kind, m, n, k, "scalar", [str(ged(m, n, k))])
    elif kind == "microlocal":
        vec = solve_multiplicities(determinantal_system(m, n, k))
        doc = _doc(kind, m, n, k, "strata:0", _strs(vec.values))
    elif kind == "amatrix":
        rows = [[str(v) for v in row] for row in a_matrix(m, n, k)]
        doc = _doc(kind, m, n, k, "matrix", rows)
    elif kind == "dual_check":
        dual = dual_cm(cm_class(m, n, k), variety_dim(m, n, k))
        if dual != cm_class(m, n, n - k):
            raise ConsistencyError(
                f"involution image differs from the dual variety class at ({m},{n},{k})"
            )
        doc = _doc(kind, m, n, k, "projective", _strs(dual.coeffs), dual_of=f"({m},{n},{n - k})")
    else:
        raise ParameterError(f"unknown kind {kind}")

    if check:
        _run_checks(kind, m, n, k)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detchern",
        description="Exact characteristic classes and cycles of determinantal varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [
        "cm", "csm", "csm_open", "eu", "fulton", "milnor", "conormal",
        "charcycle", "charcycle_open", "polar", "ged", "microlocal",
        "amatrix", "dual_check", "symmetry", "scan", "tables",
    ]
    for kind in kinds:
        p = sub.add_parser(kind)
        p.add_argument("-m", type=int, default=None)
        p.add_argument("-n", type=int, default=None)
        p.add_argument("-k", type=int, default=None)
        p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--max-box", type=int, default=None)
        p.add_argument("--check", action="store_true")
    return parser


def _render(doc: OutputDocument, fmt: str) -> str:
    if fmt == "json":
        return doc.to_json()
    if fmt == "csv":
        return doc.to_csv()
    return doc.to_markdown()


def _report_lines(pairs) -> list[str]:
    return [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in pairs]


def run(argv) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    old_limit = None
    if args.max_box is not None:
        old_limit = set_box_cell_limit(args.max_box)
    started = time.monotonic()
    try:
        if cache_dir:
            load_caches(cache_dir)
        if args.command == "symmetry":
            _require(args.m is not None and args.n is not None, "symmetry requires -m and -n")
            report = symmetry_check(args.m, args.n)
            if args.format == "json":
                payload = {
                    "version": DOC_VERSION,
                    "kind": "symmetry",
                    "m": args.m,
                    "n": args.n,
                    "k": None,
                    "checks": [[name, ok] for name, ok in report.checks],
                    "ok": report.ok,
                }
                print(json.dumps(payload, sort_keys=True))
            else:
                print("\n".join(_report_lines(report.checks)))
        elif args.command == "scan":
            _require(args.m is not None and args.n is not None, "scan requires -m and -n maxima")
            report = scan_conjectures(args.m, args.n)
            if args.format == "json":
                payload = {
                    "version": DOC_VERSION,
                    "kind": "scan",
                    "m": args.m,
                    "n": args.n,
                    "k": None,
                    "instances_checked": report.instances_checked,
                    "effectivity_violations": report.effectivity_violations,
                    "vanishing_violations": report.vanishing_violations,
                    "ok": report.ok,
                }
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"instances_checked,{report.instances_checked}")
                print(f"effectivity_violations,{len(report.effectivity_violations)}")
                print(f"vanishing_violations,{len(report.vanishing_violations)}")
            if not report.ok:
                return 3
        elif args.command == "tables":
            report = reproduce_reference_tables()
            if args.format == "json":
                payload = {
                    "version": DOC_VERSION,
                    "kind": "tables",
                    "cells_checked": report.cells_checked,
                    "mismatches": report.mismatches,
                    "ok": report.ok,
                }
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"cells_checked,{report.cells_checked}")
                print(f"mismatches,{len(report.mismatches)}")
                for kind, key, idx, expected, actual in report.mismatches:
                    print(f"FAIL {kind}{key} at {idx}: expected {expected}, got {actual}")
            if not report.ok:
                return 3
        else:
            doc = compute_document(args.command, args.m, args.n, args.k, check=args.check)
            print(_render(doc, args.format))
        if cache_dir:
            try:
                save_caches(cache_dir)
            except OSError as exc:
                print(f"warning: could not save cache to {cache_dir}: {exc}", file=sys.stderr)
    except (ParameterError, BoxSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if old_limit is not None:
            set_box_cell_limit(old_limit)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
