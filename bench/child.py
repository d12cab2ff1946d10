"""Child process of the benchmark: one detchern CLI call or one library session.

    child.py [--trace FILE] [--op N] cli ARGV...
    child.py [--trace FILE] sweep OPS_JSON RESULTS_JSON
    child.py import

`cli` calls `detchern.cli.run(ARGV)` and exits with its code, exactly as the
`detchern` console script does.  `sweep` runs the listed library calls in
this one process and writes each call's result and time.  `import` only
imports the package (the set-up probe).  With `--trace`, the span tracer
is installed before the first call and its spans are written to FILE at
the end.
"""

from __future__ import annotations

import json
import sys
import time


def sweep_call(op):
    """Run one sweep op through module attributes (so a tracer sees it) and
    return a JSON-able result."""
    from detchern import classes, cli, lagrangian, microlocal

    kind, *args = op
    if kind == "instance":
        m, n, k = args
        ic = microlocal.ic_char_cycle(m, n, k)
        dual = lagrangian.dual_cm(classes.cm_class(m, n, k), classes.variety_dim(m, n, k))
        return {"ic": [str(c) for c in ic.dense()], "dual_ok": dual == classes.cm_class(m, n, n - k)}
    if kind == "scan":
        report = cli.scan_conjectures(*args)
        return {
            "instances": report.instances_checked,
            "effectivity_violations": report.effectivity_violations,
            "vanishing_violations": report.vanishing_violations,
        }
    if kind == "symmetry":
        return [[name, ok] for name, ok in lagrangian.symmetry_check(*args).checks]
    if kind == "tables":
        report = cli.reproduce_reference_tables()
        return {"cells": report.cells_checked, "mismatches": [list(map(str, m)) for m in report.mismatches]}
    raise ValueError(f"unknown sweep op {kind}")


def run_sweep(ops, tracer) -> list[dict]:
    results = []
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        start = time.monotonic()
        try:
            result = {"result": sweep_call(op)}
        except Exception as exc:  # one failed op must not hide the others
            result = {"error": f"{type(exc).__name__}: {exc}"}
        result["ms"] = (time.monotonic() - start) * 1000.0
        results.append(result)
    return results


def main(argv: list[str]) -> int:
    trace_path, op_id = None, 0
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            trace_path = value
        elif flag == "--op":
            op_id = int(value)
        else:
            raise SystemExit(f"unknown flag {flag}")
    mode, rest = argv[0], argv[1:]

    import detchern.cli  # noqa: F401  (the import is part of start-up)

    if mode == "import":
        return 0
    tracer = None
    if trace_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = op_id
    try:
        if mode == "cli":
            from detchern import cli

            code = cli.run(rest)
        elif mode == "sweep":
            with open(rest[0], encoding="utf-8") as fh:
                ops = json.load(fh)
            results = run_sweep(ops, tracer)
            with open(rest[1], "w", encoding="utf-8") as fh:
                json.dump(results, fh)
            code = 0
        else:
            raise SystemExit(f"unknown mode {mode}")
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
