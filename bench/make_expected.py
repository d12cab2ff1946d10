"""Regenerate the benchmark's expected outputs from the current sources.

    python3 bench/make_expected.py

Runs every CLI op of `cold_cases` and `warm_cli` in a fresh process with no
cache dir, so the stored stdout of a `warm_cli` op is what the same op
prints without a cache, and runs the `sweep` session once.  Refuses to
write anything if an op fails or a value disagrees with `detchern.tables`
or with its gED dual partner.  Writes bench/expected/cli.json and
bench/expected/sweep.json.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

from workloads import (
    EXPECTED_DIR, ROOT, SRC, ColdCases, OpResult, Sweep, WarmCli, clock, cross_check, spawn,
)

TIMEOUT_S = 900.0


def cli_outputs(work) -> dict:
    texts = dict.fromkeys(
        [*ColdCases.CASES, *WarmCli.SEED_OPS, *(t for group in WarmCli.KINDS.values() for t in group)]
    )
    results = []
    for i, text in enumerate(texts):
        path = work / f"{i:03d}.out"
        child = spawn(["cli", *text.split()], path, TIMEOUT_S)
        res = OpResult(text, child.wall_s * 1000.0, None, stdout=path.read_bytes())
        if child.code != 0 or child.timed_out:
            res.error = f"exit code {child.code}"
        results.append(res)
        print(f"{child.wall_s:7.2f} s  {text}", file=sys.stderr)
    cross_check(results)
    bad = [f"{r.key}: {r.error}" for r in results if r.error]
    if bad:
        raise SystemExit("refusing to write expected outputs:\n" + "\n".join(bad))
    return {r.key: r.stdout.decode("utf-8") for r in results}


def sweep_outputs(work) -> dict:
    sweep = Sweep(work, deadline=clock() + TIMEOUT_S)
    ops = sweep.ops(random.Random(0))
    child, results = sweep.session(ops, None)
    bad = [op.key for op, r in zip(ops, results) if "error" in r]
    if child.code != 0 or len(results) != len(ops) or bad:
        raise SystemExit(f"sweep session failed (exit {child.code}): {bad}")
    out = {op.key: r["result"] for op, r in zip(ops, results)}
    if not all(r["dual_ok"] for key, r in out.items() if key.startswith("instance")):
        raise SystemExit("a dual Chern-Mather check failed")
    if out["tables"]["mismatches"]:
        raise SystemExit("reference tables do not reproduce")
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"expected-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outputs = {"cli": cli_outputs(work), "sweep": sweep_outputs(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for name, data in outputs.items():
        write_expected(name, data)
    return 0


def write_expected(name: str, data: dict) -> None:
    """One JSON object, one line per op."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    lines = [f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in sorted(data.items())]
    with open(EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
