"""detchern benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {cold_cases,sweep,warm_cli} --seed N \\
        --seconds S --trace {0,1}

Runs set-up several times, then passes of the workload until S seconds have
gone, checks every op's output, and prints a context line and then, as the
last line of stdout, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones (medians over passes); with `--trace 1`
untraced and traced passes alternate and the metrics are the per-layer ones
from the traced passes.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import load_dump, pass_layer_metrics  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, clock  # noqa: E402

HARD_STOP_S = 170.0  # every run must end within 180 s
UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio",
    "op_ms_p50": "ms", "op_ms_tail": "ms", "square_s": "s", "thin_s": "s",
    "cli.bytes_read": "bytes", "cli.bytes_written": "bytes",
}
SUFFIX_UNITS = {"_s": "s", "_ratio": "ratio", "_calls": "count", "_miss": "count"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next(unit for suffix, unit in SUFFIX_UNITS.items() if name.endswith(suffix))


def op_tail(passes: list[list[float]]) -> tuple[float, float]:
    """(value, percentile) of the op latency at the highest percentile of a
    pass that still has ten ops beyond it: in each pass the op with ten
    slower ones, then the mean over passes.  A pass of ten ops or fewer
    has no such percentile: then each pass gives its slowest op.

    The mean, not the median: on `sweep` the ops near that rank run about
    35 or about 50 ms depending on the machine's state, so the pass figure
    takes one of two values, and a median over a few passes jumps between
    them where the mean moves smoothly."""
    n = len(passes[0])
    if n <= 10:
        return statistics.mean(max(p) for p in passes), 100.0
    return statistics.mean(sorted(p)[n - 11] for p in passes), 100.0 * (n - 10) / n


def pass_metrics(p) -> dict:
    return {
        "wall_s": p.wall_s,
        "cpu_s": p.cpu_s,
        "peak_rss_mb": p.peak_rss_mb,
        "square_s": sum(op.ms for op in p.ops if op.box == "square") / 1000.0,
        "thin_s": sum(op.ms for op in p.ops if op.box == "thin") / 1000.0,
    }


def medians(rows: list[dict]) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def measure(workload, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Set up `setup_repeats` times, then run passes while at least half of
    the next one is expected to fit in `seconds`, and up to `min_passes`
    while the whole next one is expected to fit in 1.5 * `seconds`, which
    bounds the run's length on a slow machine.  With tracing, each step is
    an untraced pass and a traced twin of it."""
    setups = [workload.setup() for _ in range(workload.setup_repeats)]
    rng = random.Random(seed)
    variants = (False, True) if trace else (False,)
    passes, steps = [], []
    begin = clock()
    while True:
        step_start = clock()
        passes += workload.run_passes(rng, variants)
        steps.append(clock() - step_start)
        elapsed = clock() - begin
        if clock() - started > HARD_STOP_S / 2:
            break
        step = statistics.median(steps)
        wanted = len(steps) < workload.min_passes and elapsed + step <= 1.5 * seconds
        if not wanted and elapsed + step / 2 > seconds:
            break
    return {"setups": setups, "passes": passes}


def report(workload, seed: int, trace: bool, measured: dict) -> tuple[dict, dict]:
    passes = measured["passes"]
    untraced = [p for p in passes if not p.traced]
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.error]
    per_pass = len(passes[0].ops)
    op_times = [[op.ms for op in p.ops] for p in untraced]
    tail_ms, tail_pct = op_tail(op_times)
    if trace:
        rows = []
        for p in (p for p in passes if p.traced):
            dumps = [load_dump(path) for path in p.dumps]
            rows.append(pass_layer_metrics(dumps, p.spawn_ns, p.wall_s, p.bytes_read, p.bytes_written))
        metrics = medians(rows)
        metrics["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for u, t in zip(passes[0::2], passes[1::2])
        )
    else:
        metrics = medians([pass_metrics(p) for p in untraced])
        metrics["op_ms_p50"] = statistics.median(ms for times in op_times for ms in times)
        metrics["op_ms_tail"] = tail_ms
        metrics["setup_s"] = statistics.median(measured["setups"])
        metrics["ok_ratio"] = 1.0 - len(failed) / len(ops)
    context = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "setup_runs": len(measured["setups"]),
        "passes": len(untraced),
        "traced_passes": len(passes) - len(untraced),
        "ops_per_pass": per_pass,
        "percentiles": {
            "op_ms_p50": {"percentile": 50.0, "samples": per_pass * len(untraced)},
            "op_ms_tail": {"percentile": round(tail_pct, 2), "samples": per_pass * len(untraced)},
        },
        "statistic": "median over passes of each pass's figure; op_ms_p50 over all ops of the run; op_ms_tail mean over passes",
        "failures": sorted({f"{op.key}: {op.error}" for op in failed})[:20],
    }
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    }
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = clock()
    if not (SRC / "detchern" / "cli.py").is_file():
        print(f"error: no detchern sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, deadline=started + HARD_STOP_S)
        measured = measure(workload, args.seed, args.seconds, bool(args.trace), started)
        context, result = report(workload, args.seed, bool(args.trace), measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
