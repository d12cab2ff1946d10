"""The benchmark's workloads, its child-process runner and its output checks.

Every workload drives detchern from outside: through the `detchern` CLI in
a fresh process per op (`cold_cases`, `warm_cli`) or through the public
library functions in one child process per pass (`sweep`).  One client,
closed loop: the next op starts when the previous one has ended, and there
is never more than one child process.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
EXPECTED_DIR = BENCH_DIR / "expected"
CACHE_FILES = ("lr.json", "cm.json")

clock = time.monotonic


# --- child processes -----------------------------------------------------------


@dataclass
class Child:
    code: int
    timed_out: bool
    spawned_ns: int  # monotonic_ns() just before the spawn
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("DETCHERN_CACHE_DIR", None)  # a cold op must never find a cache
    return env


def spawn(args: list[str], out_path: Path, timeout: float) -> Child:
    """Run `python child.py ARGS` to completion, stdout to `out_path`, and
    collect its own resource usage with wait4."""
    expired = threading.Event()
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        spawned_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args], stdout=out, stderr=err,
            env=child_env(), cwd=ROOT,
        )

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.1), expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    ended_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        timed_out=expired.is_set(),
        spawned_ns=spawned_ns,
        wall_s=(ended_ns - spawned_ns) * 1e-9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- ops and checks ------------------------------------------------------------


@dataclass
class Op:
    key: str  # CLI argv (or sweep call) as one string; names the expected output
    args: list
    box: str | None = None  # "square" or "thin" Grassmannian box, if the op has one


@dataclass
class OpResult:
    key: str
    ms: float
    box: str | None
    error: str | None = None
    stdout: bytes = b""


def box_shape(n: int, k: int) -> str:
    """`thin` when the k x (n-k) box of G(k, n) has a side of at most 2."""
    return "thin" if min(k, n - k) <= 2 else "square"


def cli_op(text: str) -> Op:
    args = text.split()
    flags = dict(zip(args[1::2], args[2::2]))
    box = box_shape(int(flags["-n"]), int(flags["-k"])) if "-k" in flags else None
    return Op(text, args, box)


def load_expected(name: str) -> dict:
    """Stored expected outputs; empty (so every op fails its check) when the
    file is missing, as while bench/make_expected.py writes it."""
    try:
        with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_cli(result: OpResult, child: Child, expected: dict) -> None:
    if child.timed_out:
        result.error = "timeout"
    elif child.code != 0:
        result.error = f"exit code {child.code}"
    elif result.key not in expected:
        result.error = "no expected output"
    elif result.stdout != expected[result.key].encode("utf-8"):
        result.error = "stdout differs from the expected output"


def _table_value(kind: str, m: int, n: int, k: int):
    from detchern import tables

    key = (m, n, k)
    if kind == "ged":
        return next(([str(r[3])] for r in tables.GED if r[:3] == key), None)
    table = {
        "cm": tables.CM, "csm": tables.CSM, "csm_open": tables.CSM_OPEN,
        "conormal": tables.CON, "charcycle": tables.CH, "charcycle_open": tables.CH_OPEN,
        "amatrix": tables.A_MATRICES,
    }.get(kind, {})
    value = table.get(key)
    if value is None:
        return None
    if kind == "amatrix":
        return [[str(v) for v in row] for row in value]
    return [str(v) for v in value]


def cross_check(results: list[OpResult]) -> None:
    """Check JSON outputs against `detchern.tables` where the value is
    tabulated, and every gED against its dual partner gED(m, n, n-k)."""
    geds: dict[tuple[int, int, int], list[OpResult]] = {}
    for res in results:
        if res.error or "--format" in res.key:
            continue
        doc = json.loads(res.stdout)
        m, n, k = doc["m"], doc["n"], doc["k"]
        if None in (m, n, k):
            continue
        table = _table_value(doc["kind"], m, n, k)
        if table is not None and table != doc["coefficients"]:
            res.error = "differs from detchern.tables"
        if doc["kind"] == "ged":
            geds.setdefault((m, n, k), []).append(res)
    for (m, n, k), group in geds.items():
        for partner in geds.get((m, n, n - k), []):
            for res in group:
                if json.loads(res.stdout)["coefficients"] != json.loads(partner.stdout)["coefficients"]:
                    res.error = res.error or f"gED differs from its dual partner k={n - k}"


# --- passes ----------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ops: list[OpResult]
    traced: bool
    dumps: list = field(default_factory=list)  # span files, traced passes only
    spawn_ns: list = field(default_factory=list)
    bytes_read: int = 0
    bytes_written: int = 0


class Workload:
    """A named set of ops; `setup()` prepares what every pass needs and
    `run_passes()` runs the ops in a seed-chosen order."""

    name = ""
    setup_repeats = 5
    min_passes = 1

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.expected = load_expected("cli")
        self._seq = 0

    def _path(self, suffix: str) -> Path:
        self._seq += 1
        return self.work / f"{self._seq:05d}{suffix}"

    def _timeout(self, cap: float = 60.0) -> float:
        return min(cap, self.deadline - clock())

    def _child_args(self, args: list[str], trace_to: Path | None, op_id: int):
        pre = ["--trace", str(trace_to), "--op", str(op_id)] if trace_to else []
        return pre + args

    def setup(self) -> float:
        """Start-up probe: a fresh interpreter that imports the package."""
        child = spawn(["import"], self._path(".out"), self._timeout())
        if child.code != 0:
            raise RuntimeError(f"set-up probe exited with {child.code}")
        return child.wall_s

    def ops(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run_passes(self, rng: random.Random, traced: tuple[bool, ...]) -> list[PassResult]:
        """One pass per entry of `traced`, all with the same op order."""
        raise NotImplementedError

    def _cli_passes(self, ops: list[Op], traced: tuple[bool, ...], cache_dirs: list) -> list[PassResult]:
        """Run `ops` once per variant (traced or not, with its own cache
        dir).  With two variants the passes are interleaved op by op, so a
        traced op and its untraced twin run seconds apart and a drift of
        the machine's speed falls on both."""
        outs = [PassResult(0.0, 0.0, self_maxrss_kb() / 1024.0, [], t) for t in traced]
        for op_id, op in enumerate(ops):
            for out, cache_dir in zip(outs, cache_dirs):
                start, cpu0 = clock(), self_cpu_s()
                args = list(op.args)
                if cache_dir is not None:
                    args += ["--cache-dir", str(cache_dir)]
                    out.bytes_read += cache_bytes(cache_dir)
                trace_to = self._path(".spans") if out.traced else None
                stdout_path = self._path(".out")
                child = spawn(self._child_args(["cli", *args], trace_to, op_id), stdout_path, self._timeout())
                if cache_dir is not None:
                    out.bytes_written += cache_bytes(cache_dir)
                result = OpResult(op.key, child.wall_s * 1000.0, op.box, stdout=stdout_path.read_bytes())
                check_cli(result, child, self.expected)
                out.ops.append(result)
                if trace_to:
                    out.dumps.append(trace_to)
                    out.spawn_ns.append(child.spawned_ns)
                out.wall_s += clock() - start
                out.cpu_s += self_cpu_s() - cpu0 + child.cpu_s
                out.peak_rss_mb = max(out.peak_rss_mb, child.maxrss_kb / 1024.0)
        for out in outs:
            cross_check(out.ops)
        return outs


def cache_bytes(cache_dir: Path) -> int:
    total = 0
    for name in CACHE_FILES:
        try:
            total += os.stat(cache_dir / name).st_size
        except FileNotFoundError:
            pass
    return total


class ColdCases(Workload):
    name = "cold_cases"
    min_passes = 3  # a pass has only two thin ops; fewer make thin_s too noisy
    CASES = (
        "ged -m 7 -n 7 -k 3", "ged -m 7 -n 7 -k 4", "ged -m 8 -n 8 -k 3",
        "ged -m 9 -n 9 -k 2", "ged -m 9 -n 9 -k 7",
    )

    def ops(self, rng):
        ops = [cli_op(text) for text in self.CASES]
        rng.shuffle(ops)
        return ops

    def run_passes(self, rng, traced):
        return self._cli_passes(self.ops(rng), traced, [None] * len(traced))


class WarmCli(Workload):
    name = "warm_cli"
    setup_repeats = 2  # a seeding costs 6-10 s; two keep the run's length in budget
    SEED_OPS = ("cm -m 7 -n 7 -k 3", "cm -m 8 -n 8 -k 3")
    # Op kinds: H hits on seeded entries; G needs cm(7,7,4..6) and writes it
    # (the first G op of a pass grows lr.json); L hits on what G wrote;
    # M misses whose LR expansions the seeds already hold; R recomputes.
    KINDS = {
        "H": (
            "cm -m 7 -n 7 -k 3", "cm -m 8 -n 8 -k 3", "cm -m 7 -n 7 -k 3 --format csv",
            "cm -m 8 -n 8 -k 3 --format markdown", "conormal -m 7 -n 7 -k 3",
            "conormal -m 8 -n 8 -k 3 --format csv", "polar -m 8 -n 8 -k 3",
            "ged -m 7 -n 7 -k 3", "ged -m 8 -n 8 -k 3", "eu -m 8 -n 8 -k 3",
            "microlocal -m 7 -n 7 -k 3",
        ),
        "G": ("csm -m 7 -n 7 -k 3", "charcycle -m 7 -n 7 -k 3", "cm -m 7 -n 7 -k 3 --check"),
        "L": (
            "ged -m 7 -n 7 -k 4", "polar -m 7 -n 7 -k 5", "conormal -m 7 -n 7 -k 6",
            "csm_open -m 7 -n 7 -k 4",
        ),
        "M": ("cm -m 8 -n 7 -k 3", "ged -m 8 -n 7 -k 2", "ged -m 8 -n 8 -k 7", "ged -m 9 -n 9 -k 8"),
        "R": ("amatrix -m 7 -n 7 -k 3", "amatrix -m 8 -n 8 -k 3 --format csv"),
    }
    # The seed shuffles ops within a kind; the kind of each slot is fixed.  A
    # G op comes first, so lr.json grows at the same point of every pass and
    # every later hit loads and saves the same grown file, whatever the seed.
    PATTERN = "GHHMHLRHHLMHGHLHMLHRHGMH"

    def __init__(self, work, deadline):
        super().__init__(work, deadline)
        self.template = work / "template"

    def setup(self):
        shutil.rmtree(self.template, ignore_errors=True)
        start = clock()
        for text in self.SEED_OPS:
            path = self._path(".out")
            args = ["cli", *text.split(), "--cache-dir", str(self.template)]
            child = spawn(args, path, self._timeout())
            result = OpResult(text, 0.0, None, stdout=path.read_bytes())
            check_cli(result, child, self.expected)
            if result.error:
                raise RuntimeError(f"seeding op {text!r} failed: {result.error}")
        return clock() - start

    def ops(self, rng):
        pools = {kind: [cli_op(t) for t in texts] for kind, texts in self.KINDS.items()}
        for pool in pools.values():
            rng.shuffle(pool)
        return [pools[kind].pop() for kind in self.PATTERN]

    def run_passes(self, rng, traced):
        ops = self.ops(rng)
        cache_dirs, copy_s = [], []
        for _ in traced:
            cache_dirs.append(self._path(".cache"))
            start = clock()
            shutil.copytree(self.template, cache_dirs[-1])
            copy_s.append(clock() - start)
        outs = self._cli_passes(ops, traced, cache_dirs)
        for out, extra, cache_dir in zip(outs, copy_s, cache_dirs):
            out.wall_s += extra
            shutil.rmtree(cache_dir, ignore_errors=True)
        return outs


class Sweep(Workload):
    name = "sweep"
    M_MAX, N_MAX = 8, 7

    def __init__(self, work, deadline):
        super().__init__(work, deadline)
        self.expected = load_expected("sweep")

    @classmethod
    def grid(cls):
        for m in range(2, cls.M_MAX + 1):
            for n in range(2, min(m, cls.N_MAX) + 1):
                yield m, n

    def ops(self, rng):
        """Per-instance calls first, then the scan and the symmetry checks
        over the cached classes, then the reference tables.

        The instances keep the natural loop order (m, n, k ascending): which
        instance computes an LR expansion that several boxes share depends on
        the order, so a fixed order keeps each instance's share, and with it
        `square_s`, `thin_s` and the tail op, the same in every run.  The
        seed shuffles the symmetry checks, which share nothing."""
        instances = [
            Op(f"instance {m} {n} {k}", ["instance", m, n, k], box_shape(n, k))
            for m, n in self.grid() for k in range(1, n)
        ]
        symmetry = [Op(f"symmetry {m} {n}", ["symmetry", m, n]) for m, n in self.grid()]
        rng.shuffle(symmetry)
        scan = Op(f"scan {self.M_MAX} {self.N_MAX}", ["scan", self.M_MAX, self.N_MAX])
        return [*instances, scan, *symmetry, Op("tables", ["tables"])]

    def session(self, ops: list[Op], trace_to: Path | None) -> tuple[Child, list[dict]]:
        """Run the ops in one child process; return it and the per-op results."""
        ops_path, results_path = self._path(".ops"), self._path(".results")
        ops_path.write_text(json.dumps([op.args for op in ops]), encoding="utf-8")
        args = self._child_args(["sweep", str(ops_path), str(results_path)], trace_to, 0)
        child = spawn(args, self._path(".out"), self._timeout(120.0))
        results = []
        if child.code == 0 and not child.timed_out:
            results = json.loads(results_path.read_text(encoding="utf-8"))
        return child, results

    def run_passes(self, rng, traced):
        ops = self.ops(rng)
        return [self._session_pass(ops, t) for t in traced]

    def _session_pass(self, ops: list[Op], traced: bool) -> PassResult:
        trace_to = self._path(".spans") if traced else None
        cpu0 = self_cpu_s()
        child, results = self.session(ops, trace_to)
        out = PassResult(child.wall_s, 0.0, 0.0, [], traced)
        for i, op in enumerate(ops):
            res = OpResult(op.key, results[i]["ms"] if i < len(results) else 0.0, op.box)
            if i >= len(results):
                res.error = "timeout" if child.timed_out else f"exit code {child.code}"
            elif "error" in results[i]:
                res.error = results[i]["error"]
            elif canonical(results[i]["result"]) != canonical(self.expected.get(op.key)):
                res.error = "result differs from the expected output"
            out.ops.append(res)
        out.cpu_s = self_cpu_s() - cpu0 + child.cpu_s
        out.peak_rss_mb = max(child.maxrss_kb, self_maxrss_kb()) / 1024.0
        if traced:
            out.dumps.append(trace_to)
            out.spawn_ns.append(child.spawned_ns)
        return out


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


WORKLOADS = {cls.name: cls for cls in (ColdCases, Sweep, WarmCli)}
