"""Tests of the benchmark itself (not of detchern).

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from detchern import cli, partitions, schubert  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_synthetic_tree():
    tree = [
        _span("cli.run", 0, 100, -1),
        _span("classes.cm_class", 10, 40, 0),
        _span("schubert.a_matrix", 30, 60, 0),  # overlaps its sibling: 10..60 covered once
        _span("partitions.lr_expansion", 15, 20, 1),
        _span("partitions.lr_expansion", 90, 120, 0),  # runs past its parent: clipped at 100
    ]
    assert spans.self_times(tree) == [40, 25, 30, 5, 30]
    assert spans.inclusive_time(tree, "partitions.lr_expansion") == 35


def test_inclusive_time_counts_recursion_once():
    tree = [_span("a", 0, 10, -1), _span("a", 2, 8, 0), _span("a", 20, 25, -1)]
    assert spans.inclusive_time(tree, "a") == 15


def test_pass_layer_metrics_account_for_the_pass():
    tree = [
        _span("cli.run", 1_000, 9_000, -1),
        _span("classes.cm_class", 2_000, 8_000, 0),
        _span("schubert.a_matrix", 3_000, 7_000, 1),
        _span("partitions.lr_expansion", 4_000, 5_000, 2),
    ]
    dump = {"spans": tree, "dump_ns": 500, "counters": {"lr_size_end": 1, "lr_terms": 4, "lr_kept": 1}}
    m = spans.pass_layer_metrics([dump], [0], wall_s=10_000e-9, bytes_read=0, bytes_written=0)
    assert m["cli.startup_s"] == pytest.approx(1_000e-9)
    assert m["cli.self_s"] == pytest.approx(2_000e-9)
    assert m["partitions.self_s"] == pytest.approx(1_000e-9)
    assert m["schubert.a_matrix_s"] == pytest.approx(4_000e-9)
    assert m["partitions.lr_miss"] == 1
    assert m["partitions.lr_kept_ratio"] == 0.25
    assert m["trace.accounted_ratio"] == pytest.approx(0.95)


def _bindings():
    """Every (namespace, attribute) that holds a traced function, with its value."""
    found = {}
    names = {name for layer in spans.TARGETS.values() for name in layer if "." not in name}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "detchern" or mod_name.startswith("detchern."):
            for attr in names & set(vars(mod)):
                found[(mod_name, attr)] = getattr(mod, attr)
    found[("ChowClass", "__mul__")] = schubert.ChowClass.__dict__["__mul__"]
    return found


def test_wrappers_are_restored_after_a_traced_run(capsys):
    before = _bindings()
    assert schubert.lr_expansion is partitions.lr_expansion
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert schubert.lr_expansion is not before[("detchern.schubert", "lr_expansion")]
        assert cli.run(["ged", "-m", "4", "-n", "4", "-k", "2"]) == 0
    finally:
        tracer.restore()
    traced_out = capsys.readouterr().out
    names = {s[0] for s in tracer.spans}
    assert {"cli.run", "lagrangian.ged", "schubert.a_matrix", "partitions.lr_expansion"} <= names
    assert _bindings() == before
    recorded = len(tracer.spans)
    assert cli.run(["ged", "-m", "4", "-n", "4", "-k", "2"]) == 0
    assert len(tracer.spans) == recorded
    assert capsys.readouterr().out == traced_out


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (24, 100 * 14 / 24), (106, 100 * 96 / 106)])
def test_op_ms_tail_has_ten_ops_beyond_it_in_a_pass(n, percentile):
    times = [random.Random(n).sample(range(n), n)]
    value, pct = run.op_tail(times)
    assert pct == pytest.approx(percentile)
    assert sum(ms > value for ms in times[0]) == 10


def test_op_ms_tail_is_the_mean_over_passes():
    times = [[float(i + k) for i in range(24)] for k in (0, 10, 2)]  # median 15, mean 17
    assert run.op_tail(times) == (13.0 + 4, pytest.approx(100 * 14 / 24))


@pytest.mark.parametrize("n", [1, 5, 10])
def test_op_ms_tail_of_a_short_pass_is_its_slowest_op(n):
    times = [[float(i + k) for i in range(n)] for k in (0, 10, 2)]
    assert run.op_tail(times) == (float(n - 1 + 4), 100.0)


class TenSecondPasses:
    """A workload whose passes take ten seconds of a fake clock."""

    setup_repeats = 1

    def __init__(self, min_passes, now):
        self.min_passes, self.now = min_passes, now

    def setup(self):
        return 0.1

    def run_passes(self, rng, traced):
        self.now[0] += 10.0
        return [None for _ in traced]


@pytest.mark.parametrize("min_passes, seconds, passes", [(1, 24, 2), (3, 24, 3), (3, 16, 2), (3, 12, 1)])
def test_pass_count_follows_the_budget_and_min_passes(monkeypatch, min_passes, seconds, passes):
    now = [0.0]
    monkeypatch.setattr(run, "clock", lambda: now[0])
    measured = run.measure(TenSecondPasses(min_passes, now), 1, seconds, False, started=0.0)
    assert len(measured["passes"]) == passes


class TinyCases(workloads.ColdCases):
    CASES = ("ged -m 3 -n 3 -k 1", "ged -m 3 -n 3 -k 2", "ged -m 4 -n 4 -k 1")


def _tiny_run(tmp_path, expected):
    work = tmp_path / "work"
    work.mkdir()
    wl = TinyCases(work, deadline=workloads.clock() + 120)
    wl.expected = expected
    measured = {"setups": [wl.setup()], "passes": wl.run_passes(random.Random(1), (False,))}
    return run.report(wl, 1, False, measured)[1]


def _tiny_expected():
    return {
        text: json.dumps({
            "basis": "scalar", "coefficients": [value], "k": k, "kind": "ged", "m": m,
            "meta": {"params": {"k": k, "m": m, "n": n}, "tool": "detchern 0.1.0"}, "n": n, "version": "1",
        }, sort_keys=True) + "\n"
        for text, (m, n, k, value) in zip(TinyCases.CASES, [(3, 3, 1, "39"), (3, 3, 2, "39"), (4, 4, 1, "284")])
    }


def test_expected_outputs_pass(tmp_path):
    result = _tiny_run(tmp_path, _tiny_expected())
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_corrupted_expected_output_fails_the_op(tmp_path):
    expected = _tiny_expected()
    expected["ged -m 4 -n 4 -k 1"] = expected["ged -m 4 -n 4 -k 1"].replace("284", "285")
    result = _tiny_run(tmp_path, expected)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(2 / 3)


def _ged_result(m, n, k, value):
    doc = {"coefficients": [value], "k": k, "kind": "ged", "m": m, "n": n}
    return workloads.OpResult(f"ged -m {m} -n {n} -k {k}", 1.0, None, stdout=json.dumps(doc).encode())


def test_cross_check_uses_tables_and_dual_partners():
    table_row = _ged_result(4, 4, 1, "283")  # tables.GED says 284
    pair = [_ged_result(7, 7, 3, "10"), _ged_result(7, 7, 4, "11")]
    fine = _ged_result(5, 5, 4, "2205")
    workloads.cross_check([table_row, *pair, fine])
    assert table_row.error == "differs from detchern.tables"
    assert all(r.error and "dual partner" in r.error for r in pair)
    assert fine.error is None


def test_every_op_has_an_expected_output():
    cli_expected = workloads.load_expected("cli")
    texts = [*workloads.ColdCases.CASES, *workloads.WarmCli.SEED_OPS]
    texts += [t for group in workloads.WarmCli.KINDS.values() for t in group]
    assert set(texts) == set(cli_expected)
    sweep = workloads.Sweep(Path("unused"), deadline=0.0)
    assert {op.key for op in sweep.ops(random.Random(0))} == set(sweep.expected)


def test_warm_cli_pattern_uses_every_op_once():
    kinds = workloads.WarmCli.KINDS
    pattern = workloads.WarmCli.PATTERN
    assert {k: pattern.count(k) for k in kinds} == {k: len(v) for k, v in kinds.items()}
    assert pattern[0] == "G"
    ops = workloads.WarmCli(Path("unused"), deadline=0.0).ops(random.Random(5))
    assert sorted(op.key for op in ops) == sorted(t for v in kinds.values() for t in v)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    fake = workloads.PassResult(1.0, 1.0, 1.0, [workloads.OpResult("x", 1.0, "thin")], False)
    reported = set(run.pass_metrics(fake)) | {"op_ms_p50", "op_ms_tail", "setup_s", "ok_ratio"}
    assert reported == set(end_to_end)
    layer_names = set(spans.pass_layer_metrics([], [], 1.0, 0, 0)) | {"trace.overhead_s"}
    assert layer_names == set(per_layer)
    assert all(run.unit_of(name) == unit for name, unit in {**end_to_end, **per_layer}.items())
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)


def test_traced_twin_passes_give_every_layer_metric(tmp_path):
    wl = TinyCases(tmp_path, deadline=workloads.clock() + 120)
    wl.expected = _tiny_expected()
    passes = wl.run_passes(random.Random(2), (False, True))
    assert [p.traced for p in passes] == [False, True]
    assert [op.key for op in passes[0].ops] == [op.key for op in passes[1].ops]
    _, result = run.report(wl, 2, True, {"setups": [], "passes": passes})
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] and result["attempted"] == 6
    assert result["metrics"]["partitions.lr_calls"]["value"] > 0
    assert 0.5 < result["metrics"]["trace.accounted_ratio"]["value"] <= 1.0
