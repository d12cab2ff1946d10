import contextlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import detchern
from detchern import classes, cli, lagrangian, microlocal, schubert
from detchern.classes import ProjClass, StrataVector
from detchern.cli import (
    CACHE_VERSION,
    OutputDocument,
    ScanReport,
    compute_document,
    default_fixtures,
    reproduce_reference_tables,
    run,
    scan_conjectures,
)
from detchern.errors import BoxSizeError, ParameterError, check_params
from detchern.lagrangian import SymmetryReport


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_csm_csv(capsys):
    code, out, _ = invoke(capsys, "csm", "-m", "3", "-n", "3", "-k", "1", "--format", "csv")
    assert code == 0
    assert out.strip() == "9,36,78,108,96,54,18,3,0"


def test_ged_csv(capsys):
    code, out, _ = invoke(capsys, "ged", "-m", "6", "-n", "6", "-k", "1", "--format", "csv")
    assert code == 0
    assert out.strip() == "17730"


def test_amatrix_markdown(capsys):
    code, out, _ = invoke(capsys, "amatrix", "-m", "4", "-n", "3", "-k", "2", "--format", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header, separator, five rows
    assert "| 0 | 3 | 12 | 10 | 0 | 0 |" in lines


def test_json_document_roundtrip(capsys):
    code, out, _ = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1")
    assert code == 0
    doc = OutputDocument(**json.loads(out))
    assert doc.to_json() == out.strip()
    assert doc.kind == "cm"
    assert doc.coefficients == [str(v) for v in (18, 54, 102, 126, 102, 54, 18, 3, 0)]


def test_document_roundtrip_all_vector_kinds():
    for kind in ["cm", "csm", "csm_open", "eu", "conormal", "charcycle",
                 "charcycle_open", "polar", "ged", "microlocal", "amatrix", "dual_check"]:
        doc = compute_document(kind, 3, 3, 1)
        assert OutputDocument(**json.loads(doc.to_json())) == doc
    for kind in ["fulton", "milnor"]:
        doc = compute_document(kind, None, 3, None)
        assert OutputDocument(**json.loads(doc.to_json())) == doc


def test_output_determinism(capsys):
    first = invoke(capsys, "conormal", "-m", "4", "-n", "4", "-k", "2")
    second = invoke(capsys, "conormal", "-m", "4", "-n", "4", "-k", "2")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_parameter_error_exit_code(capsys):
    code, _, err = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "7")
    assert code == 2
    assert "error" in err


def test_missing_flags_exit_code(capsys):
    code, _, _ = invoke(capsys, "cm", "-m", "3")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_oversize_box_refused(capsys):
    # box 6x7 = 42 cells exceeds the default guardrail of 36
    code, _, err = invoke(capsys, "cm", "-m", "13", "-n", "13", "-k", "6")
    assert code == 2 and "cell limit" in err


def test_max_box_flag_overrides_limit(capsys):
    # amatrix always rebuilds the box, so the limit bites in both directions
    code, _, err = invoke(capsys, "amatrix", "-m", "3", "-n", "3", "-k", "1", "--max-box", "1")
    assert code == 2 and "cell limit" in err
    code, out, _ = invoke(
        capsys, "amatrix", "-m", "3", "-n", "3", "-k", "1", "--max-box", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "3,9,3,0,0,0,0"


# gED of thin boxes past the 36-cell default (2x28 is 56 cells).  A dual pair
# shares one Miller pass, so its agreement checks only the corner flip: each
# value was also computed by Chern-root integration over G(k, n) with the two
# roots of S* (k = 2) or of Q (k = n-2), an engine with no Schubert basis, no
# LR rule and no fixed points, and its A gave the same gED by the library's
# contraction and by the corner sum (-1)^dim sum_(i<=p) (-1)^(p-i) 2^p A[i][p]
@pytest.mark.parametrize("m,k,limit,value", [
    (30, 2, ["--max-box", "56"], "429551821262963651844037078957034821874546034307155"),
    (30, 28, ["--max-box", "56"], "429551821262963651844037078957034821874546034307155"),
    (20, 2, [], "83330008371330512785423312435710"),
    (20, 18, [], "83330008371330512785423312435710"),
])
def test_ged_of_thin_boxes_past_the_default_limit(capsys, m, k, limit, value):
    argv = ["ged", "-m", str(m), "-n", str(m), "-k", str(k), "--format", "csv"]
    assert invoke(capsys, *argv, *limit)[:2] == (0, value + "\n")
    if limit:
        assert invoke(capsys, *argv)[:2] == (2, "")


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_max_box_below_one_names_the_flag(capsys, limit):
    # no box fits such a limit, so raising it with set_box_cell_limit() is
    # not the advice to give: the flag's value itself is wrong
    code, out, err = invoke(capsys, "amatrix", "-m", "3", "-n", "3", "-k", "1", "--max-box", limit)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --max-box: the box cell limit must be at least 1, got {limit}\n")
    assert schubert._box_cell_limit == schubert.DEFAULT_BOX_CELL_LIMIT


def test_refused_box_names_the_flag(capsys):
    # csm runs every stratum; the rank-2 one needs box 2x3, past the limit of 4
    code, out, err = invoke(capsys, "csm", "-m", "5", "-n", "5", "-k", "1", "--max-box", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: box 2x3 exceeds the cell limit 4; raise it with --max-box\n")
    assert schubert._box_cell_limit == schubert.DEFAULT_BOX_CELL_LIMIT
    with pytest.raises(BoxSizeError, match=r"raise it with set_box_cell_limit\(\)$"):
        schubert.Box(6, 7)


@pytest.mark.parametrize("argv", [
    ["csm", "-m", "6", "-n", "6", "-k", "1"],
    ["charcycle", "-m", "6", "-n", "6", "-k", "1"],
    ["cm", "-m", "6", "-n", "6", "-k", "1", "--check"],  # its checks read every stratum
    ["scan", "-m", "6", "-n", "6"],
], ids=["csm", "charcycle", "cm-check", "scan"])
def test_refusal_comes_before_any_class(capsys, monkeypatch, argv):
    # strata 1x5 and 2x4 fit a limit of 8 and 3x3 does not: no class of the
    # strata that fit is computed before the refusal
    calls = []
    for module in (classes, cli, lagrangian):
        real = module.cm_class
        monkeypatch.setattr(module, "cm_class", lambda *a, real=real: calls.append(a) or real(*a))
    code, out, err = invoke(capsys, *argv, "--max-box", "8")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: box 3x3 exceeds the cell limit 8; raise it with --max-box\n")


def test_refusal_names_the_box_asked_for(capsys):
    # G(2, 5) is the 2x3 box; its pass runs in the tall partner 3x2
    code, out, err = invoke(capsys, "amatrix", "-m", "5", "-n", "5", "-k", "2", "--max-box", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: box 2x3 exceeds the cell limit 4; raise it with --max-box\n")


def test_warm_cache_refuses_a_box_past_the_limit(capsys, tmp_path, monkeypatch):
    # a class read from cm.json is refused like one computed: the limit is a
    # property of the request, so the cache changes no exit code
    argv = ["csm", "-m", "5", "-n", "5", "-k", "1", "--cache-dir", str(tmp_path)]
    assert invoke(capsys, *argv)[0] == 0
    monkeypatch.setattr(classes, "_CM_CACHE", {})  # the classes come from the file
    code, out, err = invoke(capsys, *argv, "--max-box", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: box 2x3 exceeds the cell limit 4; raise it with --max-box\n")


USAGE = """usage: detchern [-h]
                {cm,csm,csm_open,eu,fulton,milnor,conormal,charcycle,charcycle_open,polar,ged,microlocal,amatrix,dual_check,symmetry,scan,tables}
                ...
"""
HELP = USAGE + """
Exact characteristic classes and cycles of determinantal varieties.

positional arguments:
  {cm,csm,csm_open,eu,fulton,milnor,conormal,charcycle,charcycle_open,polar,ged,microlocal,amatrix,dual_check,symmetry,scan,tables}

options:
  -h, --help            show this help message and exit
"""
CM_HELP = """usage: detchern cm [-h] [-m M] [-n N] [-k K] [--format {json,csv,markdown}]
                   [--cache-dir CACHE_DIR] [--max-box MAX_BOX] [--check]

options:
  -h, --help            show this help message and exit
  -m M
  -n N
  -k K
  --format {json,csv,markdown}
  --cache-dir CACHE_DIR
  --max-box MAX_BOX
  --check
"""
FROBNICATE = USAGE + (
    "detchern: error: argument command: invalid choice: 'frobnicate' (choose from "
    "'cm', 'csm', 'csm_open', 'eu', 'fulton', 'milnor', 'conormal', 'charcycle', "
    "'charcycle_open', 'polar', 'ged', 'microlocal', 'amatrix', 'dual_check', "
    "'symmetry', 'scan', 'tables')\n"
)


def test_help_and_usage_text(capsys, monkeypatch):
    # every command shares one parent parser of options; its help must read
    # as when each command declared them itself (text of CPython 3.10-3.11)
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, "--help") == (0, HELP, "")
    assert invoke(capsys, "cm", "--help") == (0, CM_HELP, "")
    assert invoke(capsys, "frobnicate") == (2, "", FROBNICATE)


def test_import_loads_no_dataclasses_and_tables_on_demand():
    # pytest itself imports dataclasses, so a fresh interpreter without
    # site-packages checks what importing the CLI pulls in
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); import detchern.cli as cli; "
              "loaded = sorted({'dataclasses', 'inspect', 'detchern.tables'} & sys.modules.keys()); "
              "assert not loaded, loaded; "
              "cli.default_fixtures(); assert 'detchern.tables' in sys.modules")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_check_flag(capsys):
    code, _, _ = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--check")
    assert code == 0
    code, _, _ = invoke(capsys, "microlocal", "-m", "4", "-n", "4", "-k", "2", "--check")
    assert code == 0


def test_dual_check(capsys):
    code, out, _ = invoke(capsys, "dual_check", "-m", "4", "-n", "4", "-k", "1")
    assert code == 0
    doc = OutputDocument(**json.loads(out))
    assert doc.meta["dual_of"] == "(4,4,3)"


def test_dual_check_rejects_k_zero(capsys):
    code, _, err = invoke(capsys, "dual_check", "-m", "3", "-n", "3", "-k", "0")
    assert code == 2
    assert "k=0" in err


def _cm_check_with_forged_trace(capsys, monkeypatch, forge):
    """cm -m 3 -n 3 -k 1 --check with the classes of every stratum computed
    first from the true corner, so only the trace route reads the forged one."""
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    for stratum in (1, 2):
        classes.cm_class(3, 3, stratum)
    real_a_matrix = classes.a_matrix

    def bad_a_matrix(m, n, k):
        A = real_a_matrix(m, n, k)
        forge(A)
        return A

    monkeypatch.setattr(classes, "a_matrix", bad_a_matrix)
    return invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--check")


def test_check_flag_reports_trace_failure(capsys, monkeypatch):
    # a corrupted corner entry A[0][dim] moves the trace route off the class,
    # which must surface as a consistency failure, not a traceback
    code, _, err = _cm_check_with_forged_trace(capsys, monkeypatch, lambda A: A[0].__setitem__(-1, A[0][-1] + 1))
    assert code == 3
    assert "consistency failure: trace route disagrees at (3,3,1)" in err and "Traceback" not in err


def test_check_flag_reports_a_negative_hyperplane_power(capsys, monkeypatch):
    # a row of A longer than dim+1 with a nonzero entry at p = mk+1 = 4 leaves
    # H^(mk+j-p) = H^-1 in the trace at j = 0: the trace route's own raise
    code, _, err = _cm_check_with_forged_trace(capsys, monkeypatch, lambda A: A[0].extend([0, 1]))
    assert code == 3
    assert "consistency failure: negative hyperplane power survived: H^-1" in err and "Traceback" not in err


def test_amatrix_keeps_the_papers_size_at_large_m(capsys):
    # a_matrix returns the 3x3 corner; the document pads it to m(n-k)+1 = 61
    code, out, _ = invoke(capsys, "amatrix", "-m", "30", "-n", "3", "-k", "1", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 61 and all(len(row) == 61 for row in rows)
    assert rows[0][:4] == ["3", "90", "435", "0"]
    assert not any(int(a) for row in rows[3:] for a in row) and not any(int(a) for row in rows for a in row[3:])


def _doubled(real):
    return lambda *args: 2 * real(*args)


CHECK_ROUTES = [
    ("cm --check", cli, "cm_class_via_trace", _doubled, "trace route disagrees at (4,4,2)"),
    ("csm --check", cli, "cm_class_via_trace", _doubled, "trace route disagrees at (4,4,2)"),
    ("csm_open --check", cli, "cm_class_via_trace", _doubled, "trace route disagrees at (4,4,2)"),
    ("conormal --check", cli, "dagger", _doubled, "conormal flip duality fails at (4,4,2)"),
    ("charcycle --check", cli, "ch_from_class", _doubled, "characteristic cycle routes disagree at (4,4,2)"),
    ("charcycle_open --check", cli, "ch_from_class", _doubled,
     "open characteristic cycle routes disagree at (4,4,2)"),
    ("dual_check", cli, "dual_cm", _doubled, "involution image differs from the dual variety class at (4,4,2)"),
    ("microlocal --check", microlocal, "stalk_euler",
     lambda real: lambda m, n, k: StrataVector(0, (1, *real(m, n, k).values[1:])),
     "ambient stratum received nonzero multiplicity 1 for (4,4,2)"),
    ("microlocal --check", microlocal, "obstruction_matrix",
     lambda real: lambda n: [[int(i == j) for i in range(n)] for j in range(n)],
     "microlocal combination differs from the conormal cycle for (4,4,2)"),
]


@pytest.mark.parametrize("argv,module,name,fake,message", CHECK_ROUTES, ids=[
    "trace", "csm_trace", "csm_open_trace", "conormal", "charcycle", "charcycle_open", "dual_check",
    "ambient_stratum", "ic_combination"])
def test_each_check_route_fails_through_run(capsys, monkeypatch, argv, module, name, fake, message):
    # one route made to disagree with the other: exit 3 naming the route and
    # the case, nothing on stdout, no traceback
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    code, out, err = invoke(capsys, *argv.split(), "-m", "4", "-n", "4", "-k", "2")
    assert (code, out) == (3, "")
    assert f"consistency failure: {message}\n" in err and "Traceback" not in err


def test_kinds_table_matches_its_tests_and_the_readme():
    # a kind gains a check only with a test that makes it fail, and the
    # kinds without one are the README's "nothing more" list
    checked = {kind for kind, (_, _, check) in cli.KINDS.items() if check}
    assert checked == {argv.split()[0] for argv, *_ in CHECK_ROUTES if "--check" in argv.split()}
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^- (.*?): nothing more", readme, re.M)
    assert {kind for line in listed for kind in re.findall(r"`(\w+)`", line)} == cli.KINDS.keys() - checked


@pytest.mark.parametrize(
    "m,n,k,kind",
    [(m, n, k, kind) for m, n, k in [(4, 4, 0), (4, 4, 2), (5, 3, 2), (6, 4, 1)] for kind in ("cm", "csm", "csm_open")]
    + [(4, 4, 2, kind) for kind in cli.KINDS if kind not in {"cm", "csm", "csm_open", "fulton", "milnor"}]
    + [(None, 3, None, "fulton"), (None, 3, None, "milnor")],
)
def test_check_flag_closed_forms_leave_stdout_unchanged(capsys, m, n, k, kind):
    # --check adds assertions to every kind and never changes what it prints
    argv = [kind, "-n", str(n)] + ([] if m is None else ["-m", str(m), "-k", str(k)])
    plain = invoke(capsys, *argv)
    checked = invoke(capsys, *argv, "--check")
    assert plain[0] == checked[0] == 0
    assert plain[1] == checked[1]


def forge_cm_entry(tmp_path, key, index, delta):
    m, n, k = key
    coeffs = list(classes.cm_class(m, n, k).coeffs)
    coeffs[index] += delta
    payload = {"version": CACHE_VERSION, "cm": {",".join(map(str, key)): [str(c) for c in coeffs]}}
    (tmp_path / "cm.json").write_text(json.dumps(payload))


def assert_forged_cache_is_named_then_rebuilt(capsys, monkeypatch, cache, argv, key, why):
    # --check exits 3 naming the file and leaves it as it is; a plain run warns,
    # answers as a run without the cache does and rewrites the entry to the true
    # class, which a second --check then accepts
    path = cache / "cm.json"
    text = path.read_text()
    code, out, err = invoke(capsys, *argv, "--check", "--cache-dir", str(cache))
    assert code == 3 and out == ""
    assert f"consistency failure: cache {path}: {why}" in err and "Traceback" not in err
    assert path.read_text() == text
    truth = invoke(capsys, *argv)
    assert truth[0] == 0
    monkeypatch.setattr(classes, "_CM_CACHE", {})  # nothing memoized hides the file
    monkeypatch.setattr(lagrangian, "_CON_CACHE", {})
    code, out, err = invoke(capsys, *argv, "--cache-dir", str(cache))
    assert (code, out) == (0, truth[1])
    assert f"warning: ignoring corrupt cache {path}: {why}" in err
    entry = json.loads(path.read_text())["cm"][",".join(map(str, key))]
    assert entry == [str(c) for c in classes.cm_class(*key).coeffs]
    assert invoke(capsys, *argv, "--check", "--cache-dir", str(cache))[0] == 0


def test_a_forged_middle_coefficient_changes_no_lagrangian_answer(capsys, tmp_path, monkeypatch):
    # [P^36] of c_M(tau(7, 7, 3)) lies between the closed forms at [P^0] and
    # [P^39], so the forged entry loads.  The cycles are read off A and print
    # a cold run's bytes; every route that compares with a class read from the
    # file exits 3, and plain `cm` prints the entry as it is
    argv = ["-m", "7", "-n", "7", "-k", "3"]
    cache = ["--cache-dir", str(tmp_path)]
    assert invoke(capsys, "cm", *argv, *cache)[0] == 0
    truth = {kind: invoke(capsys, kind, *argv)[1] for kind in ("conormal", "charcycle")}
    path = tmp_path / "cm.json"
    data = json.loads(path.read_text())
    data["cm"]["7,7,3"][36] = str(int(data["cm"]["7,7,3"][36]) + 1)
    path.write_text(json.dumps(data))

    def warm(*args):
        monkeypatch.setattr(classes, "_CM_CACHE", {})  # as a fresh process: only the file is warm
        monkeypatch.setattr(lagrangian, "_CON_CACHE", {})
        return invoke(capsys, *args, *argv, *cache)

    for kind, cold in truth.items():
        assert warm(kind)[:2] == (0, cold)
    for args, why in [(["ged"], "polar degree routes disagree for (7,7,3)"),
                      (["polar"], "polar degree routes disagree for (7,7,3)"),
                      (["charcycle", "--check"], "characteristic cycle routes disagree at (7,7,3)"),
                      (["cm", "--check"], "trace route disagrees at (7,7,3)")]:
        code, out, err = warm(*args)
        assert (code, out) == (3, "")
        assert f"consistency failure: {why}" in err and "Traceback" not in err
        # and the line names the file and the class it read from there
        assert f"; cache {path} holds c_M of (7,7,3)\n" in err
    code, out, _ = warm("cm", "--format", "csv")
    assert code == 0 and out.split(",")[36] == data["cm"]["7,7,3"][36]
    assert json.loads(path.read_text()) == data


@pytest.mark.parametrize("kind", ["cm", "csm", "csm_open"])
def test_check_flag_rejects_forged_degree(capsys, tmp_path, monkeypatch, kind):
    # tau(4, 4, 2) has dimension 11 and Porteous degree 20; the forged entry
    # passes the load-time shape check, and the closed forms on load catch it
    forge_cm_entry(tmp_path, (4, 4, 2), 11, 1)
    argv = [kind, "-m", "4", "-n", "4", "-k", "2"]
    why = "cm of (4,4,2) has 21 at [P^11], not the degree 20"
    assert_forged_cache_is_named_then_rebuilt(capsys, monkeypatch, tmp_path, argv, (4, 4, 2), why)


def test_check_flag_rejects_a_wrong_euler_characteristic_of_cm(capsys, monkeypatch):
    # tau(4, 4, 2): mn binom(n-1, k) = 16 * 3 = 48 at [P^0]
    real_cm_class = cli.cm_class

    def off_at_p0(m, n, k):
        cls = real_cm_class(m, n, k)
        return ProjClass(cls.ambient_dim, (cls.coeffs[0] + 1, *cls.coeffs[1:]))

    monkeypatch.setattr(cli, "cm_class", off_at_p0)
    code, out, err = invoke(capsys, "cm", "-m", "4", "-n", "4", "-k", "2", "--check")
    assert (code, out) == (3, "")
    assert "cm of (4,4,2) has 49 at [P^0], not the Euler characteristic 48" in err


@pytest.mark.parametrize("kind,k", [("csm", 2), ("csm_open", 3)])
def test_check_flag_rejects_forged_euler_characteristic(capsys, tmp_path, monkeypatch, kind, k):
    forge_cm_entry(tmp_path, (4, 4, 3), 0, 1)
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    code, out, err = invoke(capsys, kind, "-m", "4", "-n", "4", "-k", str(k), "--check", "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert "not the Euler characteristic 16" in err


def test_symmetry_report(capsys):
    code, out, _ = invoke(capsys, "symmetry", "-m", "4", "-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 4  # parity check + flip identity per k


def test_symmetry_failure_exit_code(capsys, monkeypatch):
    report = SymmetryReport(4, 4, checks=[("parity", True), ("binomial flip identity at k=1", False)])
    monkeypatch.setattr(cli, "symmetry_check", lambda m, n: report)
    code, out, _ = invoke(capsys, "symmetry", "-m", "4", "-n", "4")
    assert code == 3
    assert json.loads(out)["ok"] is False
    code, out, _ = invoke(capsys, "symmetry", "-m", "4", "-n", "4", "--format", "csv")
    assert code == 3
    assert out.splitlines() == ["PASS parity", "FAIL binomial flip identity at k=1"]


def test_scan_subcommand(capsys):
    code, out, _ = invoke(capsys, "scan", "-m", "4", "-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["effectivity_violations"] == []
    assert payload["vanishing_violations"] == []


def test_scan_violation_exit_code(capsys, monkeypatch):
    report = ScanReport(3, 3, instances_checked=4, vanishing_violations=[(3, 3, 1, 0, 1)])
    monkeypatch.setattr(cli, "scan_conjectures", lambda m_max, n_max: report)
    code, out, _ = invoke(capsys, "scan", "-m", "3", "-n", "3")
    assert code == 3
    assert json.loads(out)["ok"] is False
    code, out, _ = invoke(capsys, "scan", "-m", "3", "-n", "3", "--format", "csv")
    assert code == 3
    assert "vanishing_violations,1" in out


def test_scan_flags_each_violation_of_its_rules(capsys, monkeypatch):
    # a -1 is an effectivity violation; for n = 3, k = 1 the coefficient at
    # [P^0] = [P^(n-k-2)] must vanish and the one at [P^(n-k-1)] need not
    rows = {(2, 2, 1): (5, -1, 0, 0), (3, 2, 1): (0,) * 6,
            (3, 3, 1): (2, 3, *(0,) * 7), (3, 3, 2): (-1, *(0,) * 8)}
    monkeypatch.setattr(cli, "csm_open", lambda m, n, k: ProjClass(m * n - 1, rows[m, n, k]))
    report = scan_conjectures(3, 3)
    assert report.instances_checked == 4
    assert report.effectivity_violations == [(2, 2, 1, 1, -1), (3, 3, 2, 0, -1)]
    assert report.vanishing_violations == [(3, 3, 1, 0, 2)]
    code, out, _ = invoke(capsys, "scan", "-m", "3", "-n", "3")
    assert code == 3
    payload = json.loads(out)
    assert payload["effectivity_violations"] == [[2, 2, 1, 1, -1], [3, 3, 2, 0, -1]]
    assert payload["vanishing_violations"] == [[3, 3, 1, 0, 2]]
    code, out, _ = invoke(capsys, "scan", "-m", "3", "-n", "3", "--format", "csv")
    assert code == 3
    assert out.splitlines() == ["instances_checked,4", "effectivity_violations,2", "vanishing_violations,1"]


def test_scan_instance_enumeration():
    report = scan_conjectures(3, 3)
    # (2,2,1), (3,2,1), (3,3,1), (3,3,2)
    assert report.instances_checked == 4
    assert report.ok


def test_scan_parameter_validation():
    with pytest.raises(ParameterError):
        scan_conjectures(3, 4)


def test_tables_subcommand(capsys):
    code, out, _ = invoke(capsys, "tables", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "mismatches,0"


def test_reproduce_tables_clean():
    report = reproduce_reference_tables()
    assert report.ok
    assert report.cells_checked > 500


def test_reproduce_tables_flags_corrupted_fixture():
    fixtures = default_fixtures()
    kind, key, row = fixtures[0]
    corrupted = [(kind, key, tuple(v + 1 for v in row))] + fixtures[1:]
    report = reproduce_reference_tables(corrupted)
    assert not report.ok
    assert all(item[0] == kind and item[1] == key for item in report.mismatches)


@pytest.mark.parametrize("cm_cells,a_rows", [(4, 2), (-1, -1)])
def test_reproduce_tables_flags_a_short_fixture(cm_cells, a_rows):
    # a fixture with fewer cells or rows than the computed value must not
    # pass by comparing only the cells the two have in common
    fixtures = {(kind, key): value for kind, key, value in default_fixtures()}
    short = [("cm", (3, 3, 1), fixtures["cm", (3, 3, 1)][:cm_cells]),
             ("amatrix", (3, 3, 1), fixtures["amatrix", (3, 3, 1)][:a_rows])]
    report = reproduce_reference_tables(short)
    assert not report.ok
    assert {item[0] for item in report.mismatches} == {"cm", "amatrix"}
    assert report.cells_checked == 9 + 7 * 7


def test_reproduce_tables_flags_a_long_fixture():
    kind, key, row = next(f for f in default_fixtures() if f[0] == "cm")
    report = reproduce_reference_tables([(kind, key, row + (0,))])
    assert report.mismatches == [(kind, key, len(row), "0", "None")]


def test_reproduce_tables_empty_fixture_set():
    report = reproduce_reference_tables([])
    assert report.ok and report.cells_checked == 0


def test_cache_cold_vs_warm(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    cold = invoke(capsys, "cm", "-m", "4", "-n", "4", "-k", "2", "--cache-dir", cache)
    assert cold[0] == 0
    assert (tmp_path / "cache" / "cm.json").exists()
    warm = invoke(capsys, "cm", "-m", "4", "-n", "4", "-k", "2", "--cache-dir", cache)
    assert warm[0] == 0
    assert cold[1] == warm[1]


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("DETCHERN_CACHE_DIR", cache)
    code, _, _ = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "2")
    assert code == 0
    # only Chern-Mather classes persist, and no temp file is left behind
    assert sorted(p.name for p in (tmp_path / "envcache").iterdir()) == ["cm.json"]
    code, _, _ = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "2")
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "envcache").iterdir()) == ["cm.json"]


def test_cache_hit_leaves_file_untouched(capsys, tmp_path):
    cache = tmp_path / "cache"
    cold = invoke(capsys, "cm", "-m", "4", "-n", "3", "-k", "1", "--cache-dir", str(cache))
    before = (cache / "cm.json").stat()
    warm = invoke(capsys, "cm", "-m", "4", "-n", "3", "-k", "1", "--cache-dir", str(cache))
    after = (cache / "cm.json").stat()
    assert cold[:2] == warm[:2] and warm[0] == 0
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_a_warm_run_serves_its_classes_from_the_file(capsys, tmp_path, monkeypatch):
    # the file is seeded, and each warm run starts with the memos emptied as
    # in a fresh process.  Every binding of the engine is counted: a_matrix
    # where classes, lagrangian and cli read it, and the Miller pass under
    # them all.  cm.json holds only c_M, so a warm `cm` runs no pass, and a
    # warm `ged` runs exactly one: its conormal route reads A, not c_M
    from conftest import empty_engine_memos

    runs = [["cm", "-m", "4", "-n", "4", "-k", "2"], ["ged", "-m", "4", "-n", "4", "-k", "2"]]
    cold = [invoke(capsys, *argv, "--cache-dir", str(tmp_path))[:2] for argv in runs]
    assert [code for code, _ in cold] == [0, 0]
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for module in (classes, lagrangian, cli):
        monkeypatch.setattr(module, "a_matrix", counted(f"{module.__name__}.a_matrix", module.a_matrix))
    monkeypatch.setattr(schubert, "_miller_pass", counted("pass", schubert._miller_pass))
    for argv, want, engine in zip(runs, cold, [[], ["detchern.lagrangian.a_matrix", "pass"]]):
        empty_engine_memos()
        calls.clear()
        assert invoke(capsys, *argv, "--cache-dir", str(tmp_path))[:2] == want
        assert calls == engine


def test_cache_missing_entry_rewritten(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(classes, "_CM_CACHE", {})  # (3,3,1) reaches the new file only through the old one
    cache = tmp_path / "cache"
    cache.mkdir()
    cm_331 = ["18", "54", "102", "126", "102", "54", "18", "3", "0"]
    (cache / "cm.json").write_text(json.dumps({"version": CACHE_VERSION, "cm": {"3,3,1": cm_331}}))
    code, _, err = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "2", "--cache-dir", str(cache))
    assert code == 0
    assert "warning" not in err
    rebuilt = json.loads((cache / "cm.json").read_text())["cm"]
    assert rebuilt["3,3,1"] == cm_331
    assert "3,3,2" in rebuilt


def test_cache_stale_lr_file_ignored(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "lr.json").write_text("{not json")
    code, out, err = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--cache-dir", str(cache))
    assert code == 0
    assert "warning" not in err
    assert json.loads(out)["coefficients"][0] == "18"
    assert (cache / "lr.json").read_text() == "{not json"


def test_cache_unwritable_dir_warns(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--cache-dir", str(blocker / "sub"))
    assert code == 0
    assert "warning: could not save cache" in err
    assert "Traceback" not in err
    assert json.loads(out)["coefficients"][0] == "18"


def test_cache_save_that_fails_partway_leaves_the_old_file(capsys, tmp_path, monkeypatch):
    # the write dies after its first bytes: run warns and exits 0, the temp
    # file is removed and cm.json keeps the bytes of the last good save
    monkeypatch.setattr(classes, "_CM_CACHE", {})  # the second run has a class to add
    cache = tmp_path / "cache"
    assert invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--cache-dir", str(cache))[0] == 0
    before = (cache / "cm.json").read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"cm": {')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", dump_then_fail)
    code, out, err = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "2", "--cache-dir", str(cache))
    assert code == 0 and json.loads(out)["coefficients"][0] == "9"
    assert "warning: could not save cache" in err and "Traceback" not in err
    assert sorted(p.name for p in cache.iterdir()) == ["cm.json"]
    assert (cache / "cm.json").read_bytes() == before


CM_331 = ["18", "54", "102", "126", "102", "54", "18", "3", "0"]  # cm -m 3 -n 3 -k 1


@pytest.mark.parametrize("entry", [
    {"3,3,1": ["1"]},  # wrong coefficient count
    {"3,3,1": "123456789"},  # not a list
    {"3,3,9": ["0"] * 9},  # k out of range
    {"3,4,1": ["0"] * 12},  # n > m
    {"3,3,1": ["1"] * 9},  # well-formed, but nonzero above [P^7] = [P^dim]
    {"3,3,1": [*CM_331[:7], True, "0"]},  # a JSON bool, which int() reads as 1
    {"3,3,1": [*CM_331[:7], 3.5, "0"]},  # a JSON float, which int() truncates
    {"3,3,1": [*CM_331[:7], "٣", "0"]},  # a non-ASCII digit, which int() accepts
    # each of the next two passes the closed forms, which read only [P^0] and [P^dim]
    {"3,3,1": [*CM_331[:8], "1"]},  # nonzero at [P^8], above [P^7] = [P^dim]
    {"3,4,1": ["36", *["0"] * 10, "1"]},  # n > m, with 12 * binom(3, 1) at [P^0] and degree 1 at [P^11]
])
def test_cache_invalid_entry_rejected(capsys, tmp_path, monkeypatch, entry):
    monkeypatch.setattr(classes, "_CM_CACHE", {})  # the classes are read from the file
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "cm.json").write_text(json.dumps({"version": CACHE_VERSION, "cm": entry}))
    code, out, err = invoke(capsys, "csm", "-m", "3", "-n", "3", "-k", "1", "--cache-dir", str(cache))
    assert code == 0
    assert "warning: ignoring corrupt cache" in err
    assert json.loads(out)["coefficients"] == "9,36,78,108,96,54,18,3,0".split(",")
    rebuilt = json.loads((cache / "cm.json").read_text())["cm"]
    assert rebuilt["3,3,1"][0] == "18" and len(rebuilt["3,3,1"]) == 9
    assert rebuilt.keys() & entry.keys() <= {"3,3,1"}


@pytest.mark.parametrize("entry,why", [
    ([*CM_331[:7], "4", "0"], "cm of (3,3,1) has 4 at [P^7], not the degree 3"),
    (["19", *CM_331[1:]], "cm of (3,3,1) has 19 at [P^0], not the Euler characteristic 18"),
], ids=["degree", "euler"])
def test_cache_forged_closed_form_changes_no_answer(capsys, tmp_path, monkeypatch, entry, why):
    # both polar routes read the cached class, so only the load-time closed
    # forms see this
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "cm.json").write_text(json.dumps({"version": CACHE_VERSION, "cm": {"3,3,1": entry}}))
    argv = ["ged", "-m", "3", "-n", "3", "-k", "1", "--format", "csv"]
    assert_forged_cache_is_named_then_rebuilt(capsys, monkeypatch, cache, argv, (3, 3, 1), why)


def test_cache_corrupt_file_recovers(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "cm.json").write_text("{not json")
    code, out, err = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--cache-dir", str(cache))
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["coefficients"][0] == "18"
    assert json.loads((cache / "cm.json").read_text())["cm"]["3,3,1"][0] == "18"


def test_cache_non_object_file_recovers(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "cm.json").write_text("[]")
    code, out, err = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--cache-dir", str(cache))
    assert code == 0
    assert "warning: ignoring corrupt cache" in err
    assert json.loads(out)["coefficients"][0] == "18"


def test_cache_version_mismatch_rebuilt(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "cm.json").write_text(json.dumps({"version": "ancient", "cm": {"3,3,1": ["1"]}}))
    code, out, _ = invoke(capsys, "cm", "-m", "3", "-n", "3", "-k", "1", "--cache-dir", str(cache))
    assert code == 0
    assert json.loads(out)["coefficients"][0] == "18"
    rebuilt = json.loads((cache / "cm.json").read_text())
    assert rebuilt["version"] != "ancient"
    assert rebuilt["cm"]["3,3,1"][0] == "18"


def test_fulton_milnor_square_only(capsys):
    code, out, _ = invoke(capsys, "milnor", "-n", "3", "--format", "csv")
    assert code == 0
    assert out.strip() == "171,-54,24,0,6,0,0,0,0"
    code, _, _ = invoke(capsys, "fulton", "-m", "4", "-n", "3")
    assert code == 2


def test_csm_runs_one_miller_pass_per_dual_pair(capsys, monkeypatch):
    # the strata of tau(8, 8, 1) are the boxes j x (8-j), j = 1..7: seven
    # corners of A from four passes, in the tall boxes 7x1, 6x2, 5x3 and 4x4
    monkeypatch.delenv(cli.CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    asked, passes = [], []
    real, real_pass = classes.a_matrix, schubert._miller_pass
    monkeypatch.setattr(classes, "a_matrix", lambda *a: asked.append(a) or real(*a))
    monkeypatch.setattr(schubert, "_miller_pass", lambda box, m: passes.append((box.rows, box.cols)) or real_pass(box, m))
    schubert._corner.cache_clear()
    assert invoke(capsys, "csm", "-m", "8", "-n", "8", "-k", "1")[0] == 0
    assert sorted(asked) == [(8, 8, j) for j in range(1, 8)]
    assert sorted(passes) == [(4, 4), (5, 3), (6, 2), (7, 1)]


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["cm", "-m", "4", "-n", "4", "-k", "2"], ["scan", "-m", "4", "-n", "4"]],
                         ids=["document", "report"])
def test_a_closed_stdout_is_the_readers_choice(capsys, monkeypatch, tmp_path, argv):
    # no traceback, exit 0, and the cache is saved as by a run that printed
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    assert invoke(capsys, *argv, "--cache-dir", str(tmp_path / "plain"))[0] == 0
    classes._CM_CACHE.clear()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run([*argv, "--cache-dir", str(tmp_path / "closed")]) == 0
    assert re.fullmatch(r"elapsed_ms=\d+\n", capsys.readouterr().err)
    assert (tmp_path / "closed" / "cm.json").read_bytes() == (tmp_path / "plain" / "cm.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["ged", "-m", "3", "-n", "3", "-k", "1"],  # buffered until main() flushes it
    ["cm", "-m", "3000", "-n", "2", "-k", "1", "--format", "csv"],  # 1.97 MB: print itself fails
], ids=["short", "long"])
def test_a_closed_pipe_exits_zero_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first byte
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    try:
        done = subprocess.run([sys.executable, "-m", "detchern.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert done.returncode == 0
    assert re.fullmatch(r"elapsed_ms=\d+\n", done.stderr)


def test_the_conftest_helper_empties_every_engine_memo():
    # every lru_cache function and module-level _*_CACHE dict of the package,
    # filled by one run and then emptied by the helper the suite runs after
    # each module
    from conftest import empty_engine_memos

    memos = {}
    for info in pkgutil.iter_modules(detchern.__path__):
        module = importlib.import_module(f"detchern.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = value
            elif re.fullmatch(r"_\w+_CACHE", name) and isinstance(value, dict):
                memos[f"{info.name}.{name}"] = value

    def sizes():
        return {name: memo.cache_info().currsize if hasattr(memo, "cache_clear") else len(memo)
                for name, memo in memos.items()}

    lagrangian.conormal(5, 5, 2)
    assert memos and all(sizes().values()), sizes()
    empty_engine_memos()
    assert sizes() == dict.fromkeys(memos, 0)


@pytest.fixture
def digit_limit_640():
    """Lower CPython's int <-> str digit limit to its minimum for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def test_integers_past_the_digit_limit_print_exactly(capsys, request):
    # fulton -n 30 has coefficients of up to 1,315 digits
    argv = ["fulton", "-n", "30", "--format", "csv"]
    plain = invoke(capsys, *argv)
    assert plain[0] == 0 and max(map(len, plain[1].split(","))) > 640
    request.getfixturevalue("digit_limit_640")
    assert invoke(capsys, *argv)[:2] == plain[:2]
    assert sys.get_int_max_str_digits() == 640
    assert invoke(capsys, "fulton", "-n", "1")[0] == 2  # an error path restores it too
    assert sys.get_int_max_str_digits() == 640


def test_cache_entries_past_the_digit_limit_load(capsys, tmp_path, monkeypatch, digit_limit_640):
    # the class of tau(2500, 2, 1) has coefficients of up to 754 digits:
    # the second run reads them back as a hit and leaves the file as it is
    argv = ["cm", "-m", "2500", "-n", "2", "-k", "1", "--format", "csv", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    cold = invoke(capsys, *argv)
    assert cold[0] == 0 and "warning" not in cold[2]
    before = (tmp_path / "cm.json").stat()
    classes._CM_CACHE.clear()  # the classes come from the file
    warm = invoke(capsys, *argv)
    assert warm[:2] == cold[:2] and "warning" not in warm[2]
    after = (tmp_path / "cm.json").stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert sys.get_int_max_str_digits() == 640


# --- plain ints at every public entry ---------------------------------------


def test_a_refused_float_leaves_no_entry_in_the_memos(capsys):
    # a float m that passed check_params would store a corner of floats
    # under the key (7, 7, 4), which equals (7.0, 7, 4), and the ged of the
    # dual box would read it and raise out of run().  It is refused first
    # (the refusal itself is pinned below), so run() sees clean memos.
    from conftest import empty_engine_memos

    empty_engine_memos()
    with contextlib.suppress(ParameterError):
        schubert.a_matrix(7.0, 7, 4)
    assert invoke(capsys, "ged", "-m", "7", "-n", "7", "-k", "3", "--format", "csv")[:2] == (0, "2851033675\n")
    assert all(type(a) is int for row in schubert.a_matrix(7, 7, 4) for a in row)


# (entry, the plain int it accepts where each test puts the refused value)
PLAIN_INT_ENTRIES = {
    "check_params-m": (lambda v: check_params(v, 3, 1), 4),
    "check_params-k": (lambda v: check_params(4, 3, v), 1),
    "Box": (lambda v: schubert.Box(v, 2), 1),
    "set_box_cell_limit": (schubert.set_box_cell_limit, schubert.DEFAULT_BOX_CELL_LIMIT),
    "symmetry_check": (lambda v: lagrangian.symmetry_check(3, v), 2),
    "scan_conjectures": (lambda v: scan_conjectures(v, 2), 2),
    "chern_fulton_hypersurface": (classes.chern_fulton_hypersurface, 2),
    "obstruction_matrix": (microlocal.obstruction_matrix, 1),
}


@pytest.mark.parametrize("convert", [float, str, bool])
@pytest.mark.parametrize("name", PLAIN_INT_ENTRIES)
def test_every_public_entry_refuses_a_parameter_that_is_not_an_int(name, convert):
    entry, valid = PLAIN_INT_ENTRIES[name]
    entry(valid)
    with pytest.raises(ParameterError, match="int"):
        entry(convert(valid))
    assert schubert._box_cell_limit == schubert.DEFAULT_BOX_CELL_LIMIT


@pytest.mark.parametrize("name", PLAIN_INT_ENTRIES)
def test_every_public_entry_refuses_a_numpy_integer(name):
    np = pytest.importorskip("numpy")
    entry, valid = PLAIN_INT_ENTRIES[name]
    with pytest.raises(ParameterError, match="int"):
        entry(np.int64(valid))
    assert schubert._box_cell_limit == schubert.DEFAULT_BOX_CELL_LIMIT


def test_load_caches_imports_classes_of_plain_ints(capsys, tmp_path, monkeypatch):
    # cm_cache_import stores each entry as it is, so load_caches must hand
    # it mn plain ints per class
    monkeypatch.setattr(classes, "_CM_CACHE", {})  # the file holds these runs' classes only
    for argv in (["csm", "-m", "4", "-n", "4", "-k", "1"], ["cm", "-m", "5", "-n", "3", "-k", "2"]):
        assert invoke(capsys, *argv, "--cache-dir", str(tmp_path))[0] == 0
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    entries = cli.load_caches(str(tmp_path))
    assert set(entries) == set(classes._CM_CACHE) == {(4, 4, 1), (4, 4, 2), (4, 4, 3), (5, 3, 2)}
    for (m, n, k), cls in classes._CM_CACHE.items():
        assert type(cls) is ProjClass and type(cls.coeffs) is tuple and len(cls.coeffs) == m * n
        assert all(type(c) is int for c in cls.coeffs)
        assert cls.coeffs == entries[m, n, k]
    monkeypatch.setattr(classes, "_CM_CACHE", {})
    assert all(classes.cm_class(*key).coeffs == coeffs for key, coeffs in entries.items())
