"""Mutation checks: each listed mutation must make one of its tests fail.

    python tools/mutate.py [ID ...]

tools/mutations.json lists the mutations.  Each entry names a file of the
repository, an exact source snippet that occurs in it once, the text that
replaces it, and the test modules (or pytest node ids) expected to catch
it.  For each entry (or only the named ones) the script copies src/,
tests/, pyproject.toml and README.md (a test reads it) to a temporary
directory, applies the mutation there and runs its tests with `pytest -x`,
with the copy's src first on the import path.  The repository itself is never written.

Before any mutation it runs the union of the listed tests once on an
unmutated copy, so a test that already fails cannot pass for a kill.  It
prints one line per mutation and exits 1 when a mutation survives, when a
snippet is not found exactly once, or when the unmutated tests fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def run_tests(copy: Path, tests: list[str]) -> tuple[int, str]:
    """pytest's exit code for `tests` in `copy` (0 all passed, 1 some failed)
    and the id of the first failed test, or ""."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, failed[0] if failed else ""


def mutate(copy: Path, entry: dict) -> None:
    path = copy / entry["file"]
    source = path.read_text(encoding="utf-8")
    found = source.count(entry["find"])
    if found != 1:
        raise ValueError(f"{entry['id']}: the snippet occurs {found} times in {entry['file']}, not once")
    path.write_text(source.replace(entry["find"], entry["replace"]), encoding="utf-8")


def main(argv: list[str]) -> int:
    entries = json.loads((ROOT / "tools" / "mutations.json").read_text(encoding="utf-8"))
    known = {entry["id"] for entry in entries}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutation ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if argv:
        entries = [entry for entry in entries if entry["id"] in argv]
    with tempfile.TemporaryDirectory(prefix="detchern-mutate-") as scratch:
        baseline = Path(scratch) / "baseline"
        copy_tree(baseline)
        tests = sorted({test for entry in entries for test in entry["tests"]})
        if run_tests(baseline, tests)[0] != 0:
            print(f"the unmutated tests fail: {' '.join(tests)}", file=sys.stderr)
            return 1
        bad = 0
        for number, entry in enumerate(entries):
            copy = Path(scratch) / f"m{number}"
            copy_tree(copy)
            started = time.monotonic()
            try:
                mutate(copy, entry)
            except ValueError as exc:
                print(f"MISSING  {exc}")
                bad += 1
                continue
            code, failed = run_tests(copy, entry["tests"])
            # exit code 1 is a failed test; any other (2 interrupted, 3 internal
            # error, 4 usage, 5 nothing collected) is not a kill
            status = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR({code})"
            bad += status != "killed"
            print(f"{status:9}{entry['id']}  {failed}  ({time.monotonic() - started:.1f} s)", flush=True)
            shutil.rmtree(copy)
    print(f"{len(entries) - bad} of {len(entries)} mutations killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
