"""Smoke test of the benchmark on tiny tables.

    python3 perfbench/smoke_test.py      (or: python3 -m pytest perfbench/smoke_test.py)

Runs every workload of BENCHMARK.json untraced and traced at a few thousand
entries, checks that each run is correct and emits exactly the metric names
BENCHMARK.json declares, that one seed gives byte-identical table text, and
that a directory holding only the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--entries", "2000", "--updates", "100", "--seconds", "0.5"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_workload_emits_every_metric():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        names = [m["name"] for m in SPEC[key]]
        for workload in SPEC["workloads"]:
            proc = bench("--workload", workload["name"], "--seed", "3", "--trace", trace, *TINY)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            assert list(result["metrics"]) == names, (workload["name"], trace)
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name], name


def test_one_seed_gives_identical_table_text():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gen
    from tcamtree import serialize

    for shape in (gen.IPV4, gen.IPV6):
        first = serialize(gen.make_table(shape, 3000, 7)[0]).encode()
        again = serialize(gen.make_table(shape, 3000, 7)[0]).encode()
        other = serialize(gen.make_table(shape, 3000, 8)[0]).encode()
        assert first == again
        assert first != other


def test_bare_directory_fails_without_result():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_one_seed_gives_identical_table_text,
                 test_bare_directory_fails_without_result,
                 test_every_workload_emits_every_metric):
        test()
        print(f"ok {test.__name__}")
