#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in --smoke mode (small inputs, a few seconds, every
output still checked) untraced and traced — the judged ones of
BENCHMARK.json and fleet-replay — and checks the result line against
BENCHMARK.json: correct, nothing failed, and exactly the declared
end-to-end / per-layer metrics. Also checks that a copy holding only
BENCHMARK.json and perfbench/ fails fast without printing a result.

    python3 perfbench/smoke_test.py        # from the root of a checkout
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd, args, timeout=300):
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    cmd = bench["command"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


# Runnable but not among the judged workloads of BENCHMARK.json: its open
# loop also reports sustained_rps.
EXTRA_WORKLOADS = {"fleet-replay": ["sustained_rps"]}


def check_workload(bench, name, trace):
    proc = run(ROOT, ["--workload", name, "--seed", "7", "--seconds", "2", "--trace", str(trace),
                      "--smoke"])
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    wanted = bench["per_layer" if trace else "end_to_end"]
    extra = set() if trace else set(EXTRA_WORKLOADS.get(name, []))
    assert set(result["metrics"]) == {m["name"] for m in wanted} | extra, sorted(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, (name, m["name"])
    assert any(l.startswith("environment: nproc=") for l in lines), "no environment line"
    assert any(l.startswith("outputs: sent=") for l in lines), "no sent/failed line"
    print(f"ok  {name} trace={trace}: {result['attempted']} outputs checked")


def check_without_sources():
    scratch = os.path.join(ROOT, ".bench_build", "smoke-isolated")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(scratch, "perfbench"))
    proc = run(scratch, ["--workload", "fig5-verify", "--seed", "1", "--seconds", "2",
                         "--trace", "0"], timeout=180)
    shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the analyzer sources"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without sources"
    print("ok  refuses to run without the analyzer sources")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for name in [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS):
        for trace in (0, 1):
            check_workload(bench, name, trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
