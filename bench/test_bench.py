"""Smoke tests of the benchmark itself.

Run from the root of a checkout:  python -m pytest bench -q

They run every workload briefly, untraced and traced, and check that every
metric named in BENCHMARK.json is printed with its unit; that the output
checks reject a corrupted output; that the inputs follow the seed; that the
counts repeat exactly; and that outside a checkout the benchmark fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    CLI_ITEM4_INPUTS,
    WORKLOADS,
    CliOneshot,
    McOracle,
    SweepDense,
    child_env,
    cli_key,
    mc_cell,
    mc_key,
    sweep_curve,
    sweep_universe,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("cli.modules_loaded", "cli.numpy_loaded", "closedform.calls", "sweep.skipped",
          "tables.bytes_out", "simulate.normal_draws_per_trial")


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.fixture(scope="module")
def traced_results():
    return {w["name"]: json.loads(bench(w["name"], 1).stdout.splitlines()[-1])
            for w in SPEC["workloads"]}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_with_its_unit(traced_results):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced_results.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_counts_repeat_exactly_across_runs(traced_results):
    runs = list(traced_results.values())
    for name in COUNTS:
        assert len({r["metrics"][name]["value"] for r in runs}) == 1, name


def test_inputs_follow_the_seed():
    env = child_env(ROOT / "src")
    for cls in (SweepDense, McOracle):
        streams = []
        for seed in (5, 5, 6):
            w = cls(ROOT, env)
            w.setup(seed)
            ops = w.ops()
            streams.append([next(ops) for _ in range(40)])
        assert streams[0] == streams[1] != streams[2]


def test_cli_check_rejects_corrupted_output():
    w = CliOneshot(ROOT, child_env(ROOT / "src"))
    w.setup(1)
    argv = w.universe["point"][0]
    proc = subprocess.run([sys.executable, "-m", "harqscale.cli", *argv], capture_output=True,
                          text=True, env=w.env)
    assert w.check("point", argv, proc.stdout, proc.stderr, proc.returncode)[0]
    corrupted = proc.stdout.replace("e", "E", 1)
    assert not w.check("point", argv, corrupted, proc.stderr, proc.returncode)[0]
    argv = w.universe["validate"][0]
    proc = subprocess.run([sys.executable, "-m", "harqscale.cli", *argv], capture_output=True,
                          text=True, env=w.env)
    assert w.check("validate", argv, proc.stdout, proc.stderr, proc.returncode)[0]
    for old, new in (("estimate=", "estimate=9"), ("rel_err=", "rel_err=x"), ("analytic=", "analytic=2")):
        corrupted = proc.stdout.replace(old, new, 1)
        assert not w.check("validate", argv, corrupted, proc.stderr, proc.returncode)[0]
    # a traceback on a named-error input fails; on an item-4 input it is the
    # recorded defect, and any other failure is not
    assert not w.check("error", ("point", "--rho", "0"), "", "Traceback\nZeroDivisionError: x\n", 1)[0]
    item4 = CLI_ITEM4_INPUTS[0]
    code, exc, _ = w.reference[cli_key(item4)]
    assert w.check("item4", item4, "", f"Traceback (most recent call last):\n{exc}: x\n", code) \
        == (False, 1.0, True)
    assert w.check("item4", item4, "", "Segmentation fault\n", -11) == (False, 1.0, False)
    assert w.check("item4", item4, "", "error: rho too small\n", 2) == (True, 1.0, False)


def test_sweep_check_rejects_corrupted_output():
    w = SweepDense(ROOT, {})
    w.setup(1)
    shape = sweep_universe()[0]
    csv_text, json_text, _ = sweep_curve(w.hs, shape, 0)
    assert w.check(shape, 0, csv_text, json_text)
    assert not w.check(shape, 0, csv_text.replace("1", "2", 1), json_text)
    assert not w.check(shape, 0, csv_text, json_text[:-2] + "\n")


def test_mc_check_rejects_corrupted_output():
    w = McOracle(ROOT, {})
    w.setup(1)
    one, two, analytic, amp = mc_cell(w.hs, 0.1, 2, 5, 7, trials=4000)
    key = mc_key(0.1, 2, 5)
    assert w.check(key, one, two, analytic, amp)
    skewed = type(two)(two.mean * 1.0000001, two.half_width_95, two.trials, two.seed)
    assert not w.check(key, one, skewed, analytic, amp)
    assert not w.check(key, one, two, analytic * (1 + 1e-15) + 1e-12, amp)
    far = type(one)(analytic * 1.2, one.half_width_95, one.trials, one.seed)
    assert not w.check(key, far, far, analytic, amp)
    assert not w.check(key, one, two, analytic, 0.06)


def test_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep-dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
