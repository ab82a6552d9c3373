"""harqscale benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a harqscale checkout:

    python3 bench/run.py --workload {cli-oneshot,sweep-dense,mc-oracle} \\
        --seed N --seconds S --trace {0,1}

The workload's inputs come from --seed.  After set-up the workload runs as a
closed loop for --seconds, and every operation's output is checked.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` ({name: {value, unit}}): the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The lines before it
give the same figures under per-workload names, with percentiles and sample
counts; see bench/README.md.

A traced run runs every operation twice, once with spans recorded and once
without, in alternating order, and reports the difference as
``trace.overhead_frac``; it writes its spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import install
from workloads import WORKLOADS, child_env

SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="run the set-up once and print its duration in seconds")
    return p.parse_args(argv)


def timed_setup(workload, seed: int) -> float:
    t0 = perf_counter()
    workload.setup(seed)
    return perf_counter() - t0


def setup_seconds(workload, args, env) -> float:
    """Median set-up time: this process's own set-up plus fresh interpreters'."""
    samples = [timed_setup(workload, args.seed)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def timed(workload, op, tracer) -> tuple[object, float]:
    t0 = perf_counter()
    outcome = workload.run(op, tracer)
    return outcome, perf_counter() - t0


def measure(workload, seconds: float, tracer) -> dict:
    """Run operations until ``seconds`` have passed; with a tracer, run each
    operation untraced and traced, alternating which goes first."""
    untraced, traced = [], []
    work = 0.0
    attempted = not_ok = failed = 0
    rel_errs = []
    start = perf_counter()
    for index, op in enumerate(workload.ops()):
        modes = (None,) if tracer is None else ((None, tracer) if index % 2 == 0 else (tracer, None))
        for mode in modes:
            gc.collect()  # every operation starts from the same heap state
            if mode is None:
                outcome, elapsed = timed(workload, op, None)
                untraced.append(elapsed)
                work += outcome.work
            else:
                mode.begin_op(index + 1)
                undo = install(mode) if workload.in_process else None
                with mode.span("op", workload.name):
                    outcome, elapsed = timed(workload, op, mode)
                if undo:
                    undo()
                mode.end_op()
                traced.append(elapsed)
            attempted += 1
            if not outcome.ok:
                not_ok += 1
                failed += not outcome.defect
            if outcome.rel_err is not None:
                rel_errs.append(outcome.rel_err)
        if perf_counter() - start >= seconds:
            break
    return {
        "untraced": untraced, "traced": traced, "work": work, "attempted": attempted,
        "not_ok": not_ok, "failed": failed, "rel_errs": rel_errs,
    }


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, setup_s: float, m: dict) -> tuple[dict, list[str]]:
    op_ms = sorted(t * 1e3 for t in m["untraced"])
    p50 = statistics.median(op_ms)
    tail, beyond = nearest_rank(op_ms, workload.tail_pct)
    rate = m["work"] / sum(m["untraced"])
    rss = peak_rss_mb()
    failed_frac = m["not_ok"] / m["attempted"]
    n = len(op_ms)
    report = [
        f"setup_s = {setup_s!r} s (median of {SETUP_REPEATS} set-ups)",
        f"{workload.op_label}_p50 = {p50!r} ms (n={n})",
        f"{workload.op_label}_tail = {tail!r} ms (p{workload.tail_pct}, n={n}, {beyond} beyond)",
        f"{workload.work_label} = {rate!r} 1/s (work over summed operation time)",
        f"ops_failed_frac = {failed_frac!r} ({m['not_ok']} of {m['attempted']} failed their "
        f"check; {m['not_ok'] - m['failed']} of them are recorded ROADMAP item-4 defects)",
        f"peak_rss_mb = {rss!r} MB (largest of this process and its children)",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
        "work_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "harqscale" / "__init__.py").is_file():
        print(f"error: {src / 'harqscale'} not found; run from the root of a harqscale checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = child_env(src)
    workload = WORKLOADS[args.workload](root, env)
    if args.setup_only:
        print(timed_setup(workload, args.seed))
        return 0

    setup_s = setup_seconds(workload, args, env)
    tracer = probe = None
    if args.trace:
        import harqscale
        import layers
        from spans import Tracer

        probe = layers.run_probe(harqscale, env)
        tracer = Tracer()
    m = measure(workload, args.seconds, tracer)

    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds!r} trace={args.trace}")
    if args.trace:
        overhead = sum(m["traced"]) / sum(m["untraced"]) - 1.0
        extra = {
            "trace.overhead_frac": overhead,
            "ops_failed_frac": m["not_ok"] / m["attempted"],
            "simulate.max_rel_err": max(m["rel_errs"]) if m["rel_errs"] else None,
        }
        values = layers.per_layer(tracer, probe, extra)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(root)} ({len(tracer.kept)} kept, "
              f"{tracer.elided} elided)")
        for name, (value, unit, source) in values.items():
            print(f"{name} = {value!r} {unit} [{source}]")
        metrics = {name: (value, unit) for name, (value, unit, _) in values.items()}
    else:
        metrics, report = end_to_end(workload, setup_s, m)
        print("\n".join(report))

    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
