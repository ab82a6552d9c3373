"""Per-layer metrics of a traced run, and the fixed probe that backs them.

Every traced run prints every per-layer metric.  A metric of a layer the
workload exercises comes from the workload's own spans; one of a layer it
leaves idle (the simulator on sweep-dense, say) comes from the probe, a fixed
set of small public calls into every module that each traced run makes
before its timed loop.  The report line of each metric names its source.

The counts (``cli.modules_loaded``, ``cli.numpy_loaded``,
``closedform.calls``, ``sweep.skipped``, ``tables.bytes_out``) are taken on
the probe's fixed inputs, so they repeat exactly under any seed and run
length.  ``simulate.normal_draws_per_trial`` and ``simulate.bytes_per_trial``
are computed, for the baseline cell T=2, m=64.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys

from spans import Tracer, install
from workloads import PAIRS, SWEEP_GRIDS, mc_cell

PROBE_REPEATS = 3
PROBE_SWEEP_POINTS = 1000
PROBE_TRIALS = 2000
BASELINE_T, BASELINE_M = 2, 64

_IMPORT_CLI = (
    "import sys, time\n"
    "n0 = len(sys.modules); t0 = time.perf_counter()\n"
    "import harqscale.cli\n"
    "print(time.perf_counter() - t0, len(sys.modules) - n0, int('numpy' in sys.modules))\n"
)
_IMPORT_NUMPY = (
    "import time\nt0 = time.perf_counter()\nimport numpy\nprint(time.perf_counter() - t0)\n"
)

PROBE_CLI_COMMANDS = (
    ["point", "--scheme", "ir-oma", "--regime", "tin", "--T", "2", "--J", "10"],
    ["limits", "--scheme", "cc-noma", "--regime", "tin", "--T", "2", "--J", "10"],
    ["curve", "--scheme", "cc-noma", "--regime", "sum", "--T", "2", "--J", "10"],
    ["density", "--scheme", "cc-oma", "--regime", "tin", "--T", "2"],
    ["validate", "--trials", "500"],
)


def _child_seconds(code: str, env) -> list[str]:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    return out.split()


def run_probe(hs, env) -> dict:
    """Run the fixed probe; return its tracer and its scalar measurements."""
    from time import perf_counter

    bare, numpy_s, cli_s, loaded = [], [], [], []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append(perf_counter() - t0)
        numpy_s.append(float(_child_seconds(_IMPORT_NUMPY, env)[0]))
        seconds, modules, has_numpy = _child_seconds(_IMPORT_CLI, env)
        cli_s.append(float(seconds))
        loaded.append((int(modules), int(has_numpy)))

    tracer = Tracer()
    undo = install(tracer)
    skipped = bytes_out = 0
    rel_errs = []
    try:
        tracer.begin_op(1)
        main = tracer.wrap(hs.cli.main, "cli.main")
        for argv in PROBE_CLI_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(argv))
        tracer.end_op()

        tracer.begin_op(2)
        rhos = hs.make_grid(1e-2, 1e2, 32)
        for scheme, regime in PAIRS:
            for T in (BASELINE_T, 8) if scheme == "ir-oma" else (BASELINE_T,):
                s, r = hs.Scheme(scheme), hs.Regime(regime)
                for rho in rhos:
                    hs.evaluate(s, r, hs.SchemeParams(rho=rho, T=T, J=20.0, eta=0.3))
        tracer.end_op()

        tracer.begin_op(3)
        for scheme, regime, T in (("cc-noma", "tin", 2), ("ir-oma", "sum", 8)):
            s, r = hs.Scheme(scheme), hs.Regime(regime)
            for kind, grids in SWEEP_GRIDS.items():
                for lo, hi, scale in grids.values():
                    grid = hs.make_grid(lo, hi, PROBE_SWEEP_POINTS, scale)
                    if kind == "se":
                        curve = hs.se_curve(s, r, hs.SchemeParams(T=T, J=20.0, eta=0.3), grid)
                    else:
                        curve = hs.density_curve(s, r, hs.SchemeParams(T=T, J=float(T), eta=0.3), grid)
                    skipped += curve.skipped
                    bytes_out += len(hs.curve_to_csv(curve).encode())
                    bytes_out += len(hs.curve_to_json(curve, hs.__version__).encode())
        tracer.end_op()

        tracer.begin_op(4)
        for scheme, regime in PAIRS:
            s, r = hs.Scheme(scheme), hs.Regime(regime)
            params = hs.SchemeParams(rho=1.0, T=2, J=10.0, eta=0.3)
            for call in (lambda: hs.ebn0_floor(s, r, params),
                         lambda: hs.ebn0_rho_zero_limit(s, r, params, hs.Hold.TOTAL_POWER),
                         lambda: hs.ebn0_rho_zero_limit(s, r, params, hs.Hold.USER_COUNT)):
                with contextlib.suppress(hs.UnsupportedCombination):
                    call()
            hs.ebn0_cbuf_infinity_ir_tin(params)
        tracer.end_op()

        tracer.begin_op(5)
        for T in (1, 2, 4):
            one, _, analytic, _ = mc_cell(hs, 0.1, T, 5, 1, trials=PROBE_TRIALS)
            rel_errs.append(abs(one.mean - analytic) / analytic)
        tracer.end_op()
    finally:
        undo()

    calls = sum(len(d) for _, d, _ in tracer.items("closedform.evaluate"))
    return {
        "tracer": tracer,
        "python_bare_ms": statistics.median(bare) * 1e3,
        "numpy_import_ms": statistics.median(numpy_s) * 1e3,
        "cli_import_ms": statistics.median(cli_s) * 1e3,
        "modules_loaded": loaded[0][0],
        "numpy_loaded": loaded[0][1],
        "closedform_calls": calls,
        "sweep_skipped": skipped,
        "tables_bytes_out": bytes_out,
        "max_rel_err": max(rel_errs),
    }


# --------------------------------------------------------------------------
# derivation
# --------------------------------------------------------------------------


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def _durations(tracer: Tracer, names, match=lambda label: True, scale: float = 1e-3,
               per_label: bool = False, self_time: bool = False) -> float | None:
    """Median span duration (or self time) in µs by default; with
    ``per_label`` each value is divided by the count the label ends with
    (``n<count>``: grid points, curve points or trials).  ``names`` is one
    span name or a tuple of them."""
    values = []
    for name in (names,) if isinstance(names, str) else names:
        for label, durations, selfs in tracer.items(name):
            if not match(label):
                continue
            per = float(label.rsplit("n", 1)[-1]) if per_label else 1.0
            if per > 0:
                values.extend(v * scale / per for v in (selfs if self_time else durations))
    return _median(values)


def _speedup(tracer: Tracer) -> float | None:
    one = {label.replace(".w1.", "."): sum(d) for label, d, _ in tracer.items("simulate.waveform")
           if ".w1." in label}
    two = {label.replace(".w2.", "."): sum(d) for label, d, _ in tracer.items("simulate.waveform")
           if ".w2." in label}
    common = one.keys() & two.keys()
    if not common:
        return None
    return sum(one[k] for k in common) / sum(two[k] for k in common)


def _derivations(probe: dict) -> list[tuple[str, str, object]]:
    """(metric, unit, function of a tracer or a probe constant).

    ``cli.import_ms`` has no span in the probe's own process; where the
    workload has none either, it falls back to the probe's child timing.
    """
    rows: list[tuple[str, str, object]] = [
        ("cli.import_ms", "ms", lambda t: _durations(t, "cli.import", scale=1e-6)),
        ("cli.numpy_import_ms", "ms", probe["numpy_import_ms"]),
        ("cli.python_bare_ms", "ms", probe["python_bare_ms"]),
        ("cli.modules_loaded", "count", probe["modules_loaded"]),
        ("cli.numpy_loaded", "count", probe["numpy_loaded"]),
        ("cli.parse_merge_us", "us", lambda t: _durations(t, "cli.main", self_time=True)),
    ]
    for command in ("point", "limits", "curve", "density", "validate"):
        rows.append((f"cli.run_ms.{command}", "ms",
                     lambda t, c=command: _durations(t, "cli.run", lambda l: l == c, scale=1e-6)))
    for scheme, regime in PAIRS:
        prefix = f"{scheme}.{regime}.T{BASELINE_T}"
        rows.append((f"closedform.evaluate_us.{scheme}.{regime}", "us",
                     lambda t, p=prefix: _durations(t, "closedform.evaluate", lambda l: l == p)))
    rows += [
        ("closedform.evaluate_us.ir-oma.T8", "us",
         lambda t: _durations(t, "closedform.evaluate",
                              lambda l: l.startswith("ir-oma.") and l.endswith(".T8"))),
        ("closedform.calls", "count", probe["closedform_calls"]),
        ("sweep.make_grid_us", "us", lambda t: _durations(t, "sweep.make_grid")),
        ("sweep.se_curve_us_per_point", "us",
         lambda t: _durations(t, "sweep.se_curve", per_label=True)),
        ("sweep.density_curve_us_per_point", "us",
         lambda t: _durations(t, "sweep.density_curve", per_label=True)),
        ("sweep.self_us_per_point", "us",
         lambda t: _durations(t, ("sweep.se_curve", "sweep.density_curve"), per_label=True,
                              self_time=True)),
        ("sweep.skipped", "count", probe["sweep_skipped"]),
        ("tables.csv_us_per_point", "us",
         lambda t: _durations(t, "tables.curve_to_csv", per_label=True)),
        ("tables.json_us_per_point", "us",
         lambda t: _durations(t, "tables.curve_to_json", per_label=True)),
        ("tables.bytes_out", "B", probe["tables_bytes_out"]),
    ]
    for fn in ("ebn0_floor", "ebn0_rho_zero_limit", "ebn0_cbuf_infinity_ir_tin"):
        rows.append((f"limits.call_us.{fn}", "us",
                     lambda t, f=fn: _durations(t, "limits.call", lambda l: l == f)))
    for T in (1, 2, 4):
        rows.append((f"simulate.us_per_trial.T{T}", "us",
                     lambda t, T=T: _durations(t, "simulate.waveform",
                                               lambda l: l.startswith(f"T{T}.w1."), per_label=True)))
    draws = 2 * BASELINE_T * BASELINE_M
    rows += [
        ("simulate.signatures_us", "us", lambda t: _durations(t, "simulate.signatures")),
        ("simulate.analytic_us", "us", lambda t: _durations(t, "simulate.analytic_sinr")),
        ("simulate.workers2_speedup", "ratio", _speedup),
        ("simulate.amplitude_us_per_trial", "us",
         lambda t: _durations(t, "simulate.amplitude", per_label=True)),
        ("simulate.normal_draws_per_trial", "count", draws),
        ("simulate.bytes_per_trial", "B", 8 * draws),
    ]
    return rows


def per_layer(tracer: Tracer, probe: dict, extra: dict) -> dict[str, tuple[float, str, str]]:
    """Every per-layer metric as (value, unit, source).

    ``extra`` carries the metrics the run itself measures
    (``simulate.max_rel_err`` when the workload runs the oracle,
    ``trace.overhead_frac`` and ``ops_failed_frac``).
    """
    out: dict[str, tuple[float, str, str]] = {}
    for name, unit, how in _derivations(probe):
        if not callable(how):
            out[name] = (float(how), unit, "probe")
            continue
        value = how(tracer)
        source = "workload"
        if value is None:
            value, source = how(probe["tracer"]), "probe"
        if value is None and name == "cli.import_ms":
            value = probe["cli_import_ms"]
        out[name] = (float(value), unit, source)
    max_rel = extra.get("simulate.max_rel_err")
    out["simulate.max_rel_err"] = (
        (max_rel, "frac", "workload") if max_rel is not None
        else (probe["max_rel_err"], "frac", "probe")
    )
    out["trace.overhead_frac"] = (extra["trace.overhead_frac"], "frac", "workload")
    out["ops_failed_frac"] = (extra["ops_failed_frac"], "frac", "workload")
    return out
