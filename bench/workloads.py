"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload is one closed loop in a single process: the next operation
starts when the previous one has returned.  Its inputs come from the seed
alone, and the package receives only the generated values.  Inputs are drawn
from a finite set (the workload's universe) so that every closed-form output
can be compared with ``reference.json``, recorded from the package by
``record.py``.

Operation mixes are stratified: every block of operations holds a fixed count
of each kind, and the seed picks the parameters and the order.  A run that
stops part-way through a block therefore sees nearly the same mix under any
seed, which keeps the medians and tails steady.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
TRACECHILD = BENCH_DIR / "tracechild.py"

SCHEMES = ("classical", "cc-noma", "cc-oma", "ir-oma")
REGIMES = ("sum", "tin")
PAIRS = tuple((s, r) for s in SCHEMES for r in REGIMES)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    ok: bool                # the output passed its check
    work: float             # work units done: commands, grid points or trials
    defect: bool = False    # failed in a way recorded as a known defect
    rel_err: float | None = None  # Monte-Carlo estimate against the closed form


# --------------------------------------------------------------------------
# cli-oneshot
# --------------------------------------------------------------------------

CLI_T = (1, 2, 4)

# Named errors: the package rejects each with exit 2 and one "error:" line.
CLI_NAMED_ERRORS = (
    ("point", "--rho", "0"),
    ("point", "--rho", "-1"),
    ("point", "--T", "0"),
    ("point", "--eta", "1.5"),
    ("point", "--sigma2", "0"),
    ("point", "--T", "4", "--J", "2"),
    ("limits", "--c-buf", "0"),
    ("curve", "--grid-min", "5", "--grid-max", "1"),
    ("curve", "--grid-points", "1"),
    ("curve", "--grid-min", "0"),
    ("density", "--L", "0"),
    ("validate", "--trials", "0"),
    ("validate", "--users-per-slot", "70"),
    ("validate", "--eta", "1.0"),
)

# ROADMAP item-4 inputs: accepted by the validator, yet they end in a
# traceback (or, for rho = inf, a silent nan with exit 0) instead of exit 2.
CLI_ITEM4_INPUTS = (
    ("point", "--scheme", "cc-noma", "--regime", "tin", "--rho", "1e-20"),
    ("point", "--scheme", "classical", "--regime", "sum", "--rho", "1e-17"),
    ("point", "--scheme", "cc-noma", "--regime", "sum", "--J", "1e200"),
    ("point", "--scheme", "ir-oma", "--regime", "tin", "--T", "2", "--J", "4", "--c-buf", "1e-300"),
    ("point", "--scheme", "ir-oma", "--regime", "sum", "--T", "2", "--J", "4", "--c-buf", "1e-300"),
    ("curve", "--scheme", "cc-noma", "--regime", "tin", "--grid-min", "1e-20", "--grid-max", "1"),
    ("point", "--rho", "inf"),
)

# One block of twenty commands; about one in twenty is an error path, and
# the error slot alternates between a named error and an item-4 input.  The
# three waveform validations (one per T in CLI_T) are the slowest commands,
# so the p90 falls inside their group rather than on a group boundary.
CLI_BLOCK = (
    ("point",) * 6 + ("limits",) * 4 + ("curve",) * 2 + ("density",) * 2
    + ("validate",) * 3 + ("amplitude",) * 2 + ("error",)
)


def cli_universe() -> dict[str, list[tuple[str, ...]]]:
    """Every command the cli-oneshot mix can draw, by kind."""
    kinds: dict[str, list[tuple[str, ...]]] = {
        k: [] for k in ("point", "limits", "curve", "density", "validate", "amplitude")
    }
    for scheme, regime in PAIRS:
        pair = ("--scheme", scheme, "--regime", regime)
        for T in CLI_T:
            t = ("--T", str(T))
            for J in ("8", "20"):
                for eta in ("0.3", "1.0"):
                    fixed = pair + t + ("--J", J, "--eta", eta)
                    for rho in ("0.01", "0.1", "1.0", "10.0"):
                        for fmt in ("csv", "json"):
                            kinds["point"].append(("point",) + fixed + ("--rho", rho, "--format", fmt))
                    for rho in ("0.1", "1.0"):
                        kinds["limits"].append(("limits",) + fixed + ("--rho", rho))
            for fmt in ("csv", "json"):
                for scale, lo, hi in (("log", "1e-3", "1e2"), ("log", "1e-2", "1e3"), ("linear", "0", "10")):
                    kinds["curve"].append(
                        ("curve",) + pair + t + ("--J", "20", "--eta", "0.3", "--grid-scale", scale,
                                                 "--grid-min", lo, "--grid-max", hi,
                                                 "--grid-points", "60", "--format", fmt)
                    )
                for scale, lo, hi in (("log", "1", "1000"), ("linear", "0", "100")):
                    kinds["density"].append(
                        ("density",) + pair + t + ("--rho", "1.0", "--eta", "0.3", "--grid-scale", scale,
                                                   "--grid-min", lo, "--grid-max", hi,
                                                   "--grid-points", "40", "--format", fmt)
                    )
    for T in CLI_T:
        for users in (2, 5, 10):
            for seed in range(4):
                common = ("validate", "--T", str(T), "--users-per-slot", str(users),
                          "--trials", "2000", "--seed", str(seed))
                for eta in ("0.05", "0.1", "0.3"):
                    kinds["validate"].append(common + ("--eta", eta))
                kinds["amplitude"].append(common + ("--mode", "amplitude"))
    return kinds


def cli_key(argv) -> str:
    return " ".join(argv)


def validate_closed_form_part(stdout: str) -> str:
    """The closed-form part of ``validate`` output: the echo line and the
    analytic (or amplitude) value.  The Monte-Carlo estimate is not in it."""
    first, second = stdout.split("\n")[:2]
    return first + "\n" + second.split(" ")[0]


def check_validate(stdout: str, code: int, ref: str) -> bool:
    lines = stdout.split("\n")
    if len(lines) != 4 or lines[3] != "" or digest(validate_closed_form_part(stdout)) != ref:
        return False
    try:
        fields = dict(f.split("=", 1) for f in lines[1].split(" "))
        rel_err = float(fields["rel_err"])
        tolerance = float(fields["tolerance"])
        if "analytic" in fields:
            analytic, estimate = float(fields["analytic"]), float(fields["estimate"])
            if abs(estimate - analytic) / analytic != rel_err:
                return False
    except (KeyError, ValueError):  # a field is missing or not a number
        return False
    passed = rel_err <= tolerance
    # 2,000 trials put a 25% miss beyond ten standard errors
    return rel_err < 0.25 and lines[2] == ("PASS" if passed else "FAIL") and code == (0 if passed else 3)


def check_error(stdout: str, stderr: str, code: int) -> bool:
    return code == 2 and stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1 \
        and stderr.endswith("\n")


def check_known_defect(stdout: str, stderr: str, code: int, ref: list) -> bool:
    """True when an item-4 input fails exactly as recorded at the reference."""
    ref_code, ref_exception, ref_stdout = ref
    if code != ref_code or digest(stdout) != ref_stdout:
        return False
    if ref_exception:
        last = stderr.rstrip("\n").rsplit("\n", 1)[-1]
        return stderr.startswith("Traceback") and last.startswith(ref_exception + ":")
    return stderr == ""


class CliOneshot:
    """Sequential ``python -m harqscale.cli`` subprocesses."""

    name = "cli-oneshot"
    op_label, work_label, tail_pct = "cli_ms", "cli_commands_per_s", 90
    in_process = False

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.root, self.env = root, env
        self.spans_path = root / ".bench_out" / "child-spans.json"

    def setup(self, seed: int) -> None:
        self.reference = load_reference()["cli"]
        self.universe = cli_universe()
        self.rng = random.Random(seed)
        # one untimed command fills the page and bytecode caches
        self._spawn([sys.executable, "-m", "harqscale.cli", "point"])

    def ops(self):
        # the three waveform validations of a block take one T each, since
        # their cost grows with T and they make up the tail
        validate_by_t = {T: [a for a in self.universe["validate"] if a[2] == str(T)] for T in CLI_T}
        block = 0
        while True:
            kinds = list(CLI_BLOCK)
            self.rng.shuffle(kinds)
            validate_ts = list(CLI_T)
            self.rng.shuffle(validate_ts)
            for kind in kinds:
                if kind == "validate":
                    yield kind, self.rng.choice(validate_by_t[validate_ts.pop()])
                elif kind != "error":
                    yield kind, self.rng.choice(self.universe[kind])
                elif block % 2 == 0:
                    yield "error", self.rng.choice(CLI_NAMED_ERRORS)
                else:
                    yield "item4", self.rng.choice(CLI_ITEM4_INPUTS)
            block += 1

    def _spawn(self, cmd: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=self.root,
                              timeout=120)

    def run(self, op, tracer=None) -> Outcome:
        kind, argv = op
        if tracer is None:
            proc = self._spawn([sys.executable, "-m", "harqscale.cli", *argv])
        else:
            self.spans_path.parent.mkdir(exist_ok=True)
            self.spans_path.unlink(missing_ok=True)
            proc = self._spawn([sys.executable, str(TRACECHILD), str(self.spans_path), *argv])
            with open(self.spans_path) as fh:
                tracer.add_foreign(json.load(fh))
        return Outcome(*self.check(kind, argv, proc.stdout, proc.stderr, proc.returncode))

    def check(self, kind: str, argv, stdout: str, stderr: str, code: int) -> tuple[bool, float, bool]:
        """(passed, work, known defect) for one command's output."""
        if kind == "error":
            return check_error(stdout, stderr, code), 1.0, False
        ref = self.reference[cli_key(argv)]
        if kind in ("validate", "amplitude"):
            return check_validate(stdout, code, ref) and stderr == "", 1.0, False
        if kind == "item4":
            if check_error(stdout, stderr, code):
                return True, 1.0, False
            return False, 1.0, check_known_defect(stdout, stderr, code, ref)
        return code == 0 and stderr == "" and digest(stdout) == ref, 1.0, False


# --------------------------------------------------------------------------
# sweep-dense
# --------------------------------------------------------------------------

SWEEP_T = (1, 2, 8)
SWEEP_POINTS = 10_000
# (lo, hi, scale) per curve kind; "lin0" grids start at 0, so their first
# points fail to evaluate and go through the sweep's skip path.
SWEEP_GRIDS = {
    "se": {"log": (1e-3, 1e2, "log"), "lin0": (0.0, 100.0, "linear")},
    "density": {"log": (1.0, 1e3, "log"), "lin0": (0.0, 1e3, "linear")},
}
SWEEP_VARIANTS = ({"eta": 0.3, "c_buf": 10.0}, {"eta": 1.0, "c_buf": 2.0})


def sweep_universe() -> list[tuple]:
    """(kind, scheme, regime, T, grid name) for every curve shape."""
    return [
        (kind, scheme, regime, T, grid)
        for kind in SWEEP_GRIDS
        for scheme, regime in PAIRS
        for T in SWEEP_T
        for grid in SWEEP_GRIDS[kind]
    ]


def sweep_key(shape: tuple, variant: int) -> str:
    kind, scheme, regime, T, grid = shape
    return f"{kind}/{scheme}/{regime}/T{T}/{grid}/v{variant}"


def sweep_curve(hs, shape: tuple, variant: int, points: int = SWEEP_POINTS) -> tuple[str, str, int]:
    """Evaluate and serialize one curve; return (csv, json, grid points)."""
    kind, scheme, regime, T, grid_name = shape
    lo, hi, scale = SWEEP_GRIDS[kind][grid_name]
    grid = hs.make_grid(lo, hi, points, scale)
    v = SWEEP_VARIANTS[variant]
    s, r = hs.Scheme(scheme), hs.Regime(regime)
    if kind == "se":
        params = hs.SchemeParams(rho=1.0, T=T, J=20.0, eta=v["eta"], c_buf=v["c_buf"])
        curve = hs.se_curve(s, r, params, grid)
    else:
        params = hs.SchemeParams(rho=1.0, T=T, J=float(T), eta=v["eta"], c_buf=v["c_buf"])
        curve = hs.density_curve(s, r, params, grid)
    return hs.curve_to_csv(curve), hs.curve_to_json(curve, hs.__version__), len(grid)


class SweepDense:
    """In-process se_curve / density_curve over 10^4-point grids, each curve
    serialized to CSV and JSON."""

    name = "sweep-dense"
    op_label, work_label, tail_pct = "sweep_curve_ms", "sweep_points_per_s", 75
    in_process = True

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.root = root

    def setup(self, seed: int) -> None:
        import harqscale

        self.hs = harqscale
        self.reference = load_reference()["sweep"]
        self.shapes = sweep_universe()
        self.rng = random.Random(seed)
        sweep_curve(harqscale, self.shapes[0], 0, points=16)  # warm-up

    def ops(self):
        while True:
            shapes = list(self.shapes)
            self.rng.shuffle(shapes)
            for shape in shapes:
                yield shape, self.rng.randrange(len(SWEEP_VARIANTS))

    def run(self, op, tracer=None) -> Outcome:
        shape, variant = op
        csv_text, json_text, points = sweep_curve(self.hs, shape, variant)
        return Outcome(self.check(shape, variant, csv_text, json_text), float(points))

    def check(self, shape: tuple, variant: int, csv_text: str, json_text: str) -> bool:
        return [digest(csv_text), digest(json_text)] == self.reference[sweep_key(shape, variant)]


# --------------------------------------------------------------------------
# mc-oracle
# --------------------------------------------------------------------------

MC_ETAS = (0.0, 0.05, 0.1, 0.3)
MC_T = (1, 2, 4)
MC_USERS = (2, 5, 10)
MC_M = 64
# 10^4 trials put the 5% acceptance bound about five standard errors from
# the closed form on the noise-limited cells, so a correct simulator passes
# under any seed.
MC_TRIALS = 10_000
MC_TOLERANCE = 0.05


def mc_key(eta: float, T: int, users: int) -> str:
    return f"eta{eta!r}/T{T}/u{users}"


def mc_cell(hs, eta: float, T: int, users: int, seed: int, trials: int = MC_TRIALS):
    """One oracle cell: waveform estimate at workers=1 and 2, the closed form,
    and the amplitude-mode check on the same cell."""
    sigs = hs.make_equicorrelated_signatures(MC_M, users, eta)
    active = [range(users)] * T
    one = hs.simulate_cc_noma_sinr(sigs, 1.0, 1.0, T, active, 0, trials, seed, 1)
    two = hs.simulate_cc_noma_sinr(sigs, 1.0, 1.0, T, active, 0, trials, seed, 2)
    analytic = hs.analytic_sinr(hs.Scheme.CC_NOMA, 1.0, T, [users] * T, eta)
    amplitude_err = hs.verify_cc_oma_noise_expansion(1.0, [users] * T, 1.0, trials, seed)
    return one, two, analytic, amplitude_err


class McOracle:
    """The acceptance-criterion-6 grid run through the Monte-Carlo oracle."""

    name = "mc-oracle"
    op_label, work_label, tail_pct = "mc_cell_ms", "mc_trials_per_s", 65
    in_process = True

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.root = root

    def setup(self, seed: int) -> None:
        import harqscale

        self.hs = harqscale
        self.reference = load_reference()["mc"]
        self.rng = random.Random(seed)
        mc_cell(harqscale, 0.1, 2, 5, 0, trials=8)  # warm-up

    def ops(self):
        # Cost grows with T, so each run of three cells holds one of each T.
        while True:
            by_t = []
            for T in MC_T:
                cells = [(eta, T, users) for eta in MC_ETAS for users in MC_USERS]
                self.rng.shuffle(cells)
                by_t.append(cells)
            for triple in zip(*by_t):
                triple = list(triple)
                self.rng.shuffle(triple)
                for eta, T, users in triple:
                    yield eta, T, users, self.rng.randrange(2**32)

    def run(self, op, tracer=None) -> Outcome:
        eta, T, users, seed = op
        one, two, analytic, amplitude_err = mc_cell(self.hs, eta, T, users, seed)
        rel_err = abs(one.mean - analytic) / analytic
        ok = self.check(mc_key(eta, T, users), one, two, analytic, amplitude_err)
        return Outcome(ok, 2.0 * MC_TRIALS, rel_err=rel_err)

    def check(self, key: str, one, two, analytic: float, amplitude_err: float) -> bool:
        """Both worker counts agree exactly, the closed form is the recorded
        one, and both modes land within the acceptance bound."""
        return (
            one == two
            and repr(analytic) == self.reference[key]
            and abs(one.mean - analytic) / analytic <= MC_TOLERANCE
            and amplitude_err <= MC_TOLERANCE
        )


WORKLOADS = {w.name: w for w in (CliOneshot, SweepDense, McOracle)}


def child_env(src: Path) -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env

