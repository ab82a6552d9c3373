"""Command-line front end.

Subcommands
    point     evaluate one scheme/regime operating point
    curve     sweep rho, emit an SE-vs-Eb/N0 table
    density   sweep J, emit a user-density-vs-Eb/N0 table
    limits    print every applicable closed-form floor/limit
    validate  run the Monte-Carlo oracle against the closed form

``validate`` takes only the parameters its oracle reads (rho, T, eta, sigma2)
and runs J = T * users_per_slot transmissions.  A config file of ``key =
value`` lines (--config) can supply any flag, keyed by the flag name with
``_`` for ``-``; a command checks every key, uses those it takes, and lets
flags override them.  Both are declared once, in ``OPTIONS``, and a flag's
text is typed and choice-checked by the rule a config value is: argparse only
splits argv.  Relative --output paths are placed under $HARQSCALE_OUT_DIR when
that is set; tables go to stdout when no --output is given.  The simulator
(and numpy) loads only when ``validate`` runs; ``curve`` and ``density`` load
numpy for their grids.

Exit codes: 0 success (validation passed, or --help/--version), 2 bad
flag/config/parameter or an evaluation error, 3 validation failure.  Every
refusal, argparse's included, is one ``error:`` line on stderr with exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

from . import __getattr__, __version__  # the simulator's names load on first use
from .closedform import evaluate
from .errors import ConfigError, HarqScaleError, UnsupportedCombination
from .limits import Hold, ebn0_cbuf_infinity_ir_tin, ebn0_floor, ebn0_rho_zero_limit
from .params import Regime, Scheme, SchemeParams, check_count, check_real
from .sweep import density_curve, make_grid, se_curve
from .tables import curve_to_csv, curve_to_json

OUT_DIR_ENV = "HARQSCALE_OUT_DIR"
# validate's size bounds, each checked before anything is allocated: the
# T * trials noise draws and residual powers, the J = T * users_per_slot
# phases of one amplitude-mode trial and J * trials in all, and m, the length
# of the users_per_slot x m signature array
VALIDATE_BOUNDS = {"T * trials": 10**6, "T * users_per_slot": 10**5,
                   "T * users_per_slot * trials": 10**7, "m": 1024}
# a curve's grid size: a curve of this many points builds in under a second
GRID_POINTS_MAX = 10**5

_CURVES = ("curve", "density")
_CLOSED_FORM = ("point", *_CURVES, "limits")
_ALL = (*_CLOSED_FORM, "validate")


# One flag and config key: ``--grid-min`` is ``grid_min`` in a config file
Option = namedtuple("Option", "type default commands choices metavar",
                    defaults=(_ALL, None, None))

# The SchemeParams fields, in declaration order, become options named, typed
# and defaulted as a default SchemeParams has them; the run-only options are
# listed here once.
_PARAM_DEFAULTS = vars(SchemeParams())
OPTIONS = {
    "scheme": Option(str, "classical", _CLOSED_FORM, tuple(s.value for s in Scheme)),
    "regime": Option(str, "sum", _CLOSED_FORM, tuple(r.value for r in Regime)),
    # validate's oracle reads rho, T, eta and sigma2, and sets J = T * users_per_slot
    **{name: Option(type(default), default,
                    _ALL if name in ("rho", "T", "eta", "sigma2") else _CLOSED_FORM)
       for name, default in _PARAM_DEFAULTS.items()},
    "output": Option(str, None, metavar="PATH"),
    "format": Option(str, "csv", ("point", *_CURVES), ("csv", "json")),
    "workers": Option(int, 1, ("validate",)),
    "grid_min": Option(float, 1e-3, _CURVES),
    "grid_max": Option(float, 1e2, _CURVES),
    "grid_points": Option(int, 60, _CURVES),
    "grid_scale": Option(str, "log", _CURVES, ("log", "linear")),
    "users_per_slot": Option(int, 5, ("validate",)),
    "trials": Option(int, 2000, ("validate",)),
    "seed": Option(int, 0, ("validate",)),
    "m": Option(int, 64, ("validate",)),
    "tolerance": Option(float, 0.05, ("validate",)),
    "mode": Option(str, "waveform", ("validate",), ("waveform", "amplitude")),
}

# validate exercises the non-orthogonal construction (eta < 1) over two slots
_VALIDATE_DEFAULTS = {"eta": 0.1, "T": 2}


# options: every run-only option by name, merged
RunConfig = namedtuple("RunConfig", "command scheme regime params options")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main prints it as every other refusal; subparsers inherit
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="harqscale",
        description="SE / SNR-per-bit / user-density scaling laws for "
        "HARQ random-access uplinks",
    )
    parser.add_argument("--version", action="version", version=f"harqscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        for key, opt in OPTIONS.items():
            if command in opt.commands:
                # the choices as argparse would print them; _merged checks them
                p.add_argument("--" + key.replace("_", "-"), dest=key, metavar=opt.metavar
                               or (opt.choices and "{" + ",".join(opt.choices) + "}"))
    return parser


def read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config {path}:{lineno}: expected 'key = value', got {line!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merged(ns: argparse.Namespace) -> dict:
    """Flags override config-file values override package defaults."""
    file_vals = read_config_file(ns.config) if ns.config else {}
    for key in file_vals:
        if key not in OPTIONS:
            raise ConfigError(f"config: unknown key {key!r}")
    merged = {key: opt.default for key, opt in OPTIONS.items()}
    if ns.command == "validate":
        merged.update(_VALIDATE_DEFAULTS)
    for key, opt in OPTIONS.items():
        # a flag exists only for a command that takes it, and is read last to win
        for source, text in (("config", file_vals.get(key)), ("flag", getattr(ns, key, None))):
            if text is None:
                continue
            try:
                value = opt.type(text)
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key}: {text!r}") from exc
            if opt.choices and value not in opt.choices:
                raise ConfigError(f"{source}: bad value for {key}: {text!r} "
                                  f"(choose from {', '.join(opt.choices)})")
            if ns.command in opt.commands:
                merged[key] = value
    return merged


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    m = _merged(ns)
    if ns.command == "validate":
        for key in ("trials", "workers", "m", "users_per_slot"):
            check_count(key, m[key])
        check_real("tolerance", m["tolerance"], 0, math.inf, "(]")
        check_count("seed", m["seed"], 0)
        for names, bound in VALIDATE_BOUNDS.items():
            factors = [m[name] for name in names.split(" * ")]
            if math.prod(factors) > bound:
                raise ConfigError(f"{names} must be <= {bound}, "
                                  f"got {' * '.join(map(str, factors))}")
        # the oracle runs users_per_slot transmissions in each of the T slots
        m["J"] = float(m["T"] * m["users_per_slot"])
    elif ns.command == "density" and m["J"] < m["T"]:
        # density sweeps J: keep the unused base value compatible with T
        m["J"] = float(m["T"])
    params = SchemeParams(**{name: m.pop(name) for name in _PARAM_DEFAULTS})
    # make_grid checks the bounds; only a curve needs a second point
    if ns.command in _CURVES and not 2 <= m["grid_points"] <= GRID_POINTS_MAX:
        raise ConfigError(f"grid_points must be in 2..{GRID_POINTS_MAX} for curves, "
                          f"got {m['grid_points']!r}")
    return RunConfig(ns.command, Scheme(m["scheme"]), Regime(m["regime"]), params, m)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = Path(output)
    if not path.is_absolute() and os.environ.get(OUT_DIR_ENV):
        path = Path(os.environ[OUT_DIR_ENV]) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"output: cannot write {str(path)!r}: {exc.strerror or exc}") from exc
    print(f"wrote {path}")


def _cmd_point(cfg: RunConfig) -> int:
    m = evaluate(cfg.scheme, cfg.regime, cfg.params)
    values = {"se": m.se, "ebn0_linear": m.ebn0_linear, "ebn0_db": m.ebn0_db}
    if cfg.options["format"] == "json":
        text = json.dumps(values, sort_keys=True)
    else:
        text = " ".join(f"{key}={value!r}" for key, value in values.items())
    _emit(text + "\n", cfg.options["output"])
    return 0


def _cmd_curve(cfg: RunConfig) -> int:
    o = cfg.options
    grid = make_grid(o["grid_min"], o["grid_max"], o["grid_points"], o["grid_scale"])
    if cfg.command == "curve":
        curve = se_curve(cfg.scheme, cfg.regime, cfg.params, grid)
    else:
        curve = density_curve(cfg.scheme, cfg.regime, cfg.params, grid)
    text = curve_to_json(curve, __version__) if o["format"] == "json" else curve_to_csv(curve)
    _emit(text, o["output"])
    return 0


def _cmd_limits(cfg: RunConfig) -> int:
    found = []  # (result, the " hold=..." part of its line)
    try:
        found.append((ebn0_floor(cfg.scheme, cfg.regime, cfg.params), ""))
    except UnsupportedCombination:
        pass
    for hold in Hold:
        try:
            r = ebn0_rho_zero_limit(cfg.scheme, cfg.regime, cfg.params, hold)
        except UnsupportedCombination:
            continue
        found.append((r, f" hold={hold.value}"))
    if cfg.scheme is Scheme.IR_OMA and cfg.regime is Regime.TIN:
        found.append((ebn0_cbuf_infinity_ir_tin(cfg.params), ""))
    lines = [f"{r.kind.value}{suffix} linear={r.value_linear!r} db={r.value_db!r}"
             for r, suffix in found]
    if not lines:
        lines.append(f"no closed-form limits for {cfg.scheme.value}/{cfg.regime.value}")
    _emit("\n".join(lines) + "\n", cfg.options["output"])
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    # a bare global name would not reach __getattr__; the module attribute
    # does, and it is also where a wrapper set with setattr is found
    sim = sys.modules[__name__]
    o = cfg.options
    users, T = o["users_per_slot"], cfg.params.T
    counts = (users,) * T
    if o["mode"] == "waveform":
        sigs = sim.make_equicorrelated_signatures(o["m"], users, cfg.params.eta)
        est = sim.simulate_cc_noma_sinr(
            sigs, cfg.params.rho, cfg.params.sigma2, T,
            [range(users)] * T, 0, o["trials"], o["seed"], o["workers"],
        )
        reference = sim.analytic_sinr(Scheme.CC_NOMA, cfg.params.rho, T, counts, cfg.params.eta)
        rel_err = abs(est.mean - reference) / reference
        detail = (
            f"analytic={reference!r} estimate={est.mean!r} "
            f"half_width_95={est.half_width_95!r}"
        )
    else:
        amplitude = math.sqrt(cfg.params.rho * cfg.params.sigma2)
        rel_err = sim.verify_cc_oma_noise_expansion(
            amplitude, counts, cfg.params.sigma2, o["trials"], o["seed"]
        )
        detail = f"amplitude={amplitude!r}"
    passed = rel_err <= o["tolerance"]
    text = (
        f"mode={o['mode']} eta={cfg.params.eta!r} T={T} users_per_slot={users} "
        f"rho={cfg.params.rho!r} sigma2={cfg.params.sigma2!r} m={o['m']} "
        f"trials={o['trials']} seed={o['seed']}\n"
        f"{detail} rel_err={rel_err!r} tolerance={o['tolerance']!r}\n"
        f"{'PASS' if passed else 'FAIL'}\n"
    )
    _emit(text, o["output"])
    return 0 if passed else 3


_COMMANDS = {
    "point": (_cmd_point, "evaluate one operating point"),
    "curve": (_cmd_curve, "sweep rho, emit SE vs Eb/N0"),
    "density": (_cmd_curve, "sweep J, emit user density vs Eb/N0"),
    "limits": (_cmd_limits, "print applicable closed-form limits"),
    "validate": (_cmd_validate, "Monte-Carlo vs closed form"),
}


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command][0](config)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(config_from_args(build_parser().parse_args(argv)))
    except (HarqScaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
