"""Command-line interface tests, driven in-process through main(argv); the
import tests run the CLI in a fresh interpreter.

Every input the CLI refuses, argparse's refusals included, is a row of one of
two tables, whose test states the contract once:

- ``REJECTED``: in process, exit 2, nothing on stdout and one ``error:`` line
  that holds the row's needles and none of its excluded words.
- ``REJECTED_BEFORE_WORK``: in a child under a 10 s deadline, the same exit and
  line, refused before numpy, statistics or the simulator is imported.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import harqscale
import harqscale.cli
from harqscale import Regime, Scheme, SchemeParams, evaluate, make_grid, se_curve
from harqscale.cli import GRID_POINTS_MAX, OPTIONS, build_parser, config_from_args, main
from harqscale.tables import CSV_HEADER

REF_ARGS = ["--scheme", "cc-noma", "--regime", "sum", "--rho", "1", "--T", "2",
            "--J", "10", "--eta", "1"]


# ------------------------------------------------------------------ point


def test_point_prints_reference_metrics(capsys):
    assert main(["point", *REF_ARGS]) == 0
    out = capsys.readouterr().out
    fields = dict(kv.split("=") for kv in out.split())
    assert float(fields["se"]) == 2.564641508472483
    assert float(fields["ebn0_linear"]) == 1.949590218937863
    assert float(fields["ebn0_db"]) == 2.8994333733384425


def test_point_json_format(capsys):
    assert main(["point", *REF_ARGS, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {
        "se": 2.564641508472483,
        "ebn0_linear": 1.949590218937863,
        "ebn0_db": 2.8994333733384425,
    }


def test_point_defaults_are_the_single_user_baseline(capsys):
    assert main(["point"]) == 0
    out = capsys.readouterr().out
    assert "se=0.5" in out and "ebn0_db=0.0" in out


# ------------------------------------------------------------------ limits


def test_limits_tin_floor_line(capsys):
    assert main(["limits", "--scheme", "cc-noma", "--regime", "tin",
                 "--rho", "1", "--T", "2", "--J", "10", "--eta", "1"]) == 0
    out = capsys.readouterr().out
    assert "floor-se-to-zero linear=0.6931471805599453 db=-1.591745389548616" in out
    assert "limit-rho-to-zero hold=j" in out


def test_limits_ir_oma_tin_includes_buffer_limit(capsys):
    assert main(["limits", "--scheme", "ir-oma", "--regime", "tin",
                 "--rho", "1", "--T", "2", "--J", "10"]) == 0
    out = capsys.readouterr().out
    assert "limit-cbuf-to-infinity" in out
    assert "limit-rho-to-zero hold=p_tot" in out


def test_limits_with_no_closed_forms_still_succeeds(capsys):
    assert main(["limits", "--scheme", "classical", "--regime", "sum",
                 "--T", "2", "--J", "10"]) == 0
    assert "no closed-form limits" in capsys.readouterr().out


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of each ``harqscale point|limits`` line in the README's
    ``sh`` blocks that is followed by ``# `` output lines."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            argv = line.split()
            if argv[:1] != ["harqscale"] or argv[1:2] not in (["point"], ["limits"]):
                continue
            shown = []
            for after in lines[i + 1:]:
                if not after.startswith("# "):
                    break
                shown.append(after[2:] + "\n")
            if shown:
                examples.append((argv[1:], "".join(shown)))
    return examples


def test_readme_cli_examples_print_what_the_readme_shows(capsys):
    examples = _readme_examples()
    assert {argv[0] for argv, _ in examples} == {"point", "limits"}
    for argv, shown in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == shown, argv


# ------------------------------------------------------------------ curves


def test_curve_csv_round_trips_the_library_floats(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main(["curve", *REF_ARGS, "--grid-min", "0.1", "--grid-max", "10",
               "--grid-points", "7", "--output", str(out)])
    assert rc == 0
    assert f"wrote {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "sweep_var,rho_or_J,ebn0_db,ebn0_linear,se_or_density"
    curve = se_curve(Scheme.CC_NOMA, Regime.SUM_OPTIMAL,
                     SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0),
                     make_grid(0.1, 10.0, 7))
    assert len(lines) == 1 + len(curve.points)
    for line, pt in zip(lines[1:], curve.points):
        var, x, db, lin, y = line.split(",")
        assert var == "rho"
        # repr round-trip: parsing the text recovers the exact binary floats
        assert float(x) == pt.rho and float(db) == pt.x_ebn0_db
        assert float(lin) == pt.ebn0_linear and float(y) == pt.y


def test_curve_json_carries_run_metadata(tmp_path):
    out = tmp_path / "c.json"
    assert main(["curve", *REF_ARGS, "--grid-min", "0.5", "--grid-max", "2",
                 "--grid-points", "3", "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["scheme"] == "cc-noma"
    assert doc["meta"]["regime"] == "sum"
    assert doc["meta"]["skipped"] == 0
    assert doc["meta"]["params"] == asdict(SchemeParams(rho=1.0, T=2, J=10.0, eta=1.0))
    assert doc["sweep_var"] == "rho"
    assert len(doc["points"]) == 3 and len(doc["grid"]) == 3
    assert doc["points"][1]["y"] == 2.564641508472483


def test_density_command_divides_by_payload(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["density", "--scheme", "cc-noma", "--regime", "sum", "--rho", "1",
                 "--T", "2", "--eta", "1", "--L", "100", "--grid-min", "2",
                 "--grid-max", "10", "--grid-points", "3", "--output", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert last[0] == "J" and float(last[1]) == 10.0
    assert float(last[4]) == 0.02564641508472483


def test_density_grid_below_slot_count_is_skipped_not_fatal(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["density", "--scheme", "cc-noma", "--regime", "sum", "--T", "2",
                 "--eta", "1", "--grid-min", "1", "--grid-max", "4",
                 "--grid-points", "3", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3  # header + J=2 + J=4


# ------------------------------------------------------------- configuration


def test_config_file_supplies_values_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference point\n"
        "scheme = cc-noma\n"
        "regime = tin\n"
        "rho = 2.0\n"
        "T = 2\n"
        "J = 10\n"
        "eta = 1\n"
    )
    assert main(["point", "--config", str(cfg)]) == 0
    out1 = capsys.readouterr().out
    assert "se=0.2153916093742864" in out1  # rho = 2 from the file
    assert main(["point", "--config", str(cfg), "--rho", "1"]) == 0
    out2 = capsys.readouterr().out
    assert "se=0.2122222439662824" in out2  # flag wins over the file


# a valid value other than the default for every SchemeParams field
FIELD_VALUES = {"rho": "0.5", "T": "3", "J": "12", "eta": "0.25", "sigma2": "2",
                "B": "2", "c_buf": "4", "L": "50"}


@pytest.mark.parametrize("name", [f.name for f in fields(SchemeParams)])
def test_parameter_from_flag_or_config_gives_the_same_run(name, tmp_path, capsys):
    # point prints the metrics, curve's JSON meta carries every parameter
    value = FIELD_VALUES[name]
    base = {"scheme": "ir-oma", "regime": "tin", "T": "2", "J": "10"}
    base.pop(name, None)
    base_args = [a for k, v in base.items() for a in (f"--{k}", v)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")
    for cmd in (["point"], ["curve", "--grid-points", "3"]):
        argv = [*cmd, *base_args, "--format", "json"]
        assert main([*argv, "--" + name.replace("_", "-"), value]) == 0
        from_flag = capsys.readouterr().out
        assert main([*argv, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flag
    field_type = type(getattr(SchemeParams(), name))
    assert json.loads(from_flag)["meta"]["params"][name] == field_type(value)


def test_every_scheme_param_is_an_option_with_its_default_and_type():
    default = SchemeParams()
    for f in fields(SchemeParams):
        value = getattr(default, f.name)
        opt = harqscale.cli.OPTIONS[f.name]
        assert opt.default == value and opt.type is type(value), f.name


def test_validate_accepts_its_size_inputs_at_their_bounds(capsys):
    # m and users_per_slot = m - 1 at theirs, and each product bound reached
    for argv in (["--m", "1024", "--users-per-slot", "1023", "--T", "1", "--trials", "9"],
                 ["--mode", "amplitude", "--T", "10000", "--trials", "1",
                  "--users-per-slot", "10"],
                 ["--mode", "amplitude", "--T", "100", "--trials", "10000",
                  "--users-per-slot", "10"],
                 ["--mode", "amplitude", "--T", "10000", "--trials", "100"]):
        assert main(["validate", *argv]) in (0, 3)
        assert capsys.readouterr().err == ""


def test_grid_points_at_the_bound_are_accepted():
    for command in ("curve", "density"):
        ns = build_parser().parse_args([command, "--grid-points", str(GRID_POINTS_MAX)])
        assert config_from_args(ns).options["grid_points"] == GRID_POINTS_MAX


def test_format_in_a_config_is_ignored_by_limits(tmp_path, capsys):
    argv = ["limits", "--scheme", "cc-noma", "--regime", "tin", "--T", "2", "--J", "10"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    assert main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain


VALIDATE_KNOBS = {"trials": "0", "workers": "0", "m": "0", "users_per_slot": "0",
                  "tolerance": "0"}


def test_validate_knobs_in_a_config_are_checked_by_validate_only(tmp_path, capsys):
    # every subcommand accepts every config key and ignores those it does not use
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in VALIDATE_KNOBS.items()))
    assert main(["point", *REF_ARGS]) == 0
    plain = capsys.readouterr().out
    assert main(["point", *REF_ARGS, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain
    assert main(["validate", "--config", str(cfg)]) == 2
    for key, value in VALIDATE_KNOBS.items():
        cfg.write_text(f"{key} = {value}\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and key in captured.err


def test_output_dir_env_var_anchors_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HARQSCALE_OUT_DIR", str(tmp_path / "results"))
    assert main(["point", *REF_ARGS, "--output", "sub/point.txt"]) == 0
    capsys.readouterr()
    target = tmp_path / "results" / "sub" / "point.txt"
    assert target.is_file()
    assert "se=2.564641508472483" in target.read_text()
    # absolute paths ignore the environment anchor
    absolute = tmp_path / "abs.txt"
    assert main(["point", *REF_ARGS, "--output", str(absolute)]) == 0
    assert absolute.is_file()


# ------------------------------------------------------------------ validate


def test_validate_waveform_reference_run(capsys):
    rc = main(["validate", "--eta", "0.1", "--T", "2", "--users-per-slot", "5",
               "--rho", "1", "--trials", "2000", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("PASS")
    assert "analytic=1.5151515151515151" in out


def test_validate_estimate_does_not_depend_on_m(capsys):
    # noise is drawn only on the desired user's support, so m only sizes the
    # signature array: every line but the first (which echoes m) is the same
    outputs = []
    for m in ("11", "1024"):
        assert main(["validate", "--users-per-slot", "10", "--T", "2", "--trials", "2000",
                     "--seed", "3", "--m", m]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0][0] != outputs[1][0]
    assert outputs[0][1:] == outputs[1][1:]


def test_validate_runs_t_times_users_per_slot_transmissions(capsys):
    # J is T * users_per_slot = 33, with no default of its own for T = 11 to exceed
    assert main(["validate", "--T", "11", "--users-per-slot", "3"]) == 0
    out = capsys.readouterr().out
    analytic = harqscale.analytic_sinr(Scheme.CC_NOMA, 1.0, 11, (3,) * 11, 0.1)
    assert f"analytic={analytic!r} " in out


@pytest.mark.parametrize("line", ["J = 1", "J = 3", "c_buf = 0"])
def test_validate_ignores_config_keys_it_does_not_take(line, tmp_path, capsys):
    # checked for type and choices like every key, then left out of the oracle's run
    argv = ["validate", "--trials", "300"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain


def test_validate_defaults_pass(capsys):
    assert main(["validate"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_amplitude_mode(capsys):
    assert main(["validate", "--mode", "amplitude", "--trials", "10000"]) == 0
    out = capsys.readouterr().out
    assert "amplitude=" in out and "PASS" in out


def test_validate_fail_exits_3(capsys):
    rc = main(["validate", "--trials", "500", "--seed", "7", "--tolerance", "1e-9"])
    out = capsys.readouterr().out
    assert rc == 3
    assert out.strip().endswith("FAIL")


# ------------------------------------------------------------------ help


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  *([command, "--help"] for command in
                                    ("point", "curve", "density", "limits", "validate"))],
                         ids=" ".join)
def test_help_and_version_exit_0_and_show_each_options_choices(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.out and captured.err == ""
    # _merged checks the choices; the help still prints them as argparse did
    for key, opt in OPTIONS.items():
        if argv[0] in opt.commands and opt.choices:
            assert f"--{key.replace('_', '-')} {{{','.join(opt.choices)}}}" in captured.out


# ------------------------------------------------------------------ lazy imports

_SRC = str(Path(harqscale.__file__).resolve().parent.parent)


def _imports(*args: str, timeout: float = 60) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime ARGS``; return the finished process and the
    names of the modules it imported."""
    path = [_SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, timeout=timeout)
    return proc, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


_CLI = ("-m", "harqscale.cli")
_DEFERRED = {"numpy", "statistics", "harqscale.simulate"}


@pytest.mark.parametrize("args, loaded", [
    (("-c", "import harqscale"), set()),
    (("-c", "import harqscale.cli"), set()),
    ((*_CLI, "point"), set()),
    ((*_CLI, "limits", "--scheme", "ir-oma", "--regime", "tin", "--T", "2", "--J", "4"), set()),
    ((*_CLI, "--help"), set()),
    ((*_CLI, "curve"), {"numpy"}),
    ((*_CLI, "validate"), {"numpy", "harqscale.simulate"}),
], ids=["import", "import-cli", "point", "limits", "help", "curve", "validate"])
def test_which_commands_load_numpy_and_the_simulator(args, loaded):
    # curve and validate load them, so the import log does list what is imported;
    # statistics loads only on closedform.qinv's first call, which no command makes
    proc, modules = _imports(*args)
    assert proc.returncode == 0
    assert modules & _DEFERRED == loaded


def test_lazy_simulate_names_resolve_and_unknown_names_raise():
    namespace = {}
    exec("from harqscale import *", namespace)
    for name in harqscale.__all__:
        assert namespace[name] is getattr(harqscale, name)
    assert harqscale.simulate_cc_noma_sinr is harqscale.simulate.simulate_cc_noma_sinr
    with pytest.raises(AttributeError, match="no_such_name"):
        harqscale.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        harqscale.cli.no_such_name
    # one table of lazy names: the CLI defers to the package's hook
    assert harqscale.cli.__getattr__ is harqscale.__getattr__
    for name in ("make_equicorrelated_signatures", "simulate_cc_noma_sinr", "analytic_sinr",
                 "verify_cc_oma_noise_expansion"):
        assert getattr(harqscale.cli, name) is getattr(harqscale, name)


def test_validate_calls_a_wrapper_set_on_the_cli_module(capsys):
    # bench/spans.install wraps the call sites with setattr on the module
    original = harqscale.cli.simulate_cc_noma_sinr
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[6])
        return original(*args, **kwargs)

    setattr(harqscale.cli, "simulate_cc_noma_sinr", wrapper)
    try:
        main(["validate", "--trials", "300"])
    finally:
        setattr(harqscale.cli, "simulate_cc_noma_sinr", original)
    assert calls == [300]
    assert "estimate=" in capsys.readouterr().out


# ------------------------------------------------------------------ rejected inputs

REF = " ".join(REF_ARGS)

def _rejected(row_id, command, *needles, cfg=None, absent=(), marks=()):
    """A row of ``REJECTED`` or ``REJECTED_BEFORE_WORK``. ``{cfg}`` in the command or a
    needle is the config file's path; the file holds ``cfg`` (not written when None).
    A needle that starts ``error: `` starts the line; ending in the newline, it is the line."""
    return pytest.param(command, cfg, needles, absent, id=row_id, marks=marks)


def _argv(command, cfg, tmp_path):
    path = tmp_path / "run.cfg"
    if cfg is not None:
        path.write_text(cfg)
    return [arg.replace("{cfg}", str(path)) for arg in shlex.split(command)]


def _assert_refused(code, out, err, needles, absent, tmp_path):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    for needle in needles:
        needle = needle.replace("{cfg}", str(tmp_path / "run.cfg"))
        assert err.startswith(needle) if needle.startswith("error: ") else needle in err
    for word in absent:
        assert word not in err


def _twins(row_id, command, key, text, *needles):
    """The same bad value from a config file and from a flag: both are refused by
    one rule, whose line names the source, the key and the quoted text."""
    flag = f"--{key.replace('_', '-')} {text}"
    return [_rejected(f"{source}-{row_id}", f"{command} {args}",
                      f"error: {source}: bad value for {key}: {text!r}", *needles, cfg=cfg)
            for source, args, cfg in [("config", "--config {cfg}", f"{key} = {text}\n"),
                                      ("flag", flag, None)]]


REJECTED = [
    *(row for command, key in [("point", "scheme"), ("point", "regime"), ("point", "format"),
                               ("curve", "grid_scale"), ("validate", "mode")]
      for row in _twins(f"{key}-outside-choices", command, key, "bogus", "(choose from ")),
    *_twins("malformed-value", "point", "rho", "fast"),
    *_twins("T-not-an-integer", "point", "T", "2.5"),
    *(_rejected(f"config-{row_id}", "point --config {cfg}", needle, cfg=cfg)
      for row_id, needle, cfg in [("unreadable", "{cfg}", None),
                                  ("line-without-equals", "{cfg}:3", "# model\nrho = 1.0\nT 2\n"),
                                  ("unknown-key", "bandwidth", "rho = 1.0\nbandwidth = 5\n")]),
    # argparse's own refusals, sent to main's one error line
    _rejected("flag-without-value", "point --rho",
              "error: argument --rho: expected one argument\n"),
    _rejected("no-command", "", "error: the following arguments are required: command\n"),
    _rejected("unknown-command", "frobnicate",
              "error: argument command: invalid choice: 'frobnicate' "),
    # a flag the command does not take
    *(_rejected(f"{command}-takes-no-{flag.split()[0][2:]}", f"{command} {flag}",
                f"error: unrecognized arguments: {flag}\n")
      for command, flag in [
          ("point", "--snr 3"),
          # only the simulator runs threads; elsewhere the flag is unknown
          *((command, "--workers 4") for command in ("point", "curve", "density", "limits")),
          # the oracle checks CC-NOMA at J = T * users_per_slot; B, c_buf and L are unused
          *(("validate", flag) for flag in ("--scheme cc-noma", "--regime tin", "--J 20",
                                            "--B 2", "--c-buf 4", "--L 50")),
          # limits and validate print text only
          ("limits", "--format json"), ("validate", "--format json")]),
    _rejected("rho-negative", "point --rho -3", "rho"),
    _rejected("J-below-T", "point --T 2 --J 1", "J"),
    _rejected("rho-inf", "point --rho inf", "rho"),
    _rejected("L-inf", "density --L inf --T 2 --scheme cc-noma", "L"),
    # J*rho overflows: IR-OMA's refinement noise is inf/inf (se = nan), and
    # the classical and CC-OMA sum-optimal rates are inf (ebn0 = nan)
    *(_rejected(f"not-finite-{scheme}",
                f"point --scheme {scheme} --regime sum --T 2 --J 1e200 --rho 1e200{extra}",
                "not finite")
      for scheme, extra in [("ir-oma", " --c-buf inf"), ("classical", ""), ("cc-oma", "")]),
    # rho * sigma2 rounds to 0, so ebn0 = 0 and its dB value is log10(0)
    _rejected("snr-per-bit-underflow", "point --rho 0.1 --sigma2 5e-324", "rho", "sigma2"),
    # (J/T - 1)**2 in the CC-NOMA SINR overflows float; the limits floor reads
    # the SINR at rho = 1, a value this command never gave
    *(_rejected(f"sinr-overflow-{row_id}", f"{command} --scheme cc-noma --J 1e200",
                "J = 1e+200", absent=("rho",))
      for row_id, command in [("sum", "point --regime sum"), ("tin", "point --regime tin"),
                              ("limits-sum", "limits --regime sum --rho 0.5")]),
    # P_tot = J*sigma2*rho overflows to inf on the fixed-total-power path, or
    # underflows to 0, whose dB value would be log10(0)
    _rejected("limits-inf-cc-noma-sum",
              "limits --scheme cc-noma --regime sum --rho 1e300 --J 1e10 --sigma2 1e10",
              "not finite", "rho", "sigma2"),
    _rejected("limits-inf-classical-tin",
              "limits --scheme classical --regime tin --T 1 --rho 1e300 --J 1e300",
              "not finite", "rho", "sigma2"),
    _rejected("limits-zero-cc-noma-sum",
              "limits --scheme cc-noma --regime sum --rho 1e-200 --J 1 --sigma2 1e-200",
              "underflows to 0", "rho", "sigma2"),
    *(_rejected(f"{command}-{name}-beyond-float", f"{command} --{name} {10**400}",
                f"error: {name} ")
      for command, name in [("point", "T"), ("point", "B"), ("validate", "T")]),
    # inside float range; T * trials is past its bound
    _rejected("validate-T-beyond-index", f"validate --T {10**300}", "error: T "),
    _rejected("validate-T-times-trials", "validate --T 1 --trials 1000001",
              "error: T * trials must be <= 1000000, got 1 * 1000001\n"),
    # 2**(2*c_buf/(h*B)) rounds to 1, so the refinement noise would divide by 0
    *(_rejected(f"ir-buffer-tiny-{regime}",
                f"point --scheme ir-oma --regime {regime} --T 2 --J 4 --c-buf 1e-300",
                "c_buf = 1e-300")
      for regime in ("sum", "tin")),
    _rejected("grid-points-1", f"curve {REF} --grid-points 1", "grid"),
    _rejected("grid-min-above-max", f"curve {REF} --grid-min 5 --grid-max 1", "grid"),
    # non-finite bounds are refused before any grid is built
    _rejected("grid-min-minus-inf", f"curve {REF} --grid-scale linear --grid-min=-inf "
              "--grid-max 1", "error: grid bounds must be finite"),
    # "" resolves to the working directory; like a directory it cannot be
    # written as a file, from a flag or from an `output =` config line
    _rejected("output-empty", f"point {REF} --output ''", "output"),
    _rejected("output-directory", f"point {REF} --output .", "output"),
    _rejected("output-config", f"point {REF} --config {{cfg}}", "output", cfg="output =\n"),
    # the estimate squares the signal and residual powers: at rho*sigma2 = 1e-170
    # a square underflows to 0, at 1e200 the residual power overflows
    _rejected("validate-power-underflow", "validate --rho 1e-170", "rho*sigma2"),
    _rejected("validate-power-overflow", "validate --rho 1e100 --sigma2 1e100", "rho*sigma2"),
    # noise-limited: the half-width's numerator scales like (rho*sigma2)^3 and
    # underflows before the division at rho*sigma2 = 1e-110
    _rejected("validate-half-width-0", "validate --rho 1e-110", "rho*sigma2", "half-width"),
    # interference-limited: at rho*sigma2 = 1e70 the filtered noise is below the
    # last bit of the interference, so every trial gives the same residual
    # power and the half-width would be 0.0
    _rejected("validate-constant-residual", "validate --rho 1e70",
              "rho*sigma2", "same residual power"),
    # at rho*sigma2 = 1e308 the signal power overflows: refused before any trial, unwarned
    _rejected("validate-signal-overflow", "validate --rho 1e308", "rho*sigma2"),
    # the amplitude check: no power at rho = 0 or sigma2 = 1e-320; amplitude**4
    # overflows at rho = 1e200, and at 1e-200 rounds to 0, so no interference is tested
    *(_rejected(f"amplitude-{key}-{value}", f"validate --mode amplitude --{key} {value}",
                "amplitude_samples = ")
      for key, value in [("rho", "0"), ("sigma2", "1e-320"), ("rho", "1e200"), ("rho", "1e-200")]),
    _rejected("validate-seed-negative", "validate --seed -1", "seed"),
    _rejected("validate-m-below-users", "validate --m 3 --users-per-slot 5", "m="),
    # a rate that rounds to 0 ends in a ZeroDivisionError traceback (exit 1) until
    # the evaluator names it; then these rows pass and the mark goes
    *(_rejected(f"rate-rounds-to-0-{row_id}", command, "rho", marks=pytest.mark.xfail(
          strict=True, raises=ZeroDivisionError, reason="ROADMAP direction 1"))
      for row_id, command in [
          ("cc-noma-tin", "point --scheme cc-noma --regime tin --rho 1e-20"),
          ("classical-sum", "point --scheme classical --regime sum --rho 1e-17"),
          ("limits-ir-oma-tin", "limits --scheme ir-oma --regime tin --rho 1e-20 --T 2 --J 4")]),
]


@pytest.mark.parametrize("command, cfg, needles, absent", REJECTED)
def test_rejected_input_exits_2_with_one_error_line(command, cfg, needles, absent, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HARQSCALE_OUT_DIR", raising=False)
    code = main(_argv(command, cfg, tmp_path))
    _assert_refused(code, *capsys.readouterr(), needles, absent, tmp_path)


REJECTED_BEFORE_WORK = [
    # unbounded, these run for hours or run out of memory
    _rejected("point-ir-oma-tin-T-1e10",
              "point --scheme ir-oma --regime tin --T 10000000000 --J 1e10", "error: T "),
    _rejected("validate-T-2**62", f"validate --T {2**62}", "error: T "),
    _rejected("validate-T-1e8", "validate --T 100000000 --trials 10", "error: T "),
    # unbounded, these run for seconds or allocate their full size
    _rejected("validate-phases",
              "validate --mode amplitude --T 1000 --trials 1000 --users-per-slot 11",
              "error: T * users_per_slot * trials must be <= 10000000, got 1000 * 11 * 1000\n"),
    _rejected("validate-frame",
              "validate --mode amplitude --T 10000 --trials 1 --users-per-slot 11",
              "error: T * users_per_slot must be <= 100000, got 10000 * 11\n"),
    *(_rejected(row_id, f"validate --m {m}", f"error: m must be <= 1024, got {m}\n")
      for row_id, m in [("validate-m", 1025), ("validate-huge-m", 10**12)]),
    # unbounded, 10**13 points asks numpy for 73 TiB
    *(_rejected(f"{command}-grid-points-{points_id}", f"{command} --grid-points {points}",
                f"error: grid_points must be in 2..{GRID_POINTS_MAX} for curves, got {points}\n")
      for command in ("curve", "density")
      for points, points_id in [(GRID_POINTS_MAX + 1, "bound+1"), (10**13, "huge")]),
    _rejected("point-rho-0", "point --rho 0", "error: rho = 0 "),
    _rejected("limits-c-buf-0", "limits --c-buf 0", "error: c_buf "),
    _rejected("validate-trials-0", "validate --trials 0", "error: trials "),
    _rejected("curve-grid-max-inf", "curve --grid-max inf", "error: grid bounds must be finite"),
    # refused by argparse and by the typing rule, on the installed console path
    _rejected("point-takes-no-snr", "point --snr 3", "error: unrecognized arguments: --snr 3\n"),
    _rejected("flag-malformed-value", "point --rho fast",
              "error: flag: bad value for rho: 'fast'\n"),
]


@pytest.mark.parametrize("command, cfg, needles, absent", REJECTED_BEFORE_WORK)
def test_rejected_before_any_work_in_a_child(command, cfg, needles, absent, tmp_path):
    proc, modules = _imports(*_CLI, *_argv(command, cfg, tmp_path), timeout=10)
    err = "".join(line + "\n" for line in proc.stderr.splitlines()
                  if not line.startswith("import time:"))
    _assert_refused(proc.returncode, proc.stdout, err, needles, absent, tmp_path)
    assert not modules & _DEFERRED
