"""Command-line interface tests, driven in-process through main(argv); the
import tests run the CLI in a fresh interpreter."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import harqscale
import harqscale.cli
from harqscale import Regime, Scheme, SchemeParams, evaluate, make_grid, se_curve
from harqscale.cli import main
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


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


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


def test_curve_outputs_are_byte_identical_across_runs_and_workers(tmp_path):
    args = ["curve", *REF_ARGS, "--grid-min", "0.001", "--grid-max", "100",
            "--grid-points", "60"]
    paths = [tmp_path / f"c{i}.csv" for i in range(3)]
    for path in paths:
        assert main([*args, "--output", str(path)]) == 0
    blobs = [_read(p) for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


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


@pytest.mark.parametrize(
    "command, key",
    [("point", "scheme"), ("point", "regime"), ("point", "format"),
     ("curve", "grid_scale"), ("validate", "mode")],
)
def test_config_value_outside_choices_exits_2_naming_the_key(command, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = bogus\n")
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert key in captured.err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 1.0\nbandwidth = 5\n")
    assert main(["point", "--config", str(cfg)]) == 2
    assert "bandwidth" in capsys.readouterr().err


def test_malformed_config_value_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = fast\n")
    assert main(["point", "--config", str(cfg)]) == 2
    assert "rho" in capsys.readouterr().err


def test_invalid_parameters_exit_2_and_name_the_parameter(capsys):
    assert main(["point", "--rho", "-3"]) == 2
    assert "rho" in capsys.readouterr().err
    assert main(["point", "--T", "2", "--J", "1"]) == 2
    assert "J" in capsys.readouterr().err


def test_non_finite_parameter_exits_2_with_one_error_line(capsys):
    assert main(["point", "--rho", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "rho" in captured.err


def test_infinite_payload_exits_2_naming_l(capsys):
    assert main(["density", "--L", "inf", "--T", "2", "--scheme", "cc-noma"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "L" in captured.err


@pytest.mark.parametrize("scheme, extra", [("ir-oma", ["--c-buf", "inf"]), ("classical", []),
                                           ("cc-oma", [])])
def test_non_finite_metrics_exit_2_with_one_error_line(scheme, extra, capsys):
    # J*rho overflows: IR-OMA's refinement noise is inf/inf (se = nan), and
    # the classical and CC-OMA sum-optimal rates are inf (ebn0 = nan)
    argv = ["point", "--scheme", scheme, "--regime", "sum", "--T", "2", "--J", "1e200",
            "--rho", "1e200", *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not finite" in captured.err


def test_snr_per_bit_underflow_exits_2_naming_rho_and_sigma2(capsys):
    # rho * sigma2 rounds to 0, so ebn0 = 0 and its dB value is log10(0)
    assert main(["point", "--rho", "0.1", "--sigma2", "5e-324"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "rho" in captured.err and "sigma2" in captured.err


@pytest.mark.parametrize("argv", [
    pytest.param(["point", "--regime", "sum"], id="sum"),
    pytest.param(["point", "--regime", "tin"], id="tin"),
    # the floor reads the SINR at rho = 1, a value this command never gave
    pytest.param(["limits", "--regime", "sum", "--rho", "0.5"], id="limits-sum"),
])
def test_sinr_overflow_exits_2_naming_j(argv, capsys):
    # (J/T - 1)**2 in the CC-NOMA SINR overflows float
    assert main([*argv, "--scheme", "cc-noma", "--J", "1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "J = 1e+200" in captured.err
    assert "rho" not in captured.err


@pytest.mark.parametrize("argv, needle", [
    # P_tot = J*sigma2*rho overflows to inf on the fixed-total-power path
    (["--scheme", "cc-noma", "--regime", "sum", "--rho", "1e300", "--J", "1e10",
      "--sigma2", "1e10"], "not finite"),
    (["--scheme", "classical", "--regime", "tin", "--T", "1", "--rho", "1e300",
      "--J", "1e300"], "not finite"),
    # P_tot underflows to 0, whose dB value would be log10(0)
    (["--scheme", "cc-noma", "--regime", "sum", "--rho", "1e-200", "--J", "1",
      "--sigma2", "1e-200"], "underflows to 0"),
], ids=["inf-cc-noma-sum", "inf-classical-tin", "zero-cc-noma-sum"])
def test_limits_never_print_inf_or_a_math_domain_error(argv, needle, capsys):
    assert main(["limits", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err and "rho" in captured.err and "sigma2" in captured.err


@pytest.mark.parametrize("argv", [
    ["point", "--T", str(10**400)],
    ["point", "--B", str(10**400)],
    ["validate", "--T", str(10**400)],
    # inside float range, but no sequence has 10**300 slots
    ["validate", "--T", str(10**300)],
], ids=["point-T", "point-B", "validate-T", "validate-T-beyond-index"])
def test_integer_beyond_float_range_exits_2_naming_it(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[1][2:]} ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("regime", ["sum", "tin"])
def test_tiny_ir_buffer_exits_2_naming_c_buf(regime, capsys):
    # 2**(2*c_buf/(h*B)) rounds to 1, so the refinement noise would divide by 0
    argv = ["point", "--scheme", "ir-oma", "--regime", regime, "--T", "2", "--J", "4",
            "--c-buf", "1e-300"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "c_buf = 1e-300" in captured.err


def test_curve_grid_validation_errors(capsys):
    assert main(["curve", *REF_ARGS, "--grid-points", "1"]) == 2
    assert "grid" in capsys.readouterr().err
    assert main(["curve", *REF_ARGS, "--grid-min", "5", "--grid-max", "1"]) == 2
    assert "grid" in capsys.readouterr().err
    # non-finite bounds are refused before any grid is built: one error line
    for bounds in (["--grid-max", "inf"],
                   ["--grid-scale", "linear", "--grid-min=-inf", "--grid-max", "1"]):
        assert main(["curve", *REF_ARGS, *bounds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid bounds must be finite")
        assert captured.err.count("\n") == 1


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["point", "--snr", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["point", "curve", "density", "limits"])
def test_workers_flag_is_validate_only(command):
    # only the simulator runs threads; elsewhere the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main([command, "--workers", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [("--scheme", "cc-noma"), ("--regime", "tin"),
                                         ("--J", "20"), ("--B", "2"), ("--c-buf", "4"),
                                         ("--L", "50")])
def test_validate_rejects_the_parameters_its_oracle_does_not_read(flag, value):
    # the oracle checks CC-NOMA at J = T * users_per_slot; B, c_buf and L are unused
    with pytest.raises(SystemExit) as exc:
        main(["validate", flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["limits", "validate"])
def test_format_flag_is_for_point_and_curves_only(command):
    # limits and validate print text only; the flag is unknown to them
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "json"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("where", ["empty", "directory", "config"])
def test_unwritable_output_exits_2_with_one_error_line(where, tmp_path, monkeypatch, capsys):
    # "" resolves to the working directory; like a directory it cannot be
    # written as a file, from a flag or from an `output =` config line
    monkeypatch.delenv("HARQSCALE_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    if where == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output =\n")
        argv = ["--config", str(cfg)]
    else:
        argv = ["--output", "" if where == "empty" else str(tmp_path)]
    assert main(["point", *REF_ARGS, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "output" in captured.err


# ------------------------------------------------------------------ validate


def test_validate_waveform_reference_run(capsys):
    rc = main(["validate", "--eta", "0.1", "--T", "2", "--users-per-slot", "5",
               "--rho", "1", "--trials", "2000", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("PASS")
    assert "analytic=1.5151515151515151" in out


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["--rho", "1e-170"], ["--rho", "1e100", "--sigma2", "1e100"]],
                         ids=["underflow", "overflow"])
def test_validate_out_of_range_power_exits_2_naming_rho_sigma2(argv, capsys):
    # the estimate squares the signal and residual powers: at rho*sigma2 = 1e-170
    # a square underflows to 0, at 1e200 the residual power overflows
    assert main(["validate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "rho*sigma2" in captured.err


def test_validate_half_width_underflow_exits_2_naming_rho_sigma2(capsys):
    # noise-limited: the half-width's numerator scales like (rho*sigma2)^3 and
    # underflows before the division at rho*sigma2 = 1e-110
    assert main(["validate", "--rho", "1e-110"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "rho*sigma2" in captured.err and "half-width" in captured.err


def test_validate_constant_residual_exits_2_naming_rho_sigma2(capsys):
    # interference-limited: at rho*sigma2 = 1e70 the filtered noise is below
    # the last bit of the interference, so every trial gives the same
    # residual power and the half-width would be 0.0
    assert main(["validate", "--rho", "1e70"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "rho*sigma2" in captured.err and "same residual power" in captured.err


def test_validate_negative_seed_exits_2_naming_seed(capsys):
    assert main(["validate", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "seed" in captured.err


def test_validate_rejects_inconsistent_monte_carlo_knobs(capsys):
    assert main(["validate", "--trials", "0"]) == 2
    assert main(["validate", "--m", "3", "--users-per-slot", "5"]) == 2
    err = capsys.readouterr().err
    assert "m=" in err or "m " in err


# ------------------------------------------------------------------ lazy imports

_SRC = str(Path(harqscale.__file__).resolve().parent.parent)


def _imports(*args: str) -> tuple[int, set[str]]:
    """Run ``python -X importtime ARGS``; return its exit code and the names
    of the modules it imported."""
    path = [_SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, timeout=60)
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


_CLI = ("-m", "harqscale.cli")


@pytest.mark.parametrize("args, code, loaded", [
    (("-c", "import harqscale"), 0, set()),
    (("-c", "import harqscale.cli"), 0, set()),
    ((*_CLI, "point"), 0, set()),
    ((*_CLI, "limits", "--scheme", "ir-oma", "--regime", "tin", "--T", "2", "--J", "4"), 0, set()),
    ((*_CLI, "--help"), 0, set()),
    ((*_CLI, "point", "--rho", "0"), 2, set()),
    ((*_CLI, "limits", "--c-buf", "0"), 2, set()),
    ((*_CLI, "validate", "--trials", "0"), 2, set()),
    ((*_CLI, "curve", "--grid-max", "inf"), 2, set()),
    ((*_CLI, "curve"), 0, {"numpy"}),
    ((*_CLI, "validate"), 0, {"numpy", "harqscale.simulate"}),
], ids=["import", "import-cli", "point", "limits", "help", "point-rho-0", "limits-c-buf-0",
        "validate-trials-0", "curve-grid-max-inf", "curve", "validate"])
def test_which_commands_load_numpy_and_the_simulator(args, code, loaded):
    # curve and validate load them, so the import log does list what is imported
    rc, modules = _imports(*args)
    assert rc == code
    assert modules & {"numpy", "harqscale.simulate"} == loaded


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
