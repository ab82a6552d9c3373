"""Record ``reference.json``: the package's closed-form outputs for every
input the workloads can draw.

Usage, from the root of a checkout:  python bench/record.py

The reference holds, per input, a 16-hex-digit SHA-256 prefix of the output
text (CLI stdout, curve CSV and JSON), the closed-form part of ``validate``
output, the exact ``repr`` of each oracle cell's analytic SINR, and how each
ROADMAP item-4 input fails.  It was recorded once, at the commit that added
the benchmark; recording it again changes what the benchmark accepts.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import harqscale  # noqa: E402
from harqscale import cli  # noqa: E402

from workloads import (  # noqa: E402
    CLI_ITEM4_INPUTS,
    MC_ETAS,
    MC_T,
    MC_USERS,
    REFERENCE_PATH,
    SWEEP_VARIANTS,
    cli_key,
    cli_universe,
    digest,
    mc_key,
    sweep_curve,
    sweep_key,
    sweep_universe,
    validate_closed_form_part,
)


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, uncaught exception name) of one in-process command."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception as exc:  # an item-4 input: the interpreter would exit 1
        return 1, out.getvalue(), type(exc).__name__
    return code, out.getvalue(), ""


def record_cli() -> dict:
    ref = {}
    for kind, commands in cli_universe().items():
        for argv in commands:
            code, stdout, exc = run_cli(argv)
            if kind in ("validate", "amplitude"):
                assert code in (0, 3) and not exc, argv
                ref[cli_key(argv)] = digest(validate_closed_form_part(stdout))
            else:
                assert code == 0 and not exc, argv
                ref[cli_key(argv)] = digest(stdout)
    for argv in CLI_ITEM4_INPUTS:
        code, stdout, exc = run_cli(argv)
        ref[cli_key(argv)] = [code, exc, digest(stdout)]
    return ref


def record_sweep() -> dict:
    ref = {}
    for shape in sweep_universe():
        for variant in range(len(SWEEP_VARIANTS)):
            csv_text, json_text, _ = sweep_curve(harqscale, shape, variant)
            ref[sweep_key(shape, variant)] = [digest(csv_text), digest(json_text)]
    return ref


def record_mc() -> dict:
    return {
        mc_key(eta, T, users): repr(
            harqscale.analytic_sinr(harqscale.Scheme.CC_NOMA, 1.0, T, [users] * T, eta)
        )
        for eta in MC_ETAS
        for T in MC_T
        for users in MC_USERS
    }


def main() -> int:
    reference = {"cli": record_cli(), "sweep": record_sweep(), "mc": record_mc()}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH} ({sum(len(v) for v in reference.values())} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
