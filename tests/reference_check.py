"""Check the package's outputs bit for bit against ``bench/reference.json``.

Usage, from the root of a checkout:  python tests/reference_check.py

Recomputes every reference entry in memory with ``record_cli``,
``record_sweep`` and ``record_mc`` from ``bench/record.py`` (never its
``main``, which would overwrite the file) and compares each with the recorded
value.  One difference is allowed, the rule the cli-oneshot workload applies:
an item-4 input (``CLI_ITEM4_INPUTS``) that now ends in a named error, exit 2
with nothing on stdout, instead of its recorded failure.  Prints the count
per section and exits 1 on any other mismatch.  It is not a ``test_*`` file,
so pytest does not collect it; it takes about a minute and a half.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from record import record_cli, record_mc, record_sweep  # noqa: E402
from workloads import CLI_ITEM4_INPUTS, cli_key, digest, load_reference  # noqa: E402


def compare(section: str, got: dict, want: dict, named_error_ok: frozenset = frozenset()) -> int:
    named_error = [2, "", digest("")]
    named = [k for k in named_error_ok if got.get(k) != want.get(k) and got.get(k) == named_error]
    bad = sorted(k for k in got.keys() | want.keys()
                 if got.get(k) != want.get(k) and k not in named)
    note = f", {len(named)} item-4 input(s) now a named error" if named_error_ok else ""
    print(f"{section}: {len(want)} recorded, {len(bad)} mismatched{note}")
    for key in bad[:10]:
        print(f"  {key}: recorded {want.get(key)!r}, got {got.get(key)!r}")
    return len(bad)


def main() -> int:
    reference = load_reference()
    item4 = frozenset(cli_key(argv) for argv in CLI_ITEM4_INPUTS)
    bad = compare("cli", record_cli(), reference["cli"], item4)
    bad += compare("sweep", record_sweep(), reference["sweep"])
    bad += compare("mc", record_mc(), reference["mc"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
