"""In-memory span recorder used by the traced benchmark runs.

A span is (op, id, parent, name, label, start_ns, end_ns).  Spans of one
benchmark operation share the op id; ``parent`` is the id of the span that
was open when this one started (0 at the top).  Spans are recorded from the
benchmark's own files, by wrapping the module attributes through which the
package's public functions are called, so nothing under ``src/`` changes.

A dense sweep makes 10^4 evaluator calls per curve, so keeping every span
would cost tens of megabytes.  When an operation ends, every span's duration
and self time (duration minus the part covered by its direct children) are
folded into per-(name, label) arrays; only the first spans
of each name per operation (``KEEP_PER_NAME``) are kept for the written-out
trace, and the rest are counted as elided.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter_ns


KEEP_PER_NAME = 32


class Tracer:
    def __init__(self) -> None:
        self.kept: list[tuple] = []
        self.elided = 0
        self.durations: dict[tuple[str, str], array] = defaultdict(lambda: array("q"))
        self.self_times: dict[tuple[str, str], array] = defaultdict(lambda: array("q"))
        self._open: list[int] = []
        self._spans: list[tuple] = []  # spans of the current operation
        self._next_id = 1
        self.op = 0

    # -- recording ---------------------------------------------------------

    def _start(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else 0
        self._open.append(sid)
        return sid, parent

    def _finish(self, sid: int, parent: int, name: str, label: str, t0: int) -> None:
        t1 = perf_counter_ns()
        self._open.pop()
        self._spans.append((self.op, sid, parent, name, label, t0, t1))

    def span(self, name: str, label: str = ""):
        return _Span(self, name, label)

    def wrap(self, fn, name: str, label_of=None):
        """Return ``fn`` wrapped so that every call records one span."""

        def traced(*args, **kwargs):
            label = label_of(*args, **kwargs) if label_of else ""
            sid, parent = self._start()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(sid, parent, name, label, t0)

        return traced

    def add_foreign(self, spans: list[list]) -> None:
        """Add spans recorded in a child process to the current operation.

        Child span ids are renumbered into this tracer's id space; the
        child's top-level spans become children of the span open here.
        """
        parent_here = self._open[-1] if self._open else 0
        remap = {0: parent_here}
        for sid, _, _, _, _, _ in spans:
            remap[sid] = self._next_id
            self._next_id += 1
        for sid, parent, name, label, t0, t1 in spans:
            self._spans.append((self.op, remap[sid], remap[parent], name, label, t0, t1))

    # -- operations --------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._spans = []

    def end_op(self) -> list[tuple]:
        """Fold the current operation's spans into the aggregates; return them."""
        spans = self._spans
        covered: dict[int, int] = defaultdict(int)
        for _, _, parent, _, _, t0, t1 in spans:
            covered[parent] += t1 - t0
        seen: dict[str, int] = defaultdict(int)
        for span in spans:
            _, sid, _, name, label, t0, t1 = span
            self.durations[(name, label)].append(t1 - t0)
            self.self_times[(name, label)].append(t1 - t0 - covered[sid])
            seen[name] += 1
            if seen[name] <= KEEP_PER_NAME:
                self.kept.append(span)
            else:
                self.elided += 1
        self._spans = []
        return spans

    # -- queries -----------------------------------------------------------

    def items(self, name: str):
        """Yield (label, durations, self times) for every label of ``name``."""
        for (n, label), values in self.durations.items():
            if n == name:
                yield label, values, self.self_times[(n, label)]

    def write(self, path) -> None:
        doc = {
            "fields": ["op", "id", "parent", "name", "label", "start_ns", "end_ns"],
            "elided": self.elided,
            "spans": self.kept,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("tracer", "name", "label", "sid", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str, label: str) -> None:
        self.tracer, self.name, self.label = tracer, name, label

    def __enter__(self):
        self.sid, self.parent = self.tracer._start()
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._finish(self.sid, self.parent, self.name, self.label, self.t0)


def _pair_label(scheme, regime, params, *_, **__) -> str:
    return f"{scheme.value}.{regime.value}.T{params.T}"


def _grid_label(scheme, regime, params, grid, *_, **__) -> str:
    return f"n{len(grid)}"


def _points_label(curve, *_, **__) -> str:
    return f"n{len(curve.points)}"


def _sim_label(sigs, rho, sigma2, T, active, desired, trials, seed, workers=1) -> str:
    return f"T{T}.w{workers}.n{trials}"


def _amp_label(amplitude, counts, sigma2, trials, seed) -> str:
    return f"n{trials}"


def _name_label(name: str):
    return lambda *_, **__: name


def install(tracer: Tracer) -> callable:
    """Wrap every public call site of the package; return the undo function.

    The CLI reaches the other modules through names it imported, and sweeps
    reach the evaluator the same way, so those module attributes are the
    call boundaries: wrapping them records the spans without editing the
    package.
    """
    import harqscale
    import harqscale.cli as cli
    import harqscale.sweep as sweep

    patches = [
        (cli, "run", "cli.run", lambda cfg: cfg.command),
        (cli, "evaluate", "closedform.evaluate", _pair_label),
        (sweep, "evaluate", "closedform.evaluate", _pair_label),
    ]
    for module in (cli, harqscale):
        patches += [
            (module, "make_grid", "sweep.make_grid", None),
            (module, "se_curve", "sweep.se_curve", _grid_label),
            (module, "density_curve", "sweep.density_curve", _grid_label),
            (module, "curve_to_csv", "tables.curve_to_csv", _points_label),
            (module, "curve_to_json", "tables.curve_to_json", _points_label),
            (module, "make_equicorrelated_signatures", "simulate.signatures", None),
            (module, "simulate_cc_noma_sinr", "simulate.waveform", _sim_label),
            (module, "analytic_sinr", "simulate.analytic_sinr", None),
            (module, "verify_cc_oma_noise_expansion", "simulate.amplitude", _amp_label),
        ]
        for fn in ("ebn0_floor", "ebn0_rho_zero_limit", "ebn0_cbuf_infinity_ir_tin"):
            patches.append((module, fn, "limits.call", _name_label(fn)))
    patches.append((harqscale, "evaluate", "closedform.evaluate", _pair_label))

    saved = []
    for module, attr, name, label_of in patches:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, label_of))

    def undo() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo
