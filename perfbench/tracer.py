"""Span tracing of volmin's layers, installed from outside the package.

`Tracer.install` replaces every public module-level function of each traced
volmin module (plus the few private functions and methods another module
calls) with a wrapper that records one span per call: name, start, end,
parent span and operation id. The replacement is made on every module
attribute bound to the function, so names imported with `from .fileio
import atomic_write_text` are traced too. Nothing under `src/` changes;
`uninstall` restores the originals.

Spans are appended to flat lists in memory. `self_times` turns one pass's
spans into self times and checks that they nest, `check_accounting` checks
that each operation's self times add up to its duration, and
`layer_metrics` derives the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "cli", "config", "data", "noise", "transition", "model",
    "trainer", "estimators", "geometry", "linalg", "fileio",
)

# The CLI layer is the operation span the benchmark opens around each
# `cli.main` call; its functions are not wrapped again.
_WRAPPED_LAYERS = LAYERS[1:]

# Private names that another module calls, and methods the step calls.
_PRIVATE = {"model": ("_forward_cached",)}
_METHODS = (("trainer", "OptimizerState", "step"),)

STEP = "trainer.loss_and_grads"


def _note_extreme_columns(args, result):
    yield "geometry.columns_in", args[0].shape[1]
    yield "geometry.columns_out", result.shape[1]


def _note_write_text(args, result):
    # manifest.txt records the pass's output directory and wall time, so its
    # length varies between passes; like the artifact digest, skip it.
    if Path(args[0]).name != "manifest.txt":
        yield "fileio.bytes_written", len(args[1].encode("utf-8"))


def _note_write_csv(args, result):
    yield "data.rows_written", args[1].n


def _note_read_csv(args, result):
    yield "data.rows_read", result.n


# Counters read from a traced call's arguments or result.
_NOTES = {
    "geometry.extreme_columns": _note_extreme_columns,
    "fileio.atomic_write_text": _note_write_text,
    "data.write_csv": _note_write_csv,
    "data.read_csv": _note_read_csv,
}


class Tracer:
    """Spans of one pass, kept as parallel lists indexed by span id.

    `modules` maps each name in LAYERS to the imported volmin module."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.notes: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack = [-1]

    def reset(self) -> None:
        """Drop recorded spans; installed wrappers keep recording into the
        same (now empty) lists."""
        for seq in (self.names, self.parents, self.ops, self.starts, self.ends):
            seq.clear()
        self.notes.clear()
        self.op = -1
        del self._stack[1:]

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a new operation span (one CLI command)."""
        self.op += 1
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        note = _NOTES.get(name)
        notes = self.notes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                for key, amount in note(args, result):
                    notes[key] += amount
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def _targets(self):
        for layer in _WRAPPED_LAYERS:
            mod = self.modules[layer]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in _PRIVATE.get(layer, ()))
                ):
                    yield f"{layer}.{attr}", value

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self._targets()}
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(self.modules[layer], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{self.ops[i]}\t{i}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )


# ---------------------------------------------------------------------------
# analysis of one pass


class SpanError(AssertionError):
    """Spans that do not nest: a child outside its parent, or overlapping
    siblings."""


def self_times(tracer: Tracer) -> list[float]:
    """Per-span self time, after checking that the spans nest.

    Self time is the span's duration minus the time its child spans cover.
    Calls are sequential, so children of one span must lie inside it and
    must not overlap each other; a violation raises SpanError."""
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    child_time = [0.0] * len(starts)
    last_child_end: dict[int, float] = {}
    for i, p in enumerate(parents):
        if ends[i] < starts[i]:
            raise SpanError(f"span {i} ({tracer.names[i]}) ends before it starts")
        if p < 0:
            continue
        if starts[i] < starts[p] or ends[i] > ends[p]:
            raise SpanError(f"span {i} ({tracer.names[i]}) leaves its parent")
        if starts[i] < last_child_end.get(p, starts[p]):
            raise SpanError(f"span {i} ({tracer.names[i]}) overlaps a sibling")
        last_child_end[p] = ends[i]
        child_time[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child_time[i] for i in range(len(starts))]


def check_accounting(tracer: Tracer, selfs: list[float]) -> None:
    """Each operation's self times (its own plus every descendant's) add up
    to the operation span's duration."""
    total: dict[int, float] = defaultdict(float)
    count: dict[int, int] = defaultdict(int)
    for op, s in zip(tracer.ops, selfs):
        total[op] += s
        count[op] += 1
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            continue
        duration = tracer.ends[i] - tracer.starts[i]
        op = tracer.ops[i]
        # Each span's ends are read from a clock of large magnitude, so allow
        # a rounding error of about 1e-10 s per span.
        if abs(total[op] - duration) > 1e-10 * count[op]:
            raise SpanError(
                f"operation {op} ({tracer.names[i]}): self times sum to "
                f"{total[op]!r} s, span lasts {duration!r} s"
            )


def layer_metrics(tracer: Tracer, selfs: list[float]) -> dict[str, float]:
    """Per-layer metrics of one pass: totals in s, per-call times in us,
    counts exact."""
    names, parents, starts, ends = tracer.names, tracer.parents, tracer.starts, tracer.ends
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    in_step = [False] * len(names)
    step_calls: dict[str, int] = defaultdict(int)  # calls made inside a step
    forward_in_step = [0, 0.0]  # calls, seconds
    for i, name in enumerate(names):
        d = ends[i] - starts[i]
        calls[name] += 1
        total[name] += d
        self_total[name] += selfs[i]
        layer_self[name.split(".", 1)[0]] += selfs[i]
        p = parents[i]
        if p >= 0 and (in_step[p] or names[p] == STEP):
            in_step[i] = True
            step_calls[name] += 1
            if name == "model._forward_cached" and names[p] == STEP:
                forward_in_step[0] += 1
                forward_in_step[1] += d

    def per_call_us(name: str) -> float:
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def per_step(count: float) -> float:
        return count / calls[STEP] if calls[STEP] else 0.0

    notes = tracer.notes
    csv_s = total["data.write_csv"] + total["data.read_csv"]
    csv_rows = notes["data.rows_written"] + notes["data.rows_read"]
    m = {
        "cli.generate_s": total["cli.generate"],
        "cli.corrupt_s": total["cli.corrupt"],
        "cli.train_volmin_s": total["cli.train-volmin"],
        "cli.check_scattered_s": total["cli.check-scattered"],
        "cli.sweep_s": total["cli.sweep"],
        "trainer.steps": calls[STEP],
        "trainer.loss_and_grads_us": per_call_us(STEP),
        "trainer.loss_and_grads_self_us": (
            1e6 * self_total[STEP] / calls[STEP] if calls[STEP] else 0.0
        ),
        "trainer.optimizer_step_us": per_call_us("trainer.OptimizerState.step"),
        "trainer.train_self_s": self_total["trainer.train"],
        "model.forward_us": (
            1e6 * forward_in_step[1] / forward_in_step[0] if forward_in_step[0] else 0.0
        ),
        "model.forward_batch_s": total["model.forward_batch"],
        "transition.realize_us": per_call_us("transition.realize"),
        "transition.realize_calls": calls["transition.realize"],
        "transition.backward_us": per_call_us("transition.backward"),
        "linalg.signed_logdet_us": per_call_us("linalg.signed_logdet"),
        "linalg.inverse_transpose_us": per_call_us("linalg.inverse_transpose"),
        "linalg.factorizations_per_step": per_step(
            step_calls["linalg.signed_logdet"] + step_calls["linalg.inverse_transpose"]
        ),
        "linalg.as_matrix_calls_per_step": per_step(step_calls["linalg.as_matrix"]),
        "linalg.nnls_us": per_call_us("linalg.nnls"),
        "linalg.nnls_calls": calls["linalg.nnls"],
        "estimators.fit_noisy_posterior_s": total["estimators.fit_noisy_posterior"],
        "estimators.anchor_estimate_s": (
            total["estimators.anchor_estimate_max"]
            + total["estimators.anchor_estimate_percentile"]
        ),
        "geometry.check_cone_coverage_s": total["geometry.check_cone_coverage"],
        "geometry.search_rotation_witness_s": total["geometry.search_rotation_witness"],
        "geometry.basis_columns_kept": (
            notes["geometry.columns_out"] / notes["geometry.columns_in"]
            if notes["geometry.columns_in"] else 0.0
        ),
        "data.gen_s": total["data.gen_simplex_feature"] + total["data.gen_gaussian_mixture"],
        "data.write_csv_s": total["data.write_csv"],
        "data.read_csv_s": total["data.read_csv"],
        "data.csv_rows_per_s": csv_rows / csv_s if csv_s else 0.0,
        "fileio.atomic_write_text_s": total["fileio.atomic_write_text"],
        "fileio.bytes_written": notes["fileio.bytes_written"],
        "fileio.sha256_of_file_s": total["fileio.sha256_of_file"],
        "noise.corrupt_labels_s": total["noise.corrupt_labels"],
        "trace.spans": len(names),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
