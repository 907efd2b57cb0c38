"""Layer tracer for the benchmark: spans around public functions of structran.

The tracer patches a fixed list of module functions and methods with
wrappers that record a span (name, start, end, parent, example) per call,
and it patches ``autodiff.make_node`` to count the nodes the ops create and
to wrap each node's backward function, so that time spent in backward is
charged to the span that was innermost when the node was made (reported
as ``<span>.bw_ms``).  Spans stay in memory until ``write_spans``.

Self time of a span is its duration minus the time of its child spans and
of the backward functions that ran while it was the innermost open span.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from structran import autodiff, fertility, model, reordering, training

# (metric prefix, owner object, attribute) for every traced function
TARGETS = (
    [(f"model.Model.{name}", model.Model, name) for name in (
        "prepare", "complete", "encode", "fertility_head", "compose_intermediate",
        "reordering_scores", "mixing_weights", "token_distributions",
        "output_distributions", "ar_context")]
    + [(f"fertility.{name}", fertility, name) for name in (
        "length_distribution", "marginal_fertility", "log_length_probability")]
    + [("reordering.expected_permutation", reordering, "expected_permutation"),
       ("training.example_loss", training, "example_loss"),
       ("training.clip_gradients", training, "clip_gradients"),
       ("training.Adam.step", training.Adam, "step"),
       ("autodiff.backward", autodiff, "backward")]
)
SPAN_NAMES = [name for name, _, _ in TARGETS]
NODES = "autodiff.nodes"


@dataclass
class _Frame:
    index: int
    name: str
    child_ns: int = 0


@dataclass
class _Stats:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    bw_ns: int = 0


class Tracer:
    """Install around the traced examples, uninstall before anything else runs."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, example]
        self.stats = {name: _Stats() for name in SPAN_NAMES}
        self.nodes = 0
        self.example = -1
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original))
        original = autodiff.make_node
        self._saved.append((autodiff, "make_node", original))
        autodiff.make_node = self._make_node(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _span(self, name: str, fn):
        stack, spans, stats = self._stack, self.spans, self.stats[name]

        def traced(*args, **kwargs):
            parent = stack[-1].index if stack else -1
            frame = _Frame(len(spans), name)
            start = time.perf_counter_ns()
            spans.append([name, start, 0, parent, self.example])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[frame.index][2] = end
                duration = end - start
                stats.calls += 1
                stats.ns += duration
                stats.self_ns += duration - frame.child_ns
                if stack:
                    stack[-1].child_ns += duration

        return traced

    def _make_node(self, original):
        def make_node(value, parents, backward_fn):
            self.nodes += 1
            if backward_fn is not None and self._stack and autodiff.grad_enabled():
                backward_fn = self._charged(self._stack[-1].name, backward_fn)
            return original(value, parents, backward_fn)

        return make_node

    def _charged(self, owner: str, backward_fn):
        stack, stats = self._stack, self.stats[owner]

        def timed_backward(g):
            start = time.perf_counter_ns()
            try:
                return backward_fn(g)
            finally:
                duration = time.perf_counter_ns() - start
                stats.bw_ns += duration
                if stack:
                    stack[-1].child_ns += duration

        return timed_backward

    # -- results --------------------------------------------------------------

    def per_example(self, examples: int) -> dict[str, float]:
        """Every per-layer figure, divided by the number of traced examples."""
        out = {NODES: self.nodes / examples}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls / examples
            out[f"{name}.ms"] = st.ns / 1e6 / examples
            out[f"{name}.self_ms"] = st.self_ns / 1e6 / examples
            out[f"{name}.bw_ms"] = st.bw_ns / 1e6 / examples
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, example in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "example": example}) + "\n")
