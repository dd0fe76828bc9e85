"""Spans recorded from outside the program, around calls into grngc.

A span is (name, start, end, parent index, rep). Spans of one pipeline run
share the rep number; set-up spans have rep -1. Spans stay in memory until
the worker ends. The program itself is not changed: hooks replace module
attributes that grngc looks up at call time and put them back afterwards.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT, REP = range(5)

# layers whose calls and busy (self) time are reported per traced pipeline run
LAYERS = ("datagen.simulate", "datagen.windows", "core.loss_graph",
          "diffengine.backward", "splines.basis", "core.val", "core.score",
          "metrics.evaluate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.rep = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rep])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def hooked(self, hooks):
        """Wrap each (module, attribute, span name) for the duration."""
        saved = []
        try:
            for module, attr, name in hooks:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def light_hooks():
    """Wrapped in every run: the step clock and the scoring time."""
    from grngc import core

    return [
        (core, "LossGraph", "core.loss_graph"),
        (core, "set_param_arrays", "core.set_params"),
        (core, "infer_gc_matrix", "core.score"),
    ]


def layer_hooks():
    """Wrapped on top of light_hooks in the traced pipeline runs."""
    from grngc import core, diffengine, splines

    return [
        (core, "make_windows", "datagen.windows"),
        (core, "prediction_loss", "core.val"),
        (diffengine, "backward", "diffengine.backward"),
        (splines, "basis_values", "splines.basis"),
    ]


def duration(s) -> float:
    return s[END] - s[START]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= duration(s)
    return out


def steps(spans, keep) -> list[tuple]:
    """(LossGraph build span, outer backward span or None, step seconds) for
    each optimisation step among the spans `keep` accepts. A step runs from
    the LossGraph build to the parameter write-back."""
    def named(name):
        return [s for s in spans if s[NAME] == name and keep(s)]

    builds = named("core.loss_graph")
    ends = named("core.set_params")
    outer = [s for s in named("diffengine.backward")
             if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "core.train"]
    if len(outer) != len(builds):
        outer = [None] * len(builds)
    return [(b, o, e[END] - b[START]) for b, o, e in zip(builds, outer, ends)]
