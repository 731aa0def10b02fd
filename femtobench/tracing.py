"""Span tracing of one femtosim run, installed from outside the program.

Each traced callable is replaced, for the duration of one run, by a wrapper
that times the call and charges it to a span named ``<layer>.<function>``,
where the layer is the femtosim module that defines the callable.  Callers
bind names at import (``from .topology import neighbor_graph`` in
``outage.py`` and ``cli.py``), so the wrapper is put into every femtosim
module namespace that holds the original object; methods are replaced on
their class.  Everything is restored when the run ends.

A span's self time is its duration minus the time of the traced spans it
called; its inclusive time is the whole duration.  Optional capture
callbacks see each call's arguments and result after the span closes; their
time is charged to no span but summed apart, as part of the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute) of every traced callable; "Class.method" names a method.
TRACED = (
    ("topology", "generate"),
    ("topology", "neighbor_graph"),
    ("topology", "apply_plan"),
    ("topology", "Deployment.positions"),
    ("topology", "Deployment.fap_by_id"),
    ("son", "configure_frequencies"),
    ("son", "assign_uniform_random_colors"),
    ("son", "assign_shared_edge"),
    ("son", "same_color_conflicts"),
    ("son", "admit_fap"),
    ("channel", "link_coefficients"),
    ("outage", "density_sweep"),
    ("outage", "estimate"),
    ("outage", "nearest_fap_angle"),
    ("spectrum", "build_plan"),
    ("spectrum", "cochannel"),
    ("cli", "run_experiment"),
)

LAYERS = ("topology", "son", "channel", "outage", "spectrum", "cli")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Self time, inclusive time and call count per span, plus optional
    per-call captures."""

    def __init__(self, captures=None):
        self.self_s = {span_name(m, a): 0.0 for m, a in TRACED}
        self.incl_s = dict(self.self_s)
        self.calls = dict.fromkeys(self.self_s, 0)
        self.capture_s = 0.0  # time in capture callbacks, outside every span
        self._captures = captures or {}
        self._open = []  # time covered by children, one entry per open span

    def wrap(self, name, fn):
        capture = self._captures.get(name)
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self.self_s[name] += span - open_spans.pop()
                self.incl_s[name] += span
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += span
            if capture is not None:
                t1 = time.perf_counter()
                capture(result, *args, **kwargs)
                spent = time.perf_counter() - t1
                self.capture_s += spent
                if open_spans:
                    open_spans[-1] += spent
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced callable for the duration of the block."""
        undo = []
        try:
            for module_name, attr in TRACED:
                module = importlib.import_module(f"femtosim.{module_name}")
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, leaf)
                wrapper = self.wrap(span_name(module_name, attr), original)
                holders = [owner] if owner_name else [
                    m for n, m in list(sys.modules.items())
                    if (n == "femtosim" or n.startswith("femtosim.")) and m is not None
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out
