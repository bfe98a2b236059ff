"""Span recorders for the traced run, installed from outside the program.

``install`` replaces each traced hidesign function, in every hidesign module
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and the operation it belongs to.  Module-level
calls resolve names at call time, so calls between modules and inside one
module are both recorded.  The untraced runs never call ``install``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Recorder:
    def __init__(self):
        self.totals = defaultdict(float)  # "<span>.calls", ".ms", ".self_ms" and counters
        self.spans = []  # (id, parent, op, name, start_s, end_s)
        self._stack = []  # [span id, child seconds, start]
        self._started = 0
        self._open = defaultdict(int)  # span name -> spans of that name now open
        self.op = 0  # index of the operation being timed

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([self._started, 0.0, time.perf_counter()])
        self._started += 1

    def leave(self, name: str) -> None:
        end = time.perf_counter()
        self._open[name] -= 1
        span_id, child, start = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.totals[name + ".calls"] += 1
        self.totals[name + ".ms"] += dur * 1e3
        self.totals[name + ".self_ms"] += (dur - child) * 1e3
        self.spans.append((span_id, parent[0] if parent else None, self.op, name, start, end))

    def count(self, key: str, amount) -> None:
        self.totals[key] += amount

    def write_ndjson(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start_s": start, "end_s": end}) + "\n")


def _wrap_call(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.leave(name)
        if counter is not None:
            counter(rec, args, out)
        return out
    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn, counter):
    """Each next() on the generator is one span.  A generator that delegates
    to itself (read_graph6 on a path reads the lines, then recurses) is
    recorded once, by the outer call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.is_open(name):
            yield from fn(*args, **kwargs)
            return
        it = fn(*args, **kwargs)
        while True:
            rec.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.leave(name)
            if counter is not None:
                counter(rec, args, item)
            yield item
    return wrapper


def _q_roots(rec, args, out):
    rec.count("orthopoly.q_roots.roots", args[0].t)


def _q_eval(rec, args, out):
    rec.count("orthopoly.q_eval.steps", int(np.size(args[1])) * args[0].t)


def _verify(rec, args, cert):
    rec.count("designs.verify.pair_degrees", len(args[0]) ** 2 * len(cert.degrees))


def _rank(rec, args, out):
    rows = args[0]
    rec.count("exactnum.fraction_free_rank.entries", len(rows) * (len(rows[0]) if rows else 0))


def _scan(rec, args, record):
    rec.count("tightness.scan.excluded", 0 if record.feasible else 1)


def _pointset(rec, args, out):
    self = args[0]
    m, n = self.points.shape
    rec.count("designs.PointSet.points", m)
    rec.count("designs.PointSet.bytes_computed", m * m * n * 8)


# (module, attribute, span name, wrapper kind, counter)
TRACED = [
    ("orthopoly", "q_eval", "orthopoly.q_eval", _wrap_call, _q_eval),
    ("orthopoly", "q_roots", "orthopoly.q_roots", _wrap_call, _q_roots),
    ("orthopoly", "q_min", "orthopoly.q_min", _wrap_call, None),
    ("bounds", "fisher_bound", "bounds.fisher_bound", _wrap_call, None),
    ("designs", "verify_harmonic_index", "designs.verify", _wrap_call, _verify),
    ("designs", "verify_spherical_design", "designs.verify", _wrap_call, _verify),
    ("exactnum", "fraction_free_rank", "exactnum.fraction_free_rank", _wrap_call, _rank),
    ("tightness", "es_matrices", "tightness.es_matrices", _wrap_call, None),
    ("tightness", "read_graph6", "tightness.read_graph6", _wrap_generator, None),
    ("tightness", "scan_graph_corpus", "tightness.scan", _wrap_generator, _scan),
]


def install(rec: Recorder):
    """Wrap every traced function; returns a callable that undoes it."""
    modules = [m for name, m in sys.modules.items()
               if (name == "hidesign" or name.startswith("hidesign.")) and m is not None]
    undo = []
    for mod_name, attr, span, kind, counter in TRACED:
        original = getattr(sys.modules["hidesign." + mod_name], attr)
        wrapper = kind(rec, span, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    point_set = sys.modules["hidesign.designs"].PointSet
    post_init = point_set.__post_init__
    point_set.__post_init__ = _wrap_call(rec, "designs.PointSet", post_init, _pointset)
    undo.append((point_set, "__post_init__", post_init))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
    return uninstall
