"""Per-layer tracing from outside the program.

The tracer replaces public functions at each layer boundary of ``qdetect``
with timing wrappers. A name is replaced in every loaded ``qdetect`` module
that holds the same function object, so ``qdetect.cli.build_action_kernel``
and ``qdetect.dominance.build_action_kernel`` are both traced. Methods are
replaced on their class.

Spans nest: each span's self time is its duration minus the time covered by
the spans opened inside it. Spans are aggregated in memory as they close
(calls, inclusive and self seconds per span name) and read out once at the
end of the run. A boundary name that no longer exists in the program is
recorded as absent; its metrics then read zero.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _batch_beliefs(tracer, args, kwargs, result):
    tracer.counts["quantum.batch.beliefs"] += len(result)


def _kernel_cells(tracer, args, kwargs, result):
    tracer.counts["protocol.kernel.cells"] += result.grid.size


def _episode_steps(tracer, args, kwargs, result):
    tracer.counts["protocol.steps"] += len(result.records)


def _vi_sweeps(key):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += result[0].sweeps or 0
    return hook


def _written_bytes(tracer, args, kwargs, result):
    tracer.counts["serialize.write.bytes"] += os.path.getsize(args[0])


def _scan_rows(tracer, args, kwargs, result):
    _, rows = result
    tracer.counts["dominance.rows"] += len(rows)
    tracer.counts["dominance.certified"] += sum(1 for r in rows if r.certified)


# (target, span name, spans it folds into, hook after return).
# A call made directly inside a span named in "folds" opens no span of its
# own: ActionMap.__call__ delegates to batch, and the typed writers and
# readers delegate to write_csv / read_csv.
BOUNDARIES = (
    ("qdetect.quantum:ActionMap.__init__", "quantum.init", (), None),
    ("qdetect.quantum:ActionMap.__call__", "quantum.call", (), None),
    ("qdetect.quantum:ActionMap.batch", "quantum.batch", ("quantum.call",),
     _batch_beliefs),
    ("qdetect.protocol:build_action_kernel", "protocol.kernel", (), _kernel_cells),
    ("qdetect.protocol:simulate_episode", "protocol.episode", (), _episode_steps),
    ("qdetect.protocol:private_belief_update", "protocol.private_update", (), None),
    ("qdetect.protocol:public_belief_update", "protocol.public_update", (), None),
    ("qdetect.stopping:value_iteration", "stopping.vi", (),
     _vi_sweeps("stopping.vi.sweeps")),
    ("qdetect.stopping:classical_value_iteration", "stopping.classical", (),
     _vi_sweeps("stopping.classical.sweeps")),
    ("qdetect.dominance:best_transform", "dominance.transform", (), None),
    ("qdetect.dominance:region_scan", "dominance.scan", (), _scan_rows),
    ("qdetect.config:load_config_file", "config.load", (), None),
    ("qdetect.serialize:write_csv", "serialize.write", ("serialize.write",),
     _written_bytes),
    ("qdetect.serialize:write_kernel", "serialize.write", ("serialize.write",),
     _written_bytes),
    ("qdetect.serialize:write_value", "serialize.write", ("serialize.write",),
     _written_bytes),
    ("qdetect.serialize:write_policy", "serialize.write", ("serialize.write",),
     _written_bytes),
    ("qdetect.serialize:read_csv", "serialize.read", ("serialize.read",), None),
    ("qdetect.serialize:read_kernel", "serialize.read", ("serialize.read",), None),
    ("qdetect.serialize:read_policy", "serialize.read", ("serialize.read",), None),
)

# Counted, not timed: the LP's time stays in the transform span around it.
COUNTERS = (
    ("qdetect.dominance:linprog", "dominance.lp.calls"),
)


def _resolve(target):
    """(owner, attribute, current value) for 'module:Name' or
    'module:Class.method'; raises LookupError when the name is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *outer, attr = path.split(".")
    for part in outer:
        if not hasattr(owner, part):
            raise LookupError(target)
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(target)
    return owner, attr, vars(owner)[attr]


def _holders(owner, attr, original):
    """Every (namespace, name) that refers to the original object: the owner
    itself plus each loaded qdetect module that imported the name."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if name != "qdetect" and not name.startswith("qdetect."):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
    return found


class Tracer:
    """Installs layer wrappers and aggregates their spans."""

    def __init__(self, boundaries=BOUNDARIES, counters=COUNTERS):
        self.boundaries = boundaries
        self.counters = counters
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, incl, self
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._patched = []

    def reset(self):
        self.stats.clear()
        self.counts.clear()

    def _span(self, fn, name, folds, hook):
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] in folds:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                entry = stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, target, make):
        try:
            owner, attr, original = _resolve(target)
        except LookupError:
            self.absent.append(target)
            return
        wrapper = make(original)
        for holder, key in _holders(owner, attr, original):
            self._patched.append((holder, key, original))
            setattr(holder, key, wrapper)

    def install(self):
        for target, name, folds, hook in self.boundaries:
            self._patch(target, lambda fn: self._span(fn, name, folds, hook))
        for target, key in self.counters:
            self._patch(target, lambda fn: self._counter(fn, key))
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def inclusive_s(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name):
        return self.stats[name][2] if name in self.stats else 0.0

    def layer_metrics(self):
        """Per-layer metrics of everything traced since the last reset."""
        c = self.counts
        batch_calls = self.calls("quantum.batch")
        beliefs = c["quantum.batch.beliefs"]
        steps = c["protocol.steps"]
        transforms = self.calls("dominance.transform")
        rows = c["dominance.rows"]
        return {
            "quantum.init.calls": self.calls("quantum.init"),
            "quantum.init.self_s": self.self_s("quantum.init"),
            "quantum.batch.calls": batch_calls,
            "quantum.batch.beliefs": beliefs,
            "quantum.batch.self_s": self.self_s("quantum.batch"),
            "quantum.us_per_belief":
                1e6 * self.self_s("quantum.batch") / beliefs if beliefs else 0.0,
            "quantum.beliefs_per_call": beliefs / batch_calls if batch_calls else 0.0,
            "quantum.call.calls": self.calls("quantum.call"),
            "quantum.call.self_s": self.self_s("quantum.call"),
            "protocol.kernel.calls": self.calls("protocol.kernel"),
            "protocol.kernel.cells": c["protocol.kernel.cells"],
            "protocol.kernel.self_s": self.self_s("protocol.kernel"),
            "protocol.episodes": self.calls("protocol.episode"),
            "protocol.steps": steps,
            "protocol.episode.self_s": self.self_s("protocol.episode"),
            "protocol.us_per_step":
                1e6 * self.inclusive_s("protocol.episode") / steps if steps else 0.0,
            "protocol.private_update.self_s": self.self_s("protocol.private_update"),
            "protocol.public_update.self_s": self.self_s("protocol.public_update"),
            "stopping.vi.calls": self.calls("stopping.vi"),
            "stopping.vi.sweeps": c["stopping.vi.sweeps"],
            "stopping.vi.self_s": self.self_s("stopping.vi"),
            "stopping.classical.calls": self.calls("stopping.classical"),
            "stopping.classical.sweeps": c["stopping.classical.sweeps"],
            "stopping.classical.self_s": self.self_s("stopping.classical"),
            "dominance.transform.calls": transforms,
            "dominance.transform.self_s": self.self_s("dominance.transform"),
            "dominance.lp.calls": c["dominance.lp.calls"],
            "dominance.lp_frac":
                c["dominance.lp.calls"] / transforms if transforms else 0.0,
            "dominance.certified_frac":
                c["dominance.certified"] / rows if rows else 0.0,
            "dominance.scan.self_s": self.self_s("dominance.scan"),
            "config.load.calls": self.calls("config.load"),
            "config.load.self_s": self.self_s("config.load"),
            "serialize.write.calls": self.calls("serialize.write"),
            "serialize.write.bytes": c["serialize.write.bytes"],
            "serialize.write.self_s": self.self_s("serialize.write"),
            "serialize.read.self_s": self.self_s("serialize.read"),
        }
