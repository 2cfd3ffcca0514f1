"""Spans around calls into each clarith module, recorded from outside.

`Tracer.install` wraps every listed function in every module namespace
that bound it (so `wrappers.step`, imported from `hpm`, is wrapped as
well as `hpm.step`) and every listed method on its class.  Each call
becomes a span (name, start, end, parent span, session id).  Self time,
a span's duration minus its children's, and call counts are summed
online per round; spans themselves are kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute path); several attributes may share a name
TARGETS = [
    ("hpm.step", "clarith.hpm", "step"),
    ("hpm.run_tape", "clarith.hpm", "run_tape_length"),
    ("hpm.run_tape", "clarith.hpm", "run_symbol"),
    ("hpm.spacecost", "clarith.hpm", "spacecost"),
    ("hpm.Meter.record_cycle", "clarith.hpm", "Meter.record_cycle"),
    ("hpm.play", "clarith.hpm", "play"),
    ("hpm.sketch_advance", "clarith.hpm", "sketch_advance"),
    ("hpm.history_prefix", "clarith.hpm", "history_prefix"),
    ("hpm.ScriptStrategy.step", "clarith.hpm", "ScriptStrategy.step"),
    ("wrappers.update_sketch", "clarith.wrappers", "update_sketch"),
    ("wrappers.fetch_symbol", "clarith.wrappers", "fetch_symbol"),
    ("wrappers.VasaRunner.poll", "clarith.wrappers", "VasaRunner.poll"),
    ("game.first_illegal_index", "clarith.game", "first_illegal_index"),
    ("game.wins", "clarith.game", "wins"),
    ("game.is_quasilegal", "clarith.game", "is_quasilegal"),
    ("game.legal_status", "clarith.game", "legal_status"),
    ("game.truncate", "clarith.game", "truncate"),
    ("game.windup", "clarith.game", "windup"),
    ("game.TruncationContext", "clarith.game", "TruncationContext.__init__"),
    ("formula.free_vars", "clarith.formula", "free_vars"),
    ("formula.units", "clarith.formula", "units"),
    ("formula.aggregate_bounds", "clarith.formula", "aggregate_bounds"),
    ("bounds.iterate_max", "clarith.bounds", "iterate_max"),
    ("bounds.UnaryBound.call", "clarith.bounds", "UnaryBound.__call__"),
    ("induction.InductionRunner.poll", "clarith.induction", "InductionRunner.poll"),
    ("induction.validate_aggregation", "clarith.induction", "validate_aggregation"),
    ("induction.central_triple", "clarith.induction", "central_triple"),
    ("cli.main", "clarith.cli", "main"),
]
# The CLI's env callables are closures; the factory is wrapped instead.
ENV_SPAN = "cli.env"
SPAN_CAP = 300_000

# Per-layer metrics: (metric, unit, end-to-end metric and workload it should
# move).  `<span>.calls` and `<span>.self_ms` are read from the spans; the
# rest are derived from session outputs.
LAYER_METRICS = [
    ("hpm.step.calls", "count", "large_session_ms_p50, cycles_per_s on play"),
    ("hpm.step.self_ms", "ms", "large_session_ms_p50, cycles_per_s on play"),
    ("hpm.run_tape.self_ms", "ms", "large_session_ms_p50, cycles_per_s on play"),
    ("hpm.spacecost.self_ms", "ms", "large_session_ms_p50, cycles_per_s on play"),
    ("hpm.Meter.record_cycle.self_ms", "ms", "large_session_ms_p50, cycles_per_s on play"),
    ("hpm.play.self_ms", "ms", "large_session_ms_p50, cycles_per_s on play"),
    ("hpm.sketch_advance.calls", "count", "session_ms_p50/p90 on reason"),
    ("hpm.sketch_advance.self_ms", "ms", "session_ms_p50/p90 on reason"),
    ("hpm.history_prefix.calls", "count", "session_ms_p50/p90 on reason"),
    ("hpm.history_prefix.self_ms", "ms", "session_ms_p50/p90 on reason"),
    ("wrappers.update_sketch.calls", "count", "session_ms_p50/p90 on reason"),
    ("wrappers.update_sketch.self_ms", "ms", "session_ms_p50/p90 on reason"),
    ("wrappers.fetch_symbol.calls", "count", "session_ms_p50/p90 on reason"),
    ("wrappers.fetch_symbol.self_ms", "ms", "session_ms_p50/p90 on reason"),
    ("wrappers.fetch_depth_max", "count", "session_ms_p50/p90 on reason"),
    ("wrappers.updates_per_emitted_move", "ratio", "session_ms_p50/p90 on reason"),
    ("wrappers.VasaRunner.poll.self_ms", "ms", "cycles_per_s on play"),
    ("game.first_illegal_index.calls", "count", "cycles_per_s on play"),
    ("game.first_illegal_index.self_ms", "ms", "cycles_per_s on play"),
    ("formula.free_vars.calls", "count", "cycles_per_s on play"),
    ("formula.free_vars.self_ms", "ms", "cycles_per_s on play"),
    ("game.wins.self_ms", "ms", "cycles_per_s on play"),
    ("game.is_quasilegal.calls", "count", "checks_per_s on analyze"),
    ("game.is_quasilegal.self_ms", "ms", "checks_per_s on analyze"),
    ("game.legal_status.self_ms", "ms", "checks_per_s on analyze"),
    ("game.truncate.self_ms", "ms", "checks_per_s on analyze"),
    ("game.windup.self_ms", "ms", "checks_per_s on analyze"),
    ("formula.units.calls", "count", "checks_per_s on analyze"),
    ("formula.units.self_ms", "ms", "checks_per_s on analyze"),
    ("game.TruncationContext.calls", "count", "large_session_ms_p50 on analyze; session_ms_p50 on reason"),
    ("game.TruncationContext.self_ms", "ms", "large_session_ms_p50 on analyze; session_ms_p50 on reason"),
    ("formula.aggregate_bounds.calls", "count", "large_session_ms_p50 on analyze; session_ms_p50 on reason"),
    ("formula.aggregate_bounds.self_ms", "ms", "large_session_ms_p50 on analyze; session_ms_p50 on reason"),
    ("bounds.iterate_max.self_ms", "ms", "large_session_ms_p50 on analyze; session_ms_p50 on reason"),
    ("bounds.UnaryBound.call.calls", "count", "large_session_ms_p50 on analyze; session_ms_p50 on reason"),
    ("bounds.UnaryBound.call.self_ms", "ms", "large_session_ms_p50 on analyze; session_ms_p50 on reason"),
    ("induction.InductionRunner.poll.calls", "count", "cycles_per_s, large_session_ms_p50 on induct"),
    ("induction.InductionRunner.poll.self_ms", "ms", "cycles_per_s, large_session_ms_p50 on induct"),
    ("induction.validate_aggregation.calls", "count", "cycles_per_s, large_session_ms_p50 on induct"),
    ("induction.validate_aggregation.self_ms", "ms", "cycles_per_s, large_session_ms_p50 on induct"),
    ("induction.central_triple.self_ms", "ms", "cycles_per_s, large_session_ms_p50 on induct"),
    ("induction.iterations", "count", "cycles_per_s, large_session_ms_p50 on induct"),
    ("induction.iterations_per_lock", "ratio", "cycles_per_s, large_session_ms_p50 on induct"),
    ("hpm.ScriptStrategy.step.calls", "count", "none: the premise cost on induct"),
    ("hpm.ScriptStrategy.step.self_ms", "ms", "none: the premise cost on induct"),
    ("cli.main.self_ms", "ms", "session_ms_p50 on play and reason"),
    ("cli.env.self_ms", "ms", "session_ms_p50 on play and reason"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.session = 0
        self.names = []
        self._ids = {}
        self._stack = []          # [span id, child seconds] per open span
        self._next_id = 0
        self.spans = []           # (id, name index, start, end, parent, session)
        self.dropped = 0
        self.calls = {}
        self.self_s = {}
        self.depth = {}
        self.max_depth = {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.depth[name] = 0
            self.max_depth[name] = 0
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            self.depth[name] += 1
            if self.depth[name] > self.max_depth[name]:
                self.max_depth[name] = self.depth[name]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.depth[name] -= 1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, nid, t0, t1, parent, self.session))
                else:
                    self.dropped += 1

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "clarith" or n.startswith("clarith.")) and m is not None]
        for name, modname, attr in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mod, clsname)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, traced)
        cli = sys.modules["clarith.cli"]
        make_env = cli._script_env

        def traced_script_env(entries):
            return self.wrap(ENV_SPAN, make_env(entries))

        cli._script_env = traced_script_env

    def take_round(self):
        """Counts, self seconds and max depths since the last call."""
        out = {name: (self.calls[name], self.self_s[name], self.max_depth[name])
               for name in self.names}
        for name in self.names:
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.max_depth[name] = 0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,session\n")
            for sid, nid, t0, t1, parent, session in self.spans:
                fh.write(f"{sid},{self.names[nid]},{t0:.9f},{t1:.9f},"
                         f"{parent},{session}\n")
