"""Layer tracing from outside the program: timing wrappers around public calls.

``Tracer.install`` replaces each probe's function or method with a wrapper
that records a span (name, start, end, parent, request id).  Functions are
patched under every name a ``decoysim`` module holds them by, methods on
their class.  Spans of the coarse, per-request probes are stored one by
one; the per-tick and per-sample ones are aggregated in memory by
(name, parent).  A span's self time is its duration minus the durations
of its child spans, so the self times of all layers plus the benchmark's
own time (``bench.request``) add up to the traced request time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (probe, module, function or Class.method)
PROBES = (
    ("engine.rng_stream", "decoysim.engine", "RngStream.__init__"),
    ("engine.transcript_append", "decoysim.engine", "Transcript.record_measurement"),
    ("engine.transcript_append", "decoysim.engine", "Transcript.announce"),
    ("engine.transcript_append", "decoysim.engine", "Transcript.mark"),
    ("engine.transcript_entries", "decoysim.engine", "Transcript.entries"),
    ("engine.replay_digest", "decoysim.engine", "replay_digest"),
    ("channel.measure", "decoysim.channel", "ChannelState.measure"),
    ("channel.set_contribution", "decoysim.channel", "ChannelState.set_contribution"),
    ("decoy.simulate_transmission", "decoysim.decoy", "simulate_transmission"),
    ("decoy.generate_ramp", "decoysim.decoy", "generate_ramp"),
    ("decoy.detect_stabilization", "decoysim.decoy", "detect_stabilization"),
    ("decoy.recover_secret", "decoysim.decoy", "recover_secret"),
    ("millionaires.compare_digitwise", "decoysim.millionaires", "compare_digitwise"),
    ("millionaires.elevator", "decoysim.millionaires", "compare_elevator"),
    ("millionaires.race", "decoysim.millionaires", "compare_race"),
    ("millionaires.race_bitstring", "decoysim.millionaires", "compare_race_bitstring"),
    ("millionaires.vessels", "decoysim.millionaires", "compare_vessels"),
    ("adversary.collect_samples", "decoysim.adversary", "collect_transmission_samples"),
    ("adversary.features", "decoysim.adversary", "TranscriptFeatures.__call__"),
    ("adversary.mutual_information", "decoysim.adversary", "estimate_mutual_information"),
    ("adversary.posterior", "decoysim.adversary", "estimate_posterior"),
    ("adversary.analytic_sum_mi", "decoysim.adversary", "analytic_sum_mi"),
    ("adversary.attack_jam", "decoysim.adversary", "attack_jam"),
    ("adversary.attack_impersonate", "decoysim.adversary", "attack_impersonate"),
    ("adversary.actor_hooks", "decoysim.adversary", "_JammerActor.on_tick"),
    ("adversary.actor_hooks", "decoysim.adversary", "_JammerActor.on_reading"),
    ("adversary.actor_hooks", "decoysim.adversary", "_ImpersonatorActor.on_tick"),
    ("adversary.actor_hooks", "decoysim.adversary", "_ImpersonatorActor.on_reading"),
    ("adversary.audit", "decoysim.adversary", "audit_comparison"),
    ("runner.run_scenario", "decoysim.runner", "run_scenario"),
    ("config.load_scenario", "decoysim.config", "load_scenario"),
    ("cli.command", "decoysim.cli", "main"),
)
PROBE_NAMES = tuple(dict.fromkeys(probe for probe, _, _ in PROBES))
COMPARATORS = ("millionaires.elevator", "millionaires.race",
               "millionaires.race_bitstring", "millionaires.vessels")
REQUEST = "bench.request"
_NO_PARENT = "-"

# Called at most a few times per run, so each span is kept; the rest are
# per tick or per sample and only aggregated.
STORED = frozenset({
    REQUEST, "cli.command", "config.load_scenario", "runner.run_scenario",
    "adversary.collect_samples", "adversary.posterior", "adversary.analytic_sum_mi",
    "adversary.attack_jam", "adversary.attack_impersonate",
})


def _count_entries(counts, args, result):
    counts["engine.transcript_entries.elements_copied"] += len(result)


def _count_hashed(counts, args, result):
    counts["engine.replay_digest.entries_hashed"] += len(args[0])


def _count_hits(counts, args, result):
    counts["decoy.detect_stabilization.hits"] += bool(result)


def _count_recoveries(counts, args, result):
    counts["decoy.recoveries"] += bool(result.success)


def _count_matched(counts, args, result):
    counts["adversary.matched"] += result.matched_samples
    counts["adversary.samples_used"] += result.samples_used


AFTER = {
    "engine.transcript_entries": _count_entries,
    "engine.replay_digest": _count_hashed,
    "decoy.detect_stabilization": _count_hits,
    "decoy.simulate_transmission": _count_recoveries,
    "adversary.posterior": _count_matched,
}


class Tracer:
    """Span recorder for one traced run; install, run requests, uninstall."""

    def __init__(self):
        # frame: [name, child seconds, span id]; the bottom frame is a sentinel
        self.stack = [[_NO_PARENT, 0.0, None]]
        self.aggregates: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total s, self s]
        self.spans: list[tuple] = []  # (id, parent id, request id, name, start, end)
        self.counts: Counter = Counter()
        self.request_id = None
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    def _close(self, frame, start, end):
        duration = end - start
        parent = self.stack[-1]
        parent[1] += duration
        key = (frame[0], parent[0])
        entry = self.aggregates.get(key)
        if entry is None:
            entry = self.aggregates[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        if frame[2] is not None:
            self.spans.append((frame[2], parent[2], self.request_id, frame[0], start, end))

    def wrap(self, fn, name):
        stack = self.stack
        stored = name in STORED
        after = AFTER.get(name)
        ids = self._ids
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, next(ids) if stored else None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, start, end)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    @contextmanager
    def request(self, request_id):
        """Root span of one request; its self time is the benchmark's own time."""
        self.request_id = request_id
        frame = [REQUEST, 0.0, next(self._ids)]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self._close(frame, start, end)

    def install(self) -> None:
        for name, module_name, target in PROBES:
            module = importlib.import_module(module_name)
            if "." in target:
                class_name, attr = target.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    patched = property(self.wrap(original.fget, name))
                else:
                    patched = self.wrap(original, name)
                self._patch(cls, attr, original, patched)
                continue
            original = getattr(module, target)
            patched = self.wrap(original, name)
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "")
                if holder_name != "decoysim" and not holder_name.startswith("decoysim."):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, patched)

    def _patch(self, owner, attr, original, patched) -> None:
        setattr(owner, attr, patched)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of a probe, optionally under one parent."""
        calls = total = self_s = 0
        for (probe, probe_parent), (c, t, s) in self.aggregates.items():
            if probe == name and (parent is None or probe_parent == parent):
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def accounted_share(self) -> float:
        """Sum of every span's self time over the traced request time (1.0 when consistent)."""
        request_s = self.totals(REQUEST)[1]
        self_s = sum(entry[2] for entry in self.aggregates.values())
        return self_s / request_s if request_s else 0.0

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-request layer metrics: ``P.calls`` and ``P.self_ms`` for each probe, plus ratios."""
        metrics: dict[str, tuple[float, str]] = {}
        per = 1.0 / max(1, requests)
        for name in PROBE_NAMES:
            calls, _, self_s = self.totals(name)
            metrics[f"{name}.calls"] = (calls * per, "count")
            metrics[f"{name}.self_ms"] = (self_s * 1e3 * per, "ms")
        counts = self.counts
        runs, transmit_s, _ = self.totals("decoy.simulate_transmission")
        ticks = self.totals("channel.measure", parent="decoy.simulate_transmission")[0]
        stabilize_calls = self.totals("decoy.detect_stabilization")[0]
        digitwise_calls = self.totals("millionaires.compare_digitwise")[0]
        subcalls = sum(self.totals(c, parent="millionaires.compare_digitwise")[0] for c in COMPARATORS)
        used = counts["adversary.samples_used"]
        metrics.update({
            "engine.transcript_entries.elements_copied":
                (counts["engine.transcript_entries.elements_copied"] * per, "count"),
            "engine.replay_digest.entries_hashed":
                (counts["engine.replay_digest.entries_hashed"] * per, "count"),
            "decoy.ticks": (ticks * per, "count"),
            "decoy.us_per_tick": (transmit_s * 1e6 / ticks if ticks else 0.0, "us"),
            "decoy.detect_stabilization.hit_ratio":
                (counts["decoy.detect_stabilization.hits"] / stabilize_calls if stabilize_calls else 0.0,
                 "ratio"),
            "decoy.recovery_ratio": (counts["decoy.recoveries"] / runs if runs else 0.0, "ratio"),
            "millionaires.compare_digitwise.subcalls_per_call":
                (subcalls / digitwise_calls if digitwise_calls else 0.0, "count"),
            "adversary.matched_ratio": (counts["adversary.matched"] / used if used else 0.0, "ratio"),
            "bench.self_ms": (self.totals(REQUEST)[2] * 1e3 * per, "ms"),
            "trace.request_ms": (self.totals(REQUEST)[1] * 1e3 * per, "ms"),
        })
        return metrics

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "parent": p, "request": r, "name": n, "start": s, "end": e}
                for i, p, r, n, s, e in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.aggregates.items())
            ],
        }
