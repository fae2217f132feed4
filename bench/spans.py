"""In-memory spans around calls into loopselect's layers, installed from outside ``src/``.

``installed(tracer)`` rebinds module attributes for the duration of a
``with`` block and restores them afterwards, so untraced rounds run the
program unmodified. A span is ``[name id, parent index, start, end]``; the
parent is the innermost span open when the call began. Per-layer metrics
are derived from the spans of one round by :func:`layer_metrics`.
"""

from __future__ import annotations

import gzip
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PLANNER_SPANS = (
    "planners.m_greedy",
    "planners.e_greedy",
    "planners.v_greedy",
    "planners.s_greedy",
    "planners.random_baseline",
)

# metric -> span names whose time it sums; a span counts only when its
# parent is not itself in the group, so load_* -> parse_* is not doubled
INCLUSIVE = {
    "linalg.logdet_s": ("linalg.logdet",),
    "objectives.gain_s": ("objectives.gain",),
    "objectives.value_s": ("objectives.value",),
    "objectives.construct_s": ("objectives.construct",),
    "objectives.g_modular_s": ("objectives.g_modular",),
    "graph.edges_incident_s": ("graph.edges_incident",),
    "certify.lp_s": ("certify.lp",),
    "simplex.solve_s": ("simplex.solve",),
    "generate.exchange_s": ("generate.exchange",),
    "generate.pose_s": ("generate.pose",),
    "io.parse_s": (
        "io.load_exchange_graph",
        "io.load_pose_graph",
        "io.parse_exchange_graph",
        "io.parse_pose_graph",
        "io.parse_ground_truth",
    ),
    "io.serialize_s": (
        "io.save_exchange_graph",
        "io.save_pose_graph",
        "io.serialize_exchange_graph",
        "io.serialize_pose_graph",
        "io.serialize_ground_truth",
    ),
    "planners.m_greedy_s": ("planners.m_greedy",),
    "planners.e_greedy_s": ("planners.e_greedy",),
    "planners.v_greedy_s": ("planners.v_greedy",),
    "planners.s_greedy_s": ("planners.s_greedy",),
    "planners.witness_cover_s": ("planners.witness_cover",),
}

# metric -> span names whose self time (duration minus direct children) it sums
SELF = {
    "certify.lp_build_s": ("certify.lp",),
    "planners.self_s": PLANNER_SPANS,
    "cli.self_s": ("cli.main",),
}

CALLS = {
    "linalg.logdet_calls": "linalg.logdet",
    "objectives.gain_calls": "objectives.gain",
    "objectives.value_calls": "objectives.value",
    "objectives.g_modular_calls": "objectives.g_modular",
    "graph.edges_incident_calls": "graph.edges_incident",
    "certify.lp_calls": "certify.lp",
    "simplex.calls": "simplex.solve",
}

# counted by the wrappers rather than derived from spans
COUNTERS = ("planners.gain_evals", "planners.selections", "io.bytes", "certify.lp_size")

COUNT_METRICS = tuple(CALLS) + COUNTERS


class Tracer:
    """Spans and counters of the current round; earlier rounds are kept for the dump."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rounds: list[list[list]] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._planner_depth = 0

    def new_round(self):
        self.spans = []
        self.rounds.append(self.spans)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def wrap_planner(self, name, fn):
        traced = self.wrap(name, fn)

        def planner(*args, **kwargs):
            outermost = self._planner_depth == 0
            self._planner_depth += 1
            try:
                result = traced(*args, **kwargs)
            finally:
                self._planner_depth -= 1
            # s_greedy's trace already sums its arms, so count only the outer call
            if outermost and isinstance(result, tuple):
                trace = result[1]
                self.counters["planners.gain_evals"] += trace.evaluations
                self.counters["planners.selections"] += _selections(trace)
            return result

        return planner

    def wrap_text(self, name, fn, text_of):
        traced = self.wrap(name, fn)

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.counters["io.bytes"] += len(text_of(args, result))
            return result

        return counted

    def dump(self, path):
        """Write every round's spans (times relative to the first span) as gzip JSON."""
        t0 = min((r[0][2] for r in self.rounds if r), default=0.0)
        payload = {
            "names": self.names,
            "fields": ["name", "parent", "start_s", "end_s"],
            "rounds": [
                [[s[0], s[1], s[2] - t0, s[3] - t0] for s in spans]
                for spans in self.rounds
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _selections(trace) -> int:
    if trace.children:
        return sum(_selections(child) for child in trace.children.values())
    return len(trace.steps)


class _ObjectiveProxy:
    """Forwards everything to the objective but times ``value`` and ``marginal``."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self.value = tracer.wrap("objectives.value", inner.value)
        self.marginal = tracer.wrap("objectives.gain", inner.marginal)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


@contextmanager
def installed(tracer):
    """Patch the layer entry points with tracing wrappers for one ``with`` block."""
    from loopselect import certify, cli, graph, objectives, planners
    from loopselect import io as lio

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for fn_name in lio.__all__:
        fn = getattr(lio, fn_name)
        name = f"io.{fn_name}"
        if fn_name.startswith("parse_"):
            patch(lio, fn_name, tracer.wrap_text(name, fn, lambda a, r: a[0]))
        elif fn_name.startswith("serialize_"):
            patch(lio, fn_name, tracer.wrap_text(name, fn, lambda a, r: r))
        else:
            patch(lio, fn_name, tracer.wrap(name, fn))

    patch(cli, "generate_exchange_graph", tracer.wrap("generate.exchange", cli.generate_exchange_graph))
    patch(cli, "generate_pose_graph", tracer.wrap("generate.pose", cli.generate_pose_graph))
    patch(cli, "sample_ground_truth", tracer.wrap("generate.truth", cli.sample_ground_truth))

    def constructor(cls):
        build = tracer.wrap("objectives.construct", cls)
        return lambda *args, **kwargs: _ObjectiveProxy(build(*args, **kwargs), tracer)

    for cls_name in ("ModularObjective", "DCritObjective", "TreeConnObjective"):
        patch(cli, cls_name, constructor(getattr(cli, cls_name)))

    solve = tracer.wrap("simplex.solve", certify.simplex_max)

    def simplex_sized(c, A, b):
        rows, cols = np.shape(A)
        tracer.counters["certify.lp_size"] = max(tracer.counters["certify.lp_size"], rows * cols)
        return solve(c, A, b)

    patch(certify, "simplex_max", simplex_sized)
    patch(certify, "lp_upper_bound_modular", tracer.wrap("certify.lp", certify.lp_upper_bound_modular))
    patch(objectives, "logdet_pd", tracer.wrap("linalg.logdet", objectives.logdet_pd))
    patch(planners, "g_modular", tracer.wrap("objectives.g_modular", planners.g_modular))
    patch(graph.ExchangeGraph, "edges_incident", tracer.wrap("graph.edges_incident", graph.ExchangeGraph.edges_incident))
    patch(planners, "_witness_cover", tracer.wrap("planners.witness_cover", planners._witness_cover))
    for fn_name in ("e_greedy", "v_greedy"):  # s_greedy calls these by module global
        patch(planners, fn_name, tracer.wrap_planner(f"planners.{fn_name}", getattr(planners, fn_name)))
    for fn_name in ("m_greedy", "e_greedy", "v_greedy", "s_greedy", "random_baseline"):
        patch(cli, fn_name, tracer.wrap_planner(f"planners.{fn_name}", getattr(cli, fn_name)))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer, spans, counters) -> dict[str, float]:
    """Per-layer times, calls and counters of one round's spans."""
    names = tracer.names
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
    # (name, parent name) -> [calls, inclusive time, self time]
    acc = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        parent = names[spans[s[1]][0]] if s[1] >= 0 else None
        a = acc[(names[s[0]], parent)]
        dur = s[3] - s[2]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child_time[i]

    out: dict[str, float] = {}
    for metric, group in INCLUSIVE.items():
        out[metric] = sum(
            (a[1] for (name, parent), a in acc.items() if name in group and parent not in group), 0.0
        )
    for metric, group in SELF.items():
        out[metric] = sum((a[2] for (name, _), a in acc.items() if name in group), 0.0)
    for metric, span_name in CALLS.items():
        out[metric] = sum(a[0] for (name, _), a in acc.items() if name == span_name)
    out.update(counters)
    evals = counters["planners.gain_evals"]
    out["planners.useful_eval_ratio"] = counters["planners.selections"] / evals if evals else 0.0
    return out


@contextmanager
def generate_peak(result):
    """Rebind the CLI's generators so ``result['peak_mib']`` gets their tracemalloc peak."""
    from loopselect import cli

    saved = []

    def measured(fn):
        def call(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                result["peak_mib"] = max(result.get("peak_mib", 0.0), peak / 2**20)

        return call

    for attr in ("generate_exchange_graph", "generate_pose_graph"):
        saved.append((attr, getattr(cli, attr)))
        setattr(cli, attr, measured(getattr(cli, attr)))
    try:
        yield
    finally:
        for attr, original in saved:
            setattr(cli, attr, original)
