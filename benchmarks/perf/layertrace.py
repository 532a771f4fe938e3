"""Outside-in per-layer tracing for the perf benchmark.

A :class:`Tracer` replaces public functions of the clustering layers with
timing wrappers while a traced operation runs, and puts the originals back
afterwards.  Nothing under ``src/`` knows it is traced, so untraced runs
pay nothing and the wrapped code is the code the end-to-end runs measure.

Every wrapped call records one span ``(id, name, start_ns, end_ns,
parent_id, hidden_ns)``.  ``hidden_ns`` is the tracer's own bookkeeping
(hooks, clock reads) spent by nested wrappers inside the span; busy and
self times subtract it, so the per-layer numbers describe the program
rather than the tracer.  Parents are tracked per thread, because the
``serve`` workload traces a client thread and a commit thread at once.

A target that no longer resolves (a later change renamed it) is reported
with a warning, and every metric that needs it reads ``None``: the run
carries on with the layers it can still see.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_NS = 1e-9


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module`` plus a dotted ``attr`` path."""

    label: str
    module: str
    attr: str


# ``louvain_par`` calls ``run_best_moves`` and ``parallel_flatten`` through
# its own module globals, ``best_moves`` does the same for
# ``compute_batch_moves`` and ``next_frontier``, and ``dynamic.clusterer``
# for ``run_engine_restricted``; each is wrapped where it is looked up.
TARGETS: Tuple[Target, ...] = (
    Target("best_moves", "repro.core.louvain_par", "run_best_moves"),
    Target("flatten", "repro.core.louvain_par", "parallel_flatten"),
    Target("kernel", "repro.kernels.vectorized", "VectorizedKernel.batch_moves"),
    Target("moves", "repro.core.best_moves", "compute_batch_moves"),
    Target("frontier", "repro.core.best_moves", "next_frontier"),
    Target("apply_moves", "repro.core.state", "ClusterState.apply_moves"),
    Target("charge", "repro.parallel.scheduler", "SimulatedScheduler.charge"),
    Target("score", "repro.core.api", "lambdacc_objective"),
    Target(
        "exact_objective", "repro.dynamic.clusterer",
        "DynamicClusterer.exact_objective",
    ),
    Target("dynamic_apply", "repro.dynamic.clusterer", "DynamicClusterer.apply"),
    Target("restricted", "repro.dynamic.clusterer", "run_engine_restricted"),
    Target("compact", "repro.graphs.delta", "DeltaOverlayGraph.compact"),
    Target("commit", "repro.serving.gateway", "ServingGateway.commit"),
    Target("serve_read", "repro.serving.gateway", "ServingGateway.serve_read"),
    Target("epoch", "repro.serving.gateway", "LabelEpoch.__init__"),
)

#: Below this many scanned entries the vectorized kernel takes its dict
#: fallback; read from the kernel module so the count follows the code.
_SMALL_BATCH_WORK = Target("", "repro.kernels.vectorized", "SMALL_BATCH_WORK")


def resolve(target: Target):
    """``(owner, name, value)`` for a target; raises if it does not resolve."""
    owner = importlib.import_module(target.module)
    parts = target.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    # Read the owner's own attribute, not an inherited one, so that
    # restoring puts back exactly what was there.
    value = vars(owner)[name] if name in vars(owner) else getattr(owner, name)
    return owner, name, value


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[int] = []
        self.hidden = 0


class Tracer:
    """Wraps the layer targets on :meth:`install`, restores on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Samples handed in by the workload (read waits, level walls).
        self.external: Dict[str, List[float]] = defaultdict(list)
        self.overhead_frac: Optional[float] = None
        self.warnings: List[str] = []
        self._lock = threading.Lock()
        self._tls = _ThreadState()
        self._ids = itertools.count()
        self._after_flatten = False
        self._refine_ids: set = set()
        self._installed: List[tuple] = []
        self._resolved: Dict[str, tuple] = {}
        for target in TARGETS:
            try:
                self._resolved[target.label] = resolve(target)
            except (ImportError, AttributeError, KeyError) as exc:
                self._warn(f"cannot wrap {target.module}:{target.attr} ({exc!r})")
        try:
            self.small_batch_work: Optional[int] = int(resolve(_SMALL_BATCH_WORK)[2])
        except (ImportError, AttributeError, KeyError) as exc:
            self.small_batch_work = None
            self._warn(f"cannot read kernel fallback threshold ({exc!r})")
        self._hooks = {
            "best_moves": (self._bm_before, self._bm_after),
            "flatten": (None, self._flatten_after),
            "kernel": (None, self._kernel_after),
            "frontier": (None, self._frontier_after),
            "apply_moves": (None, self._apply_moves_after),
            "dynamic_apply": (None, self._dynamic_after),
            "compact": (self._compact_before, self._compact_after),
            "commit": (None, self._commit_after),
        }

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"warning: layertrace: {message}", file=sys.stderr)

    @property
    def unresolved(self) -> set:
        return {t.label for t in TARGETS} - set(self._resolved)

    # -- installation ---------------------------------------------------- #

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for label, (owner, name, fn) in self._resolved.items():
            before, after = self._hooks.get(label, (None, None))
            wrapper = self._wrap(label, fn, before, after)
            self._installed.append((owner, name, fn, name in vars(owner)))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn, own in reversed(self._installed):
            if own:
                setattr(owner, name, fn)
            else:
                delattr(owner, name)
        self._installed = []

    @contextlib.contextmanager
    def op(self):
        """Trace one workload operation: wrap on entry, restore on exit."""
        # Refinement is recognised per operation: a best-moves call counts
        # as refine once this operation has flattened its first level.
        self._after_flatten = False
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, label: str, fn: Callable, before, after) -> Callable:
        tls = self._tls
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            token = before(args, kwargs) if before is not None else None
            stack = tls.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            hidden0 = tls.hidden
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, label, t0, t1, parent, tls.hidden - hidden0))
                if ok and after is not None:
                    after(args, kwargs, result, sid, token)
                tls.hidden += (t0 - t_in) + (clock() - t1)
            return result

        return wrapper

    # -- hooks (run outside the wrapped call, charged as hidden time) ---- #

    def _add(self, **amounts) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counts[key] += value

    def _bm_before(self, args, kwargs):
        return self._after_flatten

    def _bm_after(self, args, kwargs, result, sid, refine):
        if refine:
            self._refine_ids.add(sid)
        else:
            self._add(best_moves_rounds=result.iterations)

    def _flatten_after(self, args, kwargs, result, sid, token):
        self._after_flatten = True

    def _kernel_after(self, args, kwargs, result, sid, token):
        graph = _arg(args, kwargs, 1, "graph")
        state = _arg(args, kwargs, 2, "state")
        batch = np.asarray(_arg(args, kwargs, 3, "batch"))
        offsets = graph.offsets
        edges = int((offsets[batch + 1] - offsets[batch]).sum())
        movers = int(np.count_nonzero(result[0] != state.assignments[batch]))
        fallback = (
            self.small_batch_work is not None
            and edges + batch.size < self.small_batch_work
        )
        self._add(
            kernel_edges=edges,
            kernel_vertices=batch.size,
            kernel_movers=movers,
            kernel_fallbacks=int(fallback),
        )

    def _frontier_after(self, args, kwargs, result, sid, token):
        self._add(frontier_vertices=len(result))

    def _apply_moves_after(self, args, kwargs, result, sid, token):
        self._add(moved_vertices=int(result))

    def _dynamic_after(self, args, kwargs, result, sid, token):
        self._add(
            candidate_evals=result.candidate_evaluations,
            dynamic_moves=result.moves,
            escalations=int(result.escalated is not None),
        )

    def _compact_before(self, args, kwargs):
        return args[0].is_structural

    def _compact_after(self, args, kwargs, result, sid, structural):
        self._add(rebuilds=int(structural))

    def _commit_after(self, args, kwargs, result, sid, token):
        self._add(committed_updates=sum(1 for r in result if r.status == "ok"))

    # -- derived metrics -------------------------------------------------- #

    def _by_label(self) -> Dict[str, List[tuple]]:
        out: Dict[str, List[tuple]] = defaultdict(list)
        for span in self.spans:
            out[span[1]].append(span)
        return out

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive busy seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover and minus the tracer's bookkeeping inside it.
        """
        child_ns: Dict[int, int] = defaultdict(int)
        child_hidden: Dict[int, int] = defaultdict(int)
        for sid, _, t0, t1, parent, hidden in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
                child_hidden[parent] += hidden
        out: Dict[str, dict] = {}
        for label, spans in sorted(self._by_label().items()):
            busy = sum(t1 - t0 - hidden for _, _, t0, t1, _, hidden in spans)
            own = sum(
                (t1 - t0) - child_ns[sid] - (hidden - child_hidden[sid])
                for sid, _, t0, t1, _, hidden in spans
            )
            out[label] = {
                "calls": len(spans),
                "busy_s": busy * _NS,
                "self_s": own * _NS,
            }
        return out

    def metrics(self) -> Dict[str, dict]:
        """Every per-layer metric as ``{"value", "unit", "clock"}``.

        ``value`` is ``None`` where a target the metric needs did not
        resolve, and 0 where the workload never reached the layer.
        """
        by_label = self._by_label()
        labels = {sid: label for sid, label, *_ in self.spans}
        counts = self.counts
        missing = self.unresolved

        def spans(label):
            return by_label.get(label, [])

        def busy_s(group):
            return sum(t1 - t0 - hidden for _, _, t0, t1, _, hidden in group) * _NS

        def quantile(label, q, scale):
            durations = [t1 - t0 - hidden for _, _, t0, t1, _, hidden in spans(label)]
            if not durations:
                return 0.0
            return float(np.percentile(durations, q)) * scale

        def ratio(num, den):
            return num / den if den else 0.0

        down = [s for s in spans("best_moves") if s[0] not in self._refine_ids]
        refine = [s for s in spans("best_moves") if s[0] in self._refine_ids]
        kernel_in_moves_s = sum(
            t1 - t0 for _, _, t0, t1, parent, _ in spans("kernel")
            if labels.get(parent) == "moves"
        ) * _NS
        level_wall_s = sum(self.external["level_wall_s"])
        down_inclusive_s = sum(t1 - t0 for _, _, t0, t1, _, _ in down) * _NS
        waits = self.external["read_wait_ms"]
        multilevel = ("best_moves", "flatten")

        # (name, unit, clock, targets needed, value)
        table = [
            ("best_moves.busy_s", "s", "wall", multilevel, lambda: busy_s(down)),
            ("best_moves.calls", "count", "none", multilevel, lambda: len(down)),
            ("best_moves.rounds", "count", "none", multilevel,
             lambda: int(counts["best_moves_rounds"])),
            ("refine.busy_s", "s", "wall", multilevel, lambda: busy_s(refine)),
            ("kernels.busy_s", "s", "wall", ("kernel",), lambda: busy_s(spans("kernel"))),
            ("kernels.calls", "count", "none", ("kernel",), lambda: len(spans("kernel"))),
            ("kernels.edges_scanned", "count", "none", ("kernel",),
             lambda: int(counts["kernel_edges"])),
            ("kernels.vertices_evaluated", "count", "none", ("kernel",),
             lambda: int(counts["kernel_vertices"])),
            ("kernels.fallback_calls", "count", "none", ("kernel",),
             lambda: None if self.small_batch_work is None else int(counts["kernel_fallbacks"])),
            ("kernels.ns_per_edge", "ns", "wall", ("kernel",),
             lambda: ratio(busy_s(spans("kernel")) / _NS, counts["kernel_edges"])),
            ("kernels.move_yield", "ratio", "none", ("kernel",),
             lambda: ratio(counts["kernel_movers"], counts["kernel_vertices"])),
            ("moves.charge_s", "s", "wall", ("moves", "kernel"),
             lambda: busy_s(spans("moves")) - kernel_in_moves_s),
            ("scheduler.charge_s", "s", "wall", ("charge",), lambda: busy_s(spans("charge"))),
            ("scheduler.charge_calls", "count", "none", ("charge",), lambda: len(spans("charge"))),
            ("state.apply_moves_s", "s", "wall", ("apply_moves",),
             lambda: busy_s(spans("apply_moves"))),
            ("state.moved_vertices", "count", "none", ("apply_moves",),
             lambda: int(counts["moved_vertices"])),
            ("frontier.next_s", "s", "wall", ("frontier",), lambda: busy_s(spans("frontier"))),
            ("frontier.vertices", "count", "none", ("frontier",),
             lambda: int(counts["frontier_vertices"])),
            # compress_fn is bound as a default argument of
            # multilevel_louvain, so it cannot be wrapped: its time is what
            # the levels' own wall clocks hold beyond their best-moves calls.
            ("quotient.compress_s", "s", "wall", multilevel,
             lambda: max(0.0, level_wall_s - down_inclusive_s) if level_wall_s else 0.0),
            ("louvain_par.flatten_s", "s", "wall", ("flatten",), lambda: busy_s(spans("flatten"))),
            ("objective.score_s", "s", "wall", ("score", "exact_objective"),
             lambda: busy_s(spans("score")) + busy_s(spans("exact_objective"))),
            ("dynamic.apply_s", "s", "wall", ("dynamic_apply",),
             lambda: busy_s(spans("dynamic_apply"))),
            ("dynamic.candidate_evals", "count", "none", ("dynamic_apply",),
             lambda: int(counts["candidate_evals"])),
            ("dynamic.moves", "count", "none", ("dynamic_apply",),
             lambda: int(counts["dynamic_moves"])),
            ("dynamic.escalations", "count", "none", ("dynamic_apply",),
             lambda: int(counts["escalations"])),
            ("engines.restricted_s", "s", "wall", ("restricted",),
             lambda: busy_s(spans("restricted"))),
            ("delta.compact_s", "s", "wall", ("compact",), lambda: busy_s(spans("compact"))),
            ("delta.compact_p50_ms", "ms", "wall", ("compact",),
             lambda: quantile("compact", 50, 1e-6)),
            ("delta.rebuilds", "count", "none", ("compact",), lambda: int(counts["rebuilds"])),
            ("gateway.commit_s", "s", "wall", ("commit",), lambda: busy_s(spans("commit"))),
            ("gateway.commits", "count", "none", ("commit",), lambda: len(spans("commit"))),
            ("gateway.commit_p99_ms", "ms", "wall", ("commit",),
             lambda: quantile("commit", 99, 1e-6)),
            ("gateway.batch_updates_mean", "count", "none", ("commit",),
             lambda: ratio(counts["committed_updates"], len(spans("commit")))),
            ("gateway.serve_read_p99_us", "us", "wall", ("serve_read",),
             lambda: quantile("serve_read", 99, 1e-3)),
            ("gateway.read_wait_p99_ms", "ms", "wall", (),
             lambda: float(np.percentile(waits, 99)) if waits else 0.0),
            ("epoch.publish_ms", "ms", "wall", ("epoch",),
             lambda: ratio(busy_s(spans("epoch")) * 1e3, len(spans("epoch")))),
            ("trace.overhead_frac", "ratio", "wall", (), lambda: self.overhead_frac),
        ]
        return {
            name: {
                "value": None if missing.intersection(needs) else value(),
                "unit": unit,
                "clock": clock,
            }
            for name, unit, clock, needs, value in table
        }

    def write(self, path: str) -> None:
        """Dump every span plus the per-name summary as JSON."""
        payload = {
            "columns": ["id", "name", "start_ns", "end_ns", "parent", "hidden_ns"],
            "spans": self.spans,
            "summary": self.summary(),
            "warnings": self.warnings,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
