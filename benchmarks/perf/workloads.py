"""The four perf-benchmark workloads: inputs, timed operations, output checks.

End-to-end code here uses only ``repro.api`` and the ``repro.generators``
functions (plus ``lambdacc_objective`` for the batch objective check), so
the harness survives refactors of the internal modules it measures.

Each workload has two halves.  ``build`` is the set-up: it generates the
inputs from the seed, bootstraps any live state and warms caches.
``measure`` runs the timed operations, checks the outputs and returns a
:class:`Outcome`.  With a tracer, ``measure`` interleaves untraced and
traced operations so the per-layer numbers and the tracing overhead come
from the same run.
"""

from __future__ import annotations

import hashlib
import statistics
from contextlib import nullcontext
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api import (
    ClusteringConfig,
    DynamicClusterer,
    EdgeUpdate,
    GatewayPolicy,
    Request,
    ServingGateway,
    UpdateBatch,
    cluster,
    replay_digests,
)
from repro.generators import approximate_knn_graph, lfr_like_graph, rmat_graph

#: The default config every workload runs: async, vertex-neighbors
#: frontier, 32 windows, refinement, vectorized kernel, fixed seed.
RESOLUTION = 0.05
CONFIG_SEED = 3

#: Batch workloads stop starting calls once the next one would overrun
#: ``--seconds``, but always time at least this many.
MIN_CALLS = 3


def default_config() -> ClusteringConfig:
    return ClusteringConfig(resolution=RESOLUTION, seed=CONFIG_SEED)


def digest(labels: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def percentile_ms(values_s: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values_s), q)) * 1e3


def paired_overhead(plain: List[float], traced: List[float]) -> float:
    """Median traced/untraced ratio over adjacent pairs, minus 1.

    Each traced operation runs right after its untraced twin, so pairing
    cancels the host's speed drift, which a ratio of medians would keep.
    """
    return statistics.median(t / p for p, t in zip(plain, traced)) - 1.0


def metric(value, unit: str, clock: str = "none", samples: Optional[int] = None) -> dict:
    out = {"value": value, "unit": unit, "clock": clock}
    if samples is not None:
        out["samples"] = samples
    return out


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int = 0
    failed: int = 0
    #: ``(name, passed, detail)`` per output check.
    checks: List[tuple] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    #: Raw per-operation walls in ms, where there are few enough to keep.
    samples_ms: List[float] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def _report_failure(what: str) -> None:
    print(f"error: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------- #
# rmat16 / knn: batch clustering
# ---------------------------------------------------------------------- #


@dataclass
class BatchInputs:
    graph: object
    config: ClusteringConfig


class BatchWorkload:
    """``cluster()`` on one generated graph, repeated for ``--seconds``."""

    def __init__(self, make_graph, full: dict, smoke: dict) -> None:
        self.make_graph = make_graph
        self.sizes = {"full": full, "smoke": smoke}

    def build(self, seed: int, seconds: float, size: str) -> BatchInputs:
        graph = self.make_graph(seed, **self.sizes[size])
        config = default_config()
        cluster(graph, config)  # warm-up
        return BatchInputs(graph, config)

    def measure(self, inputs: BatchInputs, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        plain: List[float] = []
        traced: List[float] = []
        digests = set()
        degraded = 0
        last = None
        modes = (False, True) if tracer is not None else (False,)
        start = time.perf_counter()
        while True:
            for trace_this in modes:
                t0 = time.perf_counter()
                try:
                    with tracer.op() if trace_this else nullcontext():
                        result = cluster(inputs.graph, inputs.config)
                except Exception:
                    _report_failure("cluster()")
                    out.failed += 1
                    result = None
                wall = time.perf_counter() - t0
                out.attempted += 1
                if result is None:
                    continue
                (traced if trace_this else plain).append(wall)
                digests.add(digest(result.assignments))
                degraded += result.degraded
                last = result
                if trace_this:
                    tracer.external["level_wall_s"].append(
                        sum(level.wall_seconds for level in result.stats.levels)
                    )
            elapsed = time.perf_counter() - start
            done = out.attempted
            if len(plain) >= MIN_CALLS and elapsed * (done + len(modes)) / done > seconds:
                break
            if elapsed > 2 * seconds:  # calls keep failing
                break
        if not plain or (tracer is not None and not traced):
            out.check("clustered", False, "cluster() calls raised")
            return out

        from repro.core.objective import lambdacc_objective

        recomputed = 2.0 * lambdacc_objective(inputs.graph, last.assignments, RESOLUTION)
        scale = max(1.0, abs(recomputed))
        out.check(
            "objective matches recomputation",
            abs(recomputed - last.objective) <= 1e-9 * scale,
            f"result {last.objective!r} vs recomputed {recomputed!r}",
        )
        out.check("label digest identical across runs", len(digests) == 1, f"{len(digests)} digests")
        out.check("no run degraded", degraded == 0, f"{degraded} degraded")
        out.failed += degraded

        out.metrics = {
            "op_p50_ms": metric(percentile_ms(plain, 50), "ms", "wall", len(plain)),
            "op_tail_ms": metric(percentile_ms(plain, 90), "ms", "wall", len(plain)),
            "objective": metric(last.objective, "weight"),
            "sim_time_seconds": metric(last.sim_time(), "s", "simulated"),
            "rounds": metric(last.rounds, "count"),
            "levels": metric(last.num_levels, "count"),
        }
        out.samples_ms = [w * 1e3 for w in plain]
        if tracer is not None:
            tracer.overhead_frac = paired_overhead(plain, traced)
        return out


def rmat_input(seed: int, scale: int) -> object:
    """``rmat_graph(scale, 8 * 2**scale)``: integer weights, skewed degrees."""
    return rmat_graph(scale, 8 * 2**scale, seed=seed)


#: Mixture layout of the kNN workload: 50 classes whose centres sit in the
#: first 8 of 32 dimensions.  The layout is fixed and the seed draws the
#: points, so every seed poses the same clustering problem: with centres
#: or LSH planes drawn per seed the objective moves ~9% between seeds.
KNN_CLASSES = 50
KNN_DIMS = 32
KNN_INFORMATIVE = 8
KNN_LAYOUT_SEED = 20211
KNN_LSH_SEED = 0
#: 12-bit LSH signatures: the default 8 bits hold ~400 candidates per
#: point in Python sets (1.6 GB, 4 s); 12 bits hold ~24 (0.3 GB, 1 s).
KNN_PROJECTIONS = 12


def knn_input(seed: int, points: int, k: int) -> object:
    """Approximate cosine kNN graph of a Gaussian mixture: fractional weights."""
    layout = np.random.default_rng(KNN_LAYOUT_SEED)
    centers = np.zeros((KNN_CLASSES, KNN_DIMS))
    centers[:, :KNN_INFORMATIVE] = layout.normal(0.0, 3.0, size=(KNN_CLASSES, KNN_INFORMATIVE))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, KNN_CLASSES, size=points)
    coords = centers[labels] + rng.normal(0.0, 1.0, size=(points, KNN_DIMS))
    return approximate_knn_graph(
        coords, k=k, num_projections=KNN_PROJECTIONS, seed=KNN_LSH_SEED
    )


# ---------------------------------------------------------------------- #
# updates: a stream of update batches through DynamicClusterer.apply
# ---------------------------------------------------------------------- #


def update_pools(graph, seed: int, deletes: int, inserts: int):
    """Distinct present base edges to delete and distinct absent pairs to insert.

    Deletes never repeat and inserts never touch a base edge or repeat, so
    every update in the stream is valid whatever order it is applied in.
    """
    rng = np.random.default_rng([seed, 1])
    src, dst, _ = graph.edge_list()
    if deletes > src.size:
        raise ValueError(f"{deletes} deletes requested from {src.size} edges")
    pick = rng.choice(src.size, size=deletes, replace=False)
    delete_pairs = np.stack([src[pick], dst[pick]], axis=1)
    n = graph.num_vertices
    present = src.astype(np.int64) * n + dst
    chosen = np.zeros(0, dtype=np.int64)
    while chosen.size < inserts:
        u = rng.integers(0, n, size=2 * inserts)
        v = rng.integers(0, n, size=2 * inserts)
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        keys = keys[(u != v) & ~np.isin(keys, present)]
        keys = keys[~np.isin(keys, chosen)]
        _, first = np.unique(keys, return_index=True)
        chosen = np.concatenate([chosen, keys[np.sort(first)]])
    chosen = chosen[:inserts]
    insert_pairs = np.stack([chosen // n, chosen % n], axis=1)
    return delete_pairs, insert_pairs


@dataclass
class UpdatesInputs:
    graph: object
    config: ClusteringConfig
    clusterer: DynamicClusterer
    labels: np.ndarray
    stream: List[UpdateBatch]


class UpdatesWorkload:
    """Update batches through ``DynamicClusterer.apply``, one timed per batch.

    The same engine on tiny frontiers: ``apply`` is ~93% CSR rebuild
    (``DeltaOverlayGraph.compact``) and ~2% kernel, a path the batch
    workloads bypass.
    """

    #: Batches per ``--seconds``: fixed, not timed, so the final state (and
    #: its objective) depends only on the seed.  ~85 ms per batch on a
    #: 2-CPU host makes the stream last about ``--seconds``.
    batches_per_second = 12
    sizes = {
        "full": {"vertices": 50_000, "per_batch": 100},
        "smoke": {"vertices": 2_000, "per_batch": 10},
    }

    def build(self, seed: int, seconds: float, size: str) -> UpdatesInputs:
        spec = self.sizes[size]
        graph = lfr_like_graph(spec["vertices"], mixing=0.3, seed=seed).graph
        config = default_config()
        clusterer = DynamicClusterer.bootstrap(graph, config)
        batches = max(2, round(seconds * self.batches_per_second))
        half = spec["per_batch"] // 2
        deletes, inserts = update_pools(graph, seed, batches * half, batches * half)
        rng = np.random.default_rng([seed, 2])
        stream = []
        for b in range(batches):
            ops = [
                EdgeUpdate("delete", int(u), int(v))
                for u, v in deletes[b * half:(b + 1) * half]
            ] + [
                EdgeUpdate("insert", int(u), int(v), 1.0)
                for u, v in inserts[b * half:(b + 1) * half]
            ]
            stream.append(UpdateBatch([ops[i] for i in rng.permutation(len(ops))]))
        return UpdatesInputs(graph, config, clusterer, clusterer.state.assignments.copy(), stream)

    def _apply(self, clusterer, batch, out: Outcome, walls: List[float], tracer=None) -> None:
        t0 = time.perf_counter()
        try:
            with tracer.op() if tracer is not None else nullcontext():
                clusterer.apply(batch)
        except Exception:
            _report_failure("DynamicClusterer.apply()")
            out.failed += 1
        else:
            walls.append(time.perf_counter() - t0)
        out.attempted += 1

    def measure(self, inputs: UpdatesInputs, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        plain: List[float] = []
        clusterer = inputs.clusterer
        if tracer is None:
            for batch in inputs.stream:
                self._apply(clusterer, batch, out, plain)
        else:
            # Same batches on two identical clusterers, alternating, so the
            # traced and untraced walls time the same work.  Half the stream
            # each keeps the run as long as an untraced one.
            twin = DynamicClusterer(inputs.graph, inputs.labels.copy(), inputs.config)
            traced: List[float] = []
            for batch in inputs.stream[: max(1, len(inputs.stream) // 2)]:
                self._apply(clusterer, batch, out, plain)
                self._apply(twin, batch, out, traced, tracer)
            tracer.overhead_frac = paired_overhead(plain, traced)
            out.check(
                "traced twin reaches identical labels",
                digest(twin.state.assignments) == digest(clusterer.state.assignments),
            )
            out.check("traced twin audit clean", not twin.audit())
        issues = clusterer.audit()
        out.check("audit clean after stream", not issues, "; ".join(issues))
        stats = clusterer.stats()
        out.metrics = {
            "op_p50_ms": metric(percentile_ms(plain, 50), "ms", "wall", len(plain)),
            "op_tail_ms": metric(percentile_ms(plain, 95), "ms", "wall", len(plain)),
            "objective": metric(2.0 * clusterer.f_objective, "weight"),
            "sim_time_seconds": metric(clusterer.sim_seconds, "s", "simulated"),
            "escalations": metric(stats["escalations"], "count"),
            "moves": metric(stats["moves_applied"], "count"),
        }
        out.samples_ms = [w * 1e3 for w in plain]
        return out


# ---------------------------------------------------------------------- #
# serve: open-loop reads beside coalesced writes on the gateway
# ---------------------------------------------------------------------- #

READ_KINDS = ("cluster_of", "same", "members", "stats")


@dataclass
class ServeInputs:
    graph: object
    config: ClusteringConfig
    gateway: ServingGateway
    labels: np.ndarray
    requests: List[Request]


class ServeWorkload:
    """Open-loop reads beside coalesced writes on the serving gateway.

    One client thread answers reads inline and stages writes; one commit
    thread commits every ``commit_interval_seconds``.  Reads stall while
    ``commit()`` holds the gateway lock and the GIL, so read latency,
    timed from each request's due time, shows what commits cost readers.
    """

    sizes = {
        "full": {"vertices": 20_000, "rate": 2000.0},
        "smoke": {"vertices": 2_000, "rate": 400.0},
    }
    write_fraction = 0.05
    #: Generator lateness at the end beyond which the run has a backlog.
    max_lateness_s = 1.0
    #: The generator sleeps until this long before a request is due, then
    #: yields until it is.  A plain sleep overshoots by the kernel's 50 us
    #: timer slack, which would be most of a ~20 us read.
    spin_s = 300e-6

    def build(self, seed: int, seconds: float, size: str) -> ServeInputs:
        spec = self.sizes[size]
        graph = lfr_like_graph(spec["vertices"], mixing=0.3, seed=seed).graph
        config = default_config()
        clusterer = DynamicClusterer.bootstrap(graph, config)
        labels = clusterer.state.assignments.copy()
        gateway = ServingGateway(clusterer, GatewayPolicy())

        rng = np.random.default_rng([seed, 3])
        expected = int(spec["rate"] * seconds)
        gaps = rng.exponential(1.0 / spec["rate"], size=expected + 10 * int(expected**0.5) + 10)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        is_write = rng.random(due.size) < self.write_fraction
        writes = int(is_write.sum())
        deletes, inserts = update_pools(graph, seed, writes, writes)
        n = graph.num_vertices
        requests: List[Request] = []
        taken = {"delete": 0, "insert": 0}
        for i, at in enumerate(due.tolist()):
            if is_write[i]:
                op = "delete" if rng.random() < 0.5 else "insert"
                u, v = (deletes if op == "delete" else inserts)[taken[op]]
                taken[op] += 1
                update = EdgeUpdate(op, int(u), int(v), 1.0)
                requests.append(Request.write(i, update, submitted_at=at))
                continue
            kind = READ_KINDS[int(rng.integers(0, len(READ_KINDS)))]
            if kind == "same":
                args = (int(rng.integers(0, n)), int(rng.integers(0, n)))
            elif kind == "stats":
                args = ()
            else:
                args = (int(rng.integers(0, n)),)
            requests.append(Request.read(i, kind, *args, submitted_at=at))
        return ServeInputs(graph, config, gateway, labels, requests)

    def measure(self, inputs: ServeInputs, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        gateway = inputs.gateway
        interval = gateway.policy.commit_interval_seconds
        read_latency: List[float] = []
        read_wait_ms: List[float] = []
        visible: List[float] = []
        due_of: Dict[int, float] = {}
        # One tally per thread: the client counts reads and shed writes,
        # the commit thread counts committed or rejected writes.
        statuses: Dict[str, int] = {}
        write_statuses: Dict[str, int] = {}
        errors: List[str] = []
        stop = threading.Event()
        lateness = 0.0
        start = time.perf_counter()

        def settle(responses, published: float) -> None:
            for resp in responses:
                write_statuses[resp.status] = write_statuses.get(resp.status, 0) + 1
                if resp.status == "ok":
                    visible.append(published - due_of[resp.request_id])

        def commit_loop() -> None:
            try:
                while True:
                    stopped = stop.wait(interval)
                    if gateway.staged_count:
                        responses = gateway.commit(time.perf_counter() - start)
                        settle(responses, time.perf_counter())
                    if stopped and not gateway.staged_count:
                        return
            except Exception:
                _report_failure("ServingGateway.commit()")
                errors.append("commit")

        committer = threading.Thread(target=commit_loop, name="bench-commit")
        with tracer.op() if tracer is not None else nullcontext():
            committer.start()
            try:
                for req in inputs.requests:
                    due = start + req.submitted_at
                    delay = due - time.perf_counter()
                    if delay > self.spin_s:
                        time.sleep(delay - self.spin_s)
                    while time.perf_counter() < due:
                        time.sleep(0)  # yields the GIL to the commit thread
                    begin = time.perf_counter()
                    lateness = begin - due
                    try:
                        gateway.note_submit(req)
                        if req.klass == "write":
                            due_of[req.request_id] = due
                            shed = gateway.stage_write(req, begin - start)
                            if shed is not None:
                                statuses["shed"] = statuses.get("shed", 0) + 1
                            continue
                        resp = gateway.serve_read(req, begin - start)
                    except Exception:
                        _report_failure("gateway request")
                        errors.append("request")
                        continue
                    end = time.perf_counter()
                    statuses[resp.status] = statuses.get(resp.status, 0) + 1
                    read_latency.append(end - due)
                    read_wait_ms.append((begin - due) * 1e3)
            finally:
                stop.set()
                committer.join(timeout=120.0)
        out.check("commit thread finished", not committer.is_alive())
        out.attempted = len(inputs.requests)
        out.failed = out.attempted - statuses.get("ok", 0) - write_statuses.get("ok", 0)
        out.check("no request raised", not errors, ", ".join(errors))
        out.check(
            "generator lateness at end under 1 s",
            lateness < self.max_lateness_s,
            f"{lateness:.3f} s",
        )

        stats = gateway.stats()
        for klass, row in stats["requests"].items():
            resolved = sum(row[s] for s in ("ok", "shed", "expired", "rejected"))
            out.check(
                f"{klass}: submitted == resolved",
                row["submitted"] == resolved,
                f"{row['submitted']} submitted, {resolved} resolved",
            )
        out.check("no write left staged", stats["staged"] == 0, f"{stats['staged']} staged")

        batches = gateway.committed_batches()
        replayed = replay_digests(inputs.graph, inputs.labels, inputs.config, batches)
        out.check("serial replay reproduces every epoch", replayed == gateway.epoch_log)
        if tracer is not None:
            tracer.overhead_frac = self._replay_overhead(inputs, batches, out)

        out.metrics = {
            "op_p50_ms": metric(percentile_ms(read_latency, 50), "ms", "wall", len(read_latency)),
            "op_tail_ms": metric(percentile_ms(read_latency, 99), "ms", "wall", len(read_latency)),
            "objective": metric(2.0 * gateway.clusterer.f_objective, "weight"),
            "write_visible_p50_ms": metric(percentile_ms(visible, 50), "ms", "wall", len(visible)),
            "write_visible_p99_ms": metric(percentile_ms(visible, 99), "ms", "wall", len(visible)),
            "lateness_s": metric(lateness, "s", "wall"),
            "commits": metric(len(batches), "count"),
            "sim_time_seconds": metric(gateway.clusterer.sim_seconds, "s", "simulated"),
        }
        if tracer is not None:
            tracer.external["read_wait_ms"].extend(read_wait_ms)
        return out

    def _replay_overhead(self, inputs: ServeInputs, batches, out: Outcome) -> float:
        """Tracing overhead of ``serve``, measured on its write path.

        The open loop cannot run twice, so the first half of the committed
        batches is replayed on two fresh clusterers, alternating batch by
        batch between an untraced one and one under a throwaway tracer.
        """
        from layertrace import Tracer

        plain_twin = DynamicClusterer(inputs.graph, inputs.labels.copy(), inputs.config)
        traced_twin = DynamicClusterer(inputs.graph, inputs.labels.copy(), inputs.config)
        probe = Tracer()
        plain: List[float] = []
        traced: List[float] = []
        for batch in batches[: max(1, len(batches) // 2)]:
            for twin, walls, trace_this in ((plain_twin, plain, False), (traced_twin, traced, True)):
                t0 = time.perf_counter()
                with probe.op() if trace_this else nullcontext():
                    twin.apply(batch)
                walls.append(time.perf_counter() - t0)
        out.check(
            "traced replay matches the untraced one",
            digest(traced_twin.state.assignments) == digest(plain_twin.state.assignments),
        )
        return paired_overhead(plain, traced) if plain else 0.0


WORKLOADS = {
    # The ROADMAP item 1 target: integer weights and skewed degrees; the
    # kernel is ~73% of cluster() wall and compression ~10%.
    "rmat16": BatchWorkload(rmat_input, full={"scale": 16}, smoke={"scale": 10}),
    # Fractional weights take the kernel's exact-order bincount path and
    # degrees are near-regular: a kernel tuned on RMAT hubs must hold here.
    "knn": BatchWorkload(
        knn_input, full={"points": 25_000, "k": 16}, smoke={"points": 2_000, "k": 8}
    ),
    "updates": UpdatesWorkload(),
    "serve": ServeWorkload(),
}
