"""ServingGateway: the one serving front over a live clusterer.

The gateway owns one :class:`~repro.dynamic.clusterer.DynamicClusterer`
and multiplexes many clients over it (DESIGN.md §14):

* **Snapshot isolation** — every commit publishes an immutable
  :class:`~repro.serving.epoch.LabelEpoch`; reads resolve the epoch
  reference once and never touch mutable state, so a read can neither
  block a commit nor observe a half-applied batch.
* **Write coalescing** — staged writes from all clients merge, in FIFO
  submission order, into one :class:`~repro.dynamic.updates.UpdateBatch`
  per commit cycle; one localized refinement amortizes over the whole
  batch.
* **Write admission** — writes beyond ``write_queue_limit`` staged are
  shed with a ``retry_after`` hint.  Reads are never queued, so never
  shed.  Every submitted request resolves to exactly one terminal
  status, counted in :data:`~repro.obs.instrument.M_GATEWAY_REQUESTS`
  — no silent drops.

Commit-time validation asks the clusterer
(:meth:`~repro.dynamic.clusterer.DynamicClusterer.validate`, the rule
``apply()`` itself enforces): deletes/reweights of an absent edge are
``rejected`` and *excluded* from the batch, so ``apply()`` never raises
mid-batch and the committed batch log replays cleanly.  That
filtered-batch log is the equivalence artifact: replaying it serially
through a fresh clusterer (:func:`replay_digests`) must reproduce the
gateway's per-epoch label digests bit-identically, under any
interleaving and any write shedding.

Single-client work goes through the same front: ``repro update``
stages and commits here, and :meth:`~ServingGateway.save`,
:meth:`~ServingGateway.audit` and :meth:`~ServingGateway.close`
complete the op surface.  When
instrumented, commit/save/audit wall times land in the
``repro_serve_op_seconds`` histogram beside the read/write request
latencies, which the serving SLOs gate on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.errors import ServerClosedError, UpdateError
from repro.graphs.csr import CSRGraph
from repro.obs.instrument import (
    M_GATEWAY_BATCH,
    M_GATEWAY_EPOCH,
    M_GATEWAY_QUEUE,
    M_GATEWAY_REQUESTS,
    M_SERVE_LATENCY,
    SERVE_LATENCY_BUCKETS,
)
from repro.serving.epoch import LabelEpoch, label_digest
from repro.serving.requests import CLASSES, Request, Response, STATUSES

__all__ = ["GatewayPolicy", "ServingGateway", "replay_digests"]

#: Back-off hint, in seconds, attached to shed responses.
RETRY_AFTER_SECONDS = 0.05


@dataclass(frozen=True)
class GatewayPolicy:
    """The write-admission limit, the batch cap and the commit cadence."""

    #: Staged-but-uncommitted writes allowed before shedding starts.
    write_queue_limit: int = 1024
    #: Coalesced updates per commit; excess stays staged for the next
    #: cycle (0 = unbounded).
    max_batch_updates: int = 0
    #: Wall seconds between commit-thread cycles.
    commit_interval_seconds: float = 0.1

    def __post_init__(self) -> None:
        if self.write_queue_limit < 1:
            raise UpdateError("write_queue_limit must be >= 1")
        if self.commit_interval_seconds <= 0:
            raise UpdateError("commit_interval_seconds must be positive")


class ServingGateway:
    """Multi-client serving front for one :class:`DynamicClusterer`.

    The gateway is the synchronous core under every caller: the driver
    (or a scripted session) owns *time* and calls in with explicit
    ``now`` stamps; the gateway owns state transitions, accounting, and
    the committed-batch log.  All mutating entry points take ``_lock``
    so the threaded driver's client threads and commit thread compose.
    When instrumented, every metric update also happens under ``_lock``
    (counters and histograms are read-modify-write); uninstrumented, no
    metric code runs and no extra lock is taken.  A caller holding its
    own lock takes it before ``_lock``, never after.
    ``instrumentation`` defaults to the clusterer's own.
    """

    def __init__(
        self,
        clusterer: DynamicClusterer,
        policy: Optional[GatewayPolicy] = None,
        instrumentation=None,
    ) -> None:
        self.clusterer = clusterer
        self.policy = policy if policy is not None else GatewayPolicy()
        self.instr = (
            instrumentation if instrumentation is not None else clusterer.instr
        )
        # Re-entrant: commit() holds it while the terminal-accounting
        # helpers (also called bare from client threads) re-acquire.
        self._lock = threading.RLock()
        self._closed = False
        #: FIFO of staged write requests awaiting the next commit cycle.
        self._staged: List[Request] = []
        #: Committed batches: {"epoch", "updates", "digest", "num_rejected",
        #: "report"}.
        self.committed: List[dict] = []
        #: Per-(class, status) terminal accounting.
        self.counts: Dict[Tuple[str, str], int] = {
            (k, s): 0 for k in CLASSES for s in STATUSES
        }
        self.submitted: Dict[str, int] = {k: 0 for k in CLASSES}
        #: Epoch 0: the bootstrap partition, before any gateway commit.
        self._epoch = LabelEpoch(
            0,
            clusterer.state.assignments,
            f_objective=clusterer.f_objective,
        )
        self.epoch_log: List[str] = [self._epoch.digest]
        if self.instr.enabled:
            self.instr.set_gauge(M_GATEWAY_EPOCH, 0.0)

    # -- snapshot access ------------------------------------------------ #

    @property
    def epoch(self) -> LabelEpoch:
        """The current published epoch (atomic reference read)."""
        return self._epoch

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    # -- lifecycle ------------------------------------------------------- #

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServerClosedError(
                "ServingGateway is closed; ops after close() are invalid"
            )

    def close(self) -> None:
        """Close the gateway.

        Idempotent: a second ``close()`` (or a ``with`` block exiting
        after an explicit close) is a no-op.  Later serve/stage/commit/
        save/audit calls raise :class:`~repro.errors.ServerClosedError`.
        """
        self._closed = True

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- accounting helpers --------------------------------------------- #

    def _account(self, klass: str, status: str) -> None:
        with self._lock:
            self.counts[(klass, status)] += 1
            if self.instr.enabled:
                self.instr.count(
                    M_GATEWAY_REQUESTS, 1.0, kind=klass, status=status
                )

    def _observe_latency(self, op: str, latency: float) -> None:
        if self.instr.enabled:
            with self._lock:
                self.instr.metrics.histogram(
                    M_SERVE_LATENCY, buckets=SERVE_LATENCY_BUCKETS
                ).observe(max(0.0, latency), op=op)

    def _op_start(self) -> Optional[float]:
        """Wall-clock start of a timed op; no clock read when uninstrumented."""
        return time.perf_counter() if self.instr.enabled else None

    def _op_end(self, op: str, start: Optional[float]) -> None:
        if start is not None:
            self._observe_latency(op, time.perf_counter() - start)

    def note_submit(self, request: Request) -> None:
        """Count one arrival (callers do this before serving or staging)."""
        with self._lock:
            self.submitted[request.klass] += 1

    # -- terminal transitions ------------------------------------------- #

    def shed(self, request: Request, now: float) -> Response:
        """Load-shed ``request`` at admission (write queue full)."""
        self._account(request.klass, "shed")
        return Response(
            request_id=request.request_id,
            klass=request.klass,
            status="shed",
            latency=max(0.0, now - request.submitted_at),
            retry_after=RETRY_AFTER_SECONDS,
        )

    def serve_read(self, request: Request, now: float) -> Response:
        """Answer a read against the current epoch (never blocks writes)."""
        self._ensure_open()
        epoch = self._epoch  # one atomic reference read = the snapshot
        value = epoch.serve(request.kind, request.args)
        latency = max(0.0, now - request.submitted_at)
        self._account("read", "ok")
        self._observe_latency("read", latency)
        return Response(
            request_id=request.request_id,
            klass="read",
            status="ok",
            value=value,
            epoch=epoch.index,
            latency=latency,
        )

    def stage_write(self, request: Request, now: float) -> Optional[Response]:
        """Stage a write for the next commit; shed if the queue is full.

        Returns the shed :class:`Response`, or ``None`` when staged (the
        terminal response arrives from :meth:`commit`).
        """
        self._ensure_open()
        if request.update is None:
            raise UpdateError("stage_write needs a write request")
        with self._lock:
            if self.instr.enabled:
                self.instr.observe(
                    M_GATEWAY_QUEUE, float(len(self._staged)), kind="write"
                )
            if len(self._staged) >= self.policy.write_queue_limit:
                return self.shed(request, now)
            self._staged.append(request)
        return None

    # -- commit cycle ---------------------------------------------------- #

    def commit(self, now: float) -> List[Response]:
        """Coalesce staged writes into one batch, apply, publish an epoch.

        Returns one terminal :class:`Response` per consumed staged write
        (``ok`` with the new epoch index, or ``rejected``).  An
        all-rejected or empty cycle publishes no epoch.  Only the commit
        caller mutates the clusterer — the threaded driver funnels every
        commit through its single commit thread.  The committed log entry
        keeps the batch's :class:`~repro.dynamic.clusterer.UpdateReport`
        under ``"report"``.
        """
        self._ensure_open()
        with self._lock:
            take = len(self._staged)
            if self.policy.max_batch_updates > 0:
                take = min(take, self.policy.max_batch_updates)
            staged = self._staged[:take]
            del self._staged[:take]
            if not staged:
                return []
            start = self._op_start()
            reasons = self.clusterer.validate([req.update for req in staged])
            accepted: List[Request] = []
            responses: List[Response] = []
            for req, reason in zip(staged, reasons):
                if reason is None:
                    accepted.append(req)
                    continue
                self._account("write", "rejected")
                responses.append(
                    Response(
                        request_id=req.request_id,
                        klass="write",
                        status="rejected",
                        latency=max(0.0, now - req.submitted_at),
                        error=reason,
                    )
                )
            if not accepted:
                return responses
            batch = UpdateBatch([req.update for req in accepted])
            report = self.clusterer.apply(batch)
            epoch = LabelEpoch(
                self._epoch.index + 1,
                self.clusterer.state.assignments,
                f_objective=self.clusterer.f_objective,
                published_at=now,
                batch_updates=len(batch),
            )
            self.committed.append(
                {
                    "epoch": epoch.index,
                    "updates": [u.as_dict() for u in batch],
                    "digest": epoch.digest,
                    "num_rejected": len(staged) - len(accepted),
                    "report": report,
                }
            )
            self.epoch_log.append(epoch.digest)
            self._epoch = epoch  # atomic publish
            if self.instr.enabled:
                self.instr.set_gauge(M_GATEWAY_EPOCH, float(epoch.index))
                self.instr.observe(M_GATEWAY_BATCH, float(len(batch)))
            for req in accepted:
                latency = max(0.0, now - req.submitted_at)
                self._account("write", "ok")
                self._observe_latency("write", latency)
                responses.append(
                    Response(
                        request_id=req.request_id,
                        klass="write",
                        status="ok",
                        epoch=epoch.index,
                        latency=latency,
                    )
                )
            self._op_end("commit", start)
            return responses

    # -- single-client ops ---------------------------------------------- #

    def save(self, store) -> Path:
        """Rotate a snapshot of the live state into a
        :class:`~repro.dynamic.snapshot.SnapshotStore`; resets staleness."""
        self._ensure_open()
        start = self._op_start()
        with self._lock:
            path = store.save(self.clusterer)
        self._op_end("save", start)
        return path

    def audit(self) -> List[str]:
        """StateAuditor issues over the live state (empty = clean)."""
        self._ensure_open()
        start = self._op_start()
        with self._lock:
            issues = self.clusterer.audit()
        self._op_end("audit", start)
        return issues

    # -- equivalence + reporting ----------------------------------------- #

    def committed_batches(self) -> List[UpdateBatch]:
        """The filtered batches actually applied, in commit order."""
        return [
            UpdateBatch(
                EdgeUpdate.from_dict(u) for u in entry["updates"]
            )
            for entry in self.committed
        ]

    def stats(self) -> dict:
        """Gateway accounting (feeds DoctorInputs.gateway_stats).

        Invariant: per class, ``submitted == ok + shed + rejected +
        pending`` where pending is staged writes not yet committed — the
        no-silent-drops audit the tests assert.  ``expired`` is always 0.
        """
        by_class = {}
        for klass in CLASSES:
            row = {s: self.counts[(klass, s)] for s in STATUSES}
            row["submitted"] = self.submitted[klass]
            by_class[klass] = row
        return {
            "epoch": self._epoch.index,
            "commits": len(self.committed),
            "staged": len(self._staged),
            "requests": by_class,
            "epoch_digest": self._epoch.digest,
            "clusterer": self.clusterer.stats(),
        }


def replay_digests(
    graph: CSRGraph,
    assignments: np.ndarray,
    config: ClusteringConfig,
    batches: Sequence[UpdateBatch],
    engine: Optional[str] = None,
    guard: Optional[DriftGuard] = None,
) -> List[str]:
    """Serially replay committed batches; per-epoch label digests.

    Constructs a fresh :class:`DynamicClusterer` from the *bootstrap*
    graph + labels (fresh ``make_rng(config.seed)`` — the same initial
    rng state the gateway's clusterer started from) and applies each
    batch through the plain ``repro update`` path.  Element ``0`` is the
    bootstrap digest; element ``k`` is the digest after batch ``k``.
    The serving equivalence gate asserts this list equals the gateway's
    ``epoch_log`` bit-for-bit.
    """
    clusterer = DynamicClusterer(
        graph,
        np.array(assignments, dtype=np.int64, copy=True),
        config,
        engine=engine,
        guard=guard,
    )
    digests = [label_digest(clusterer.state.assignments)]
    for batch in batches:
        clusterer.apply(batch)
        digests.append(label_digest(clusterer.state.assignments))
    return digests
