"""The gateway driver: real client threads against the wall clock.

The gateway core (:mod:`repro.serving.gateway`) is synchronous and
time-free; the driver owns the clock and the interleaving.
:class:`ThreadedDriver` runs client threads that submit against the
wall clock, with a single commit thread as the sole clusterer mutator.
Snapshot isolation makes reads lock-free (one atomic epoch-reference
read); admission counters take the gateway lock.  Its latencies are
measurements on the host it runs on; the wall-clock serving benchmark
is the ``serve`` workload of ``benchmarks/perf``.

A run produces a :class:`DriverResult` with full per-status accounting:
the no-silent-drops invariant (every generated request has exactly one
terminal response) is asserted by :meth:`DriverResult.check_accounting`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import UpdateError
from repro.serving.gateway import ServingGateway
from repro.serving.requests import Request, Response, STATUSES

__all__ = ["DriverResult", "ThreadedDriver"]


@dataclass
class DriverResult:
    """Everything one driver run produced."""

    responses: List[Response] = field(default_factory=list)
    #: Wall seconds from the driver's start to the last thread joining.
    makespan: float = 0.0
    num_requests: int = 0

    def by_status(self) -> Dict[str, Dict[str, int]]:
        out = {
            klass: {s: 0 for s in STATUSES} for klass in ("read", "write")
        }
        for resp in self.responses:
            out[resp.klass][resp.status] += 1
        return out

    def latencies(self, klass: str = "read", status: str = "ok") -> np.ndarray:
        vals = [
            r.latency
            for r in self.responses
            if r.klass == klass and r.status == status
        ]
        return np.asarray(vals, dtype=np.float64)

    def check_accounting(self, gateway: ServingGateway) -> List[str]:
        """No-silent-drops audit; returns human-readable violations."""
        issues: List[str] = []
        if len(self.responses) != self.num_requests:
            issues.append(
                f"{self.num_requests} requests submitted but "
                f"{len(self.responses)} responses produced"
            )
        seen = {r.request_id for r in self.responses}
        if len(seen) != len(self.responses):
            issues.append("duplicate terminal responses for one request")
        counts = self.by_status()
        stats = gateway.stats()["requests"]
        for klass in ("read", "write"):
            resolved = sum(counts[klass].values())
            if stats[klass]["submitted"] != resolved:
                issues.append(
                    f"{klass}: submitted {stats[klass]['submitted']} != "
                    f"resolved {resolved}"
                )
            for status in STATUSES:
                if stats[klass][status] != counts[klass][status]:
                    issues.append(
                        f"{klass}/{status}: gateway counted "
                        f"{stats[klass][status]}, driver saw "
                        f"{counts[klass][status]}"
                    )
        if gateway.staged_count:
            issues.append(f"{gateway.staged_count} writes left staged")
        return issues

    def summary(self) -> dict:
        counts = self.by_status()
        read_lat = self.latencies("read", "ok")
        write_lat = self.latencies("write", "ok")
        ok_reads = counts["read"]["ok"]
        return {
            "num_requests": self.num_requests,
            "makespan_seconds": self.makespan,
            "counts": counts,
            "read_throughput_rps": (
                ok_reads / self.makespan if self.makespan > 0 else 0.0
            ),
            "read_p50_seconds": (
                float(np.percentile(read_lat, 50)) if read_lat.size else None
            ),
            "read_p95_seconds": (
                float(np.percentile(read_lat, 95)) if read_lat.size else None
            ),
            "write_p95_seconds": (
                float(np.percentile(write_lat, 95)) if write_lat.size else None
            ),
        }


class ThreadedDriver:
    """Wall-clock execution: client threads + one commit thread.

    The commit thread is the *sole* clusterer mutator; client threads
    only stage writes and serve reads against published epochs, so the
    bit-identity guarantee is structural, not lock-discipline luck.
    ``time_scale`` multiplies each request's generated ``submitted_at``
    into its wall-clock submit offset (0 = submit as fast as possible).
    """

    def __init__(self, num_threads: int = 4, time_scale: float = 0.0) -> None:
        if num_threads < 1:
            raise UpdateError("ThreadedDriver needs >= 1 client thread")
        self.num_threads = num_threads
        self.time_scale = float(time_scale)

    def run(
        self, gateway: ServingGateway, requests: Sequence[Request]
    ) -> DriverResult:
        policy = gateway.policy
        result = DriverResult(num_requests=len(requests))
        responses = result.responses  # list.append is atomic under the GIL
        start_wall = time.perf_counter()
        stop = threading.Event()
        inflight_lock = threading.Lock()
        inflight = [0]

        def now() -> float:
            return time.perf_counter() - start_wall

        def commit_loop() -> None:
            while True:
                stopped = stop.wait(policy.commit_interval_seconds)
                if gateway.staged_count:
                    responses.extend(gateway.commit(now()))
                if stopped and not gateway.staged_count:
                    return

        def client_loop(my_requests: List[Request]) -> None:
            for req in my_requests:
                if self.time_scale > 0:
                    target = req.submitted_at * self.time_scale
                    delay = target - now()
                    if delay > 0:
                        time.sleep(delay)
                t = now()
                # Re-stamp onto the wall clock so latency/deadline math
                # is consistent with this driver's time base.
                budget = (
                    req.deadline - req.submitted_at
                    if req.deadline is not None
                    else None
                )
                req = replace(
                    req,
                    submitted_at=t,
                    deadline=(t + budget) if budget is not None else None,
                )
                gateway.note_submit(req)
                if req.klass == "write":
                    resp = gateway.stage_write(req, now())
                    if resp is not None:
                        responses.append(resp)
                    continue
                with inflight_lock:
                    depth = inflight[0]
                    gateway.observe_queue_depth("read", depth)
                    if depth >= policy.read_queue_limit:
                        responses.append(gateway.shed(req, now()))
                        continue
                    inflight[0] += 1
                try:
                    t_serve = now()
                    if req.deadline is not None and t_serve > req.deadline:
                        responses.append(gateway.expire(req, t_serve))
                    else:
                        responses.append(gateway.serve_read(req, t_serve))
                finally:
                    with inflight_lock:
                        inflight[0] -= 1

        shards: List[List[Request]] = [[] for _ in range(self.num_threads)]
        for i, req in enumerate(requests):
            shards[i % self.num_threads].append(req)
        committer = threading.Thread(target=commit_loop, name="gw-commit")
        committer.start()
        clients = [
            threading.Thread(
                target=client_loop, args=(shard,), name=f"gw-client-{i}"
            )
            for i, shard in enumerate(shards)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        stop.set()
        committer.join()
        result.makespan = now()
        return result
