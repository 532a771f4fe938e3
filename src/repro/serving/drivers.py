"""Gateway drivers: deterministic simulated clock + real threads.

The gateway core (:mod:`repro.serving.gateway`) is synchronous and
time-free; drivers own the clock and the interleaving:

* :class:`SimulatedDriver` — a single-threaded discrete-event loop on a
  virtual clock.  Read service, commit cost, and arrival times are all
  modeled seconds, so every run is bit-reproducible: same workload +
  policy → same interleaving → same responses, shed set, and committed
  batch sequence.  Its times are a queueing model, not a measurement;
  wall-clock serving performance is measured by the ``serve`` workload
  of ``benchmarks/perf``.
* :class:`ThreadedDriver` — real client threads submitting against the
  wall clock with a single commit thread as the sole clusterer mutator.
  Snapshot isolation makes reads lock-free (one atomic epoch-reference
  read); admission counters take the gateway lock.

Both produce a :class:`DriverResult` with full per-status accounting —
the no-silent-drops invariant (every generated request has exactly one
terminal response) is asserted by :meth:`DriverResult.check_accounting`.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import UpdateError
from repro.serving.gateway import ServingGateway
from repro.serving.requests import Request, Response, STATUSES

__all__ = ["DriverResult", "SimulatedDriver", "ThreadedDriver"]


@dataclass
class DriverResult:
    """Everything one driver run produced."""

    driver: str
    responses: List[Response] = field(default_factory=list)
    #: Virtual (sim) or wall (threads) seconds from first arrival to the
    #: last event processed.
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
            "driver": self.driver,
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


# ---------------------------------------------------------------------- #
# Simulated clock
# ---------------------------------------------------------------------- #

# Event kinds, in tie-break priority at equal virtual time: reads that
# reached their start serve before a commit tick publishes a new epoch.
_EV_READ_START = 0
_EV_COMMIT = 1
_EV_ARRIVE = 2


class SimulatedDriver:
    """Deterministic discrete-event execution of one workload.

    Reads get ``policy.read_concurrency`` dedicated lanes and commits
    their own — snapshot isolation means they never wait on each other.
    """

    def run(
        self, gateway: ServingGateway, requests: Sequence[Request]
    ) -> DriverResult:
        policy = gateway.policy
        result = DriverResult(driver="sim", num_requests=len(requests))
        # Min-heap of per-lane free times (the read "server pool").
        servers = [0.0] * policy.read_concurrency
        heapq.heapify(servers)
        # The commit lane: commits never touch read lanes.
        commit_free = 0.0
        # Start times of admitted-but-not-yet-started reads (> now).
        waiting: List[float] = []
        seq = 0
        events = []
        for req in requests:
            events.append((req.submitted_at, _EV_ARRIVE, seq, req))
            seq += 1
        heapq.heapify(events)
        arrivals_left = len(requests)
        if arrivals_left:
            heapq.heappush(
                events,
                (policy.commit_interval_seconds, _EV_COMMIT, seq, None),
            )
            seq += 1
        makespan = 0.0

        while events:
            now, kind, _, payload = heapq.heappop(events)
            makespan = max(makespan, now)
            if kind == _EV_ARRIVE:
                arrivals_left -= 1
                req = payload
                gateway.note_submit(req)
                if req.klass == "write":
                    resp = gateway.stage_write(req, now)
                    if resp is not None:
                        result.responses.append(resp)
                    continue
                # Read admission: shed on queue depth, then expire on
                # deadline, then reserve a lane and schedule the start.
                while waiting and waiting[0] <= now:
                    heapq.heappop(waiting)
                gateway.observe_queue_depth("read", len(waiting))
                if len(waiting) >= policy.read_queue_limit:
                    result.responses.append(gateway.shed(req, now))
                    continue
                lane_free = heapq.heappop(servers)
                start = max(now, lane_free)
                if req.deadline is not None and start > req.deadline:
                    heapq.heappush(servers, lane_free)
                    result.responses.append(
                        gateway.expire(req, req.deadline)
                    )
                    continue
                heapq.heappush(servers, start + policy.read_service_seconds)
                heapq.heappush(waiting, start)
                heapq.heappush(events, (start, _EV_READ_START, seq, req))
                seq += 1
            elif kind == _EV_READ_START:
                # Serve against the epoch current at start; completion
                # (and latency) lands one modeled service time later.
                done = now + policy.read_service_seconds
                makespan = max(makespan, done)
                result.responses.append(gateway.serve_read(payload, done))
            else:  # _EV_COMMIT
                staged = gateway.staged_count
                if staged:
                    n = staged
                    if policy.max_batch_updates > 0:
                        n = min(n, policy.max_batch_updates)
                    start = max(now, commit_free)
                    done = start + policy.commit_cost(n)
                    commit_free = done
                    makespan = max(makespan, done)
                    result.responses.extend(gateway.commit(done))
                if arrivals_left or gateway.staged_count:
                    heapq.heappush(
                        events,
                        (
                            now + policy.commit_interval_seconds,
                            _EV_COMMIT,
                            seq,
                            None,
                        ),
                    )
                    seq += 1

        result.makespan = makespan
        return result


# ---------------------------------------------------------------------- #
# Real threads
# ---------------------------------------------------------------------- #


class ThreadedDriver:
    """Wall-clock execution: client threads + one commit thread.

    The commit thread is the *sole* clusterer mutator; client threads
    only stage writes and serve reads against published epochs, so the
    bit-identity guarantee is structural, not lock-discipline luck.
    ``time_scale`` compresses the workload's virtual arrival schedule
    (0 = submit as fast as possible).
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
        result = DriverResult(driver="threads", num_requests=len(requests))
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
