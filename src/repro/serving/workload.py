"""Deterministic multi-client workload generation for the gateway.

A :class:`WorkloadSpec` describes a mixed read/write request stream:

* **open-loop** arrivals — exponential inter-arrival times at ``rate``
  requests/second, the classic offered-load model (clients do not wait
  for responses, so staged writes can build up and be shed);
* **closed-loop** arrivals — ``clients`` logical clients that each
  submit, think for ``think_seconds``, and submit again (load is
  self-limiting at ``clients / (service + think)``).

Generation is a pure function of the spec (seeded
:func:`~repro.utils.rng.make_rng`), so every driver run — and the
serial replay the equivalence gate compares against — sees the
identical request sequence.  Writes deliberately include a small fraction of
deletes/reweights of edges that may be absent, exercising the gateway's
``rejected`` path; reads draw uniformly from the four read kinds over
random vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dynamic.updates import EdgeUpdate
from repro.errors import UpdateError
from repro.serving.requests import READ_KINDS, Request
from repro.utils.rng import make_rng

__all__ = ["WorkloadSpec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One reproducible mixed read/write request stream."""

    num_requests: int = 500
    #: Fraction of requests that are reads (the rest are writes).
    read_fraction: float = 0.9
    #: ``"open"`` (Poisson arrivals at ``rate``/s) or ``"closed"``.
    arrival: str = "open"
    #: Offered load in requests/second (open-loop only).
    rate: float = 2000.0
    #: Logical clients (closed-loop only).
    clients: int = 8
    #: Per-client think time between requests (closed-loop only).
    think_seconds: float = 0.002
    #: Fraction of writes that are deletes (may target absent edges).
    delete_fraction: float = 0.15
    #: Fraction of writes that are reweights (may target absent edges).
    reweight_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in ("open", "closed"):
            raise UpdateError(
                f"arrival must be 'open' or 'closed', got {self.arrival!r}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise UpdateError("read_fraction must be in [0, 1]")
        if self.num_requests < 0:
            raise UpdateError("num_requests must be >= 0")
        if self.arrival == "open" and self.rate <= 0:
            raise UpdateError("open-loop rate must be positive")
        if self.arrival == "closed" and self.clients < 1:
            raise UpdateError("closed-loop needs >= 1 client")

    # ------------------------------------------------------------------ #

    def _arrival_times(self, rng) -> List[float]:
        if self.arrival == "open":
            gaps = rng.exponential(1.0 / self.rate, size=self.num_requests)
            times, now = [], 0.0
            for gap in gaps:
                now += float(gap)
                times.append(now)
            return times
        # Closed loop: round-robin clients, each pacing itself.  The
        # driver still treats these as scheduled arrivals — think time
        # models the client-side gap, which is what bounds offered load.
        per_client = [0.0] * self.clients
        times = []
        for i in range(self.num_requests):
            c = i % self.clients
            jitter = float(rng.exponential(self.think_seconds or 1e-4))
            per_client[c] += jitter
            times.append(per_client[c])
        return sorted(times)

    def generate(self, num_vertices: int) -> List[Request]:
        """The request stream for a graph of ``num_vertices`` vertices.

        Returned in arrival order with ``submitted_at`` stamped in
        workload seconds; the threaded driver scales them by its
        ``time_scale`` into wall-clock submission offsets.
        """
        if num_vertices < 2:
            raise UpdateError("workload needs a graph with >= 2 vertices")
        rng = make_rng(self.seed)
        times = self._arrival_times(rng)
        requests: List[Request] = []
        for i, at in enumerate(times):
            if rng.random() < self.read_fraction:
                kind = READ_KINDS[int(rng.integers(0, len(READ_KINDS)))]
                if kind == "cluster_of":
                    args = (int(rng.integers(0, num_vertices)),)
                elif kind == "same":
                    args = (
                        int(rng.integers(0, num_vertices)),
                        int(rng.integers(0, num_vertices)),
                    )
                elif kind == "members":
                    args = (int(rng.integers(0, num_vertices)),)
                else:
                    args = ()
                requests.append(Request.read(i, kind, *args, submitted_at=at))
            else:
                u = int(rng.integers(0, num_vertices))
                v = int(rng.integers(0, num_vertices))
                if u == v:
                    v = (v + 1) % num_vertices
                roll = rng.random()
                if roll < self.delete_fraction:
                    upd = EdgeUpdate("delete", u, v)
                elif roll < self.delete_fraction + self.reweight_fraction:
                    upd = EdgeUpdate(
                        "reweight", u, v, float(rng.uniform(0.5, 2.0))
                    )
                else:
                    upd = EdgeUpdate(
                        "insert", u, v, float(rng.uniform(0.5, 1.5))
                    )
                requests.append(Request.write(i, upd, submitted_at=at))
        return requests

    def describe(self) -> dict:
        return {
            "num_requests": self.num_requests,
            "read_fraction": self.read_fraction,
            "arrival": self.arrival,
            "rate": self.rate if self.arrival == "open" else None,
            "clients": self.clients,
            "think_seconds": self.think_seconds,
            "seed": self.seed,
        }
