"""Simulated work-stealing scheduler: machine model and cost ledger.

Why simulation
--------------
The paper's performance results come from a C++ work-stealing runtime on
30/48-core machines.  In CPython the GIL serializes shared-memory threads,
so instead of timing Python threads (which would measure the GIL, not the
algorithms) every parallel primitive in this package *charges* its abstract
cost to a :class:`CostLedger`:

* ``work``   — total number of elementary operations across all workers;
* ``depth``  — operations on the critical path (span);
* ``serial`` — operations that cannot parallelize at any worker count,
  chiefly queueing of atomic compare-and-swap updates on hot locations
  (e.g. the cluster-weight counter of a giant cluster — the paper's
  "twitter contention" effect, Section 4.2).

Simulated time for ``P`` workers is then the Brent-style bound

    T(P) = sum over regions [ work / eff(P) + depth * (1 + tau) + serial ]

with ``eff(P)`` a hyper-threading-aware effective parallelism and ``tau``
the per-depth-level scheduling overhead.  Speedup *shapes* — saturation at
the physical core count, the hyper-threading knee, contention collapse when
few clusters absorb most vertices — are properties of the (work, depth,
serial) profile the algorithms generate, which is exactly what the paper's
algorithmic contributions change.

Instrumented runs also draw per-worker lanes (:class:`WorkerTimeline`),
a view of the same ledger laid once per round at
:meth:`SimulatedScheduler.round_barrier`; charging a region never
touches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import SchedulerError

#: Default per-depth-level scheduling overhead (steal attempts, fork/join),
#: in elementary-operation units per unit of depth.  Work-stealing
#: schedulers bound overhead by O(P * D) steals total, i.e. a small
#: constant per depth unit per worker on the critical path.
DEFAULT_TAU = 3.0

#: Cost, in elementary operations, of one serialized compare-and-swap on a
#: *contended* location: a failed/retried RMW forces a cross-core
#: cache-line transfer, ~60-100 cycles on the paper's Xeon-class parts.
CAS_COST = 64.0


def contention_cost(retries, longest):
    """``(work, serial)`` of ``retries`` CAS retries queued at most
    ``longest`` deep: :data:`CAS_COST` of work per retry, and per slot of
    the longest queue on the critical path.  Scalars or arrays."""
    return CAS_COST * retries, CAS_COST * longest


#: Simulated core frequency used to convert operation counts to seconds.
#: One elementary operation ~ one cycle at 2 GHz; only relative times matter.
OPS_PER_SECOND = 2.0e9

#: Smallest chunk of work (elementary ops) worth forking to another
#: simulated worker; a round of less than ``active * TIMELINE_GRAIN`` ops
#: of work stays on fewer lanes, which is what makes small rounds render
#: as stragglers.
TIMELINE_GRAIN = 256.0

#: Backstop on recorded worker chunks per run: long runs truncate the
#: timeline (flagged via a trace event) instead of exhausting memory.
MAX_WORKER_CHUNKS = 250_000


class WorkerTimeline:
    """Per-worker simulated-time lanes for one instrumented run.

    The cost ledger answers *how long*; the timeline answers *who was busy
    when*.  It is a view of the ledger, laid once per round: at each
    :meth:`SimulatedScheduler.round_barrier`, :meth:`lay` takes the ledger
    rows charged since the previous barrier, with ``W`` their work and
    ``C`` their critical path, the sum of ``depth * (1 + tau) + serial``.
    The round spreads over ``active = clamp(W // TIMELINE_GRAIN, 1, P)``
    lanes that all start at the session clock.  Each is busy
    ``W / active`` ops and lane 0 also carries ``C``, so stragglers and
    CAS queues show up as a busy lane 0; the clock then moves to lane 0's
    end.  A round's lanes are therefore busy ``(W + C) / OPS_PER_SECOND``
    seconds in all, its Brent-bound terms at one worker per lane.

    Each busy lane sends one ``worker`` trace record per round to the
    attached :class:`~repro.obs.instrument.Instrumentation`:
    ``(worker, start, end, label, items, wait)``, where ``items`` is the
    lane's part of the round's vertex count (split as evenly as integers
    allow) and ``wait`` the lane's idle time since its own last chunk.

    An enabled instrumentation holds one timeline for its whole session
    (see :meth:`of`), so the schedulers of a bootstrap run and of each
    later update batch continue the same clock instead of overlapping
    their lanes, and :data:`MAX_WORKER_CHUNKS` bounds the session.
    """

    __slots__ = ("instr", "num_workers", "tau", "clock", "ends", "chunks",
                 "truncated")

    def __init__(self, instr, num_workers: int, tau: float) -> None:
        self.instr = instr
        self.num_workers = num_workers
        self.tau = tau
        #: Where the latest round ended, simulated seconds since session
        #: start; the next round's lanes start here.
        self.clock = 0.0
        #: Where each lane's last chunk ended.
        self.ends = [0.0] * num_workers
        self.chunks = 0
        self.truncated = False

    @classmethod
    def of(cls, instr, num_workers: int, tau: float) -> "WorkerTimeline":
        """The lanes of ``instr``'s session for ``num_workers`` workers.

        A timeline with the same worker count and ``tau`` is continued;
        otherwise a new one replaces it, starting every lane at the old
        timeline's clock and keeping its chunk count.
        """
        timeline = instr.timeline
        if (
            timeline is not None
            and timeline.num_workers == num_workers
            and timeline.tau == tau
        ):
            return timeline
        fresh = cls(instr, num_workers, tau)
        if timeline is not None:
            fresh.clock = timeline.clock
            fresh.ends = [timeline.clock] * num_workers
            fresh.chunks = timeline.chunks
            fresh.truncated = timeline.truncated
        instr.timeline = fresh
        return fresh

    def lay(self, rows, label: str, items: int) -> None:
        """Record one ``label`` chunk per busy lane for the ledger ``rows``
        of one round, which covered ``items`` vertices (see the class
        docstring)."""
        if self.truncated:
            return
        work = critical = 0.0
        scale = 1.0 + self.tau
        for _, w, d, s in rows:
            work += w
            critical += d * scale + s
        if work + critical <= 0.0:
            return
        active = max(1, min(self.num_workers, int(work // TIMELINE_GRAIN)))
        share = (work / active) / OPS_PER_SECOND
        start = self.clock
        for lane in range(active):
            if self.chunks >= MAX_WORKER_CHUNKS:
                self.truncated = True
                self.instr.event("worker-timeline-truncated", chunks=self.chunks)
                return
            end = start + share
            if lane == 0:
                end += critical / OPS_PER_SECOND
                self.clock = end
            self.instr.worker_chunk(
                lane, start, end, label,
                (items * (lane + 1)) // active - (items * lane) // active,
                start - self.ends[lane],
            )
            self.ends[lane] = end
            self.chunks += 1


@dataclass(frozen=True)
class Machine:
    """A machine profile: physical cores and SMT (hyper-threading) lanes.

    ``c2-standard-60()`` and ``m1-megamem-96()`` mirror the two Google Cloud
    instances used in the paper's evaluation.
    """

    cores: int = 30
    smt: int = 2
    #: Aggregate throughput gain of fully-loaded SMT over one thread/core.
    smt_yield: float = 0.35

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SchedulerError(f"cores must be >= 1, got {self.cores}")
        if self.smt < 1:
            raise SchedulerError(f"smt must be >= 1, got {self.smt}")

    @property
    def max_workers(self) -> int:
        """Hardware thread count (cores times SMT ways)."""
        return self.cores * self.smt

    def effective_parallelism(self, num_workers: int) -> float:
        """Throughput-equivalent worker count for ``num_workers`` threads.

        Up to the physical core count each worker contributes fully; beyond
        it, each extra hyper-thread contributes ``smt_yield`` of a core.
        This produces the characteristic knee at ``cores`` seen in the
        paper's thread-scaling plots (Figures 7 and 13).
        """
        if num_workers < 1:
            raise SchedulerError(f"num_workers must be >= 1, got {num_workers}")
        capped = min(num_workers, self.max_workers)
        if capped <= self.cores:
            return float(capped)
        return self.cores + self.smt_yield * (capped - self.cores)

    @staticmethod
    def c2_standard_60() -> "Machine":
        """30 cores, two-way hyper-threading (paper's main machine)."""
        return Machine(cores=30, smt=2)

    @staticmethod
    def m1_megamem_96() -> "Machine":
        """48 cores, two-way hyper-threading (paper's large-graph machine)."""
        return Machine(cores=48, smt=2)


@dataclass
class Region:
    """Cost of one parallel region (one primitive invocation)."""

    label: str
    work: float
    depth: float
    serial: float = 0.0

    def __post_init__(self) -> None:
        if self.work < 0 or self.depth < 0 or self.serial < 0:
            _negative(self.label, self.work, self.depth, self.serial)


def _negative(label: str, work: float, depth: float, serial: float) -> None:
    raise SchedulerError(
        f"region costs must be non-negative: {label!r} "
        f"work={work} depth={depth} serial={serial}"
    )


def _validated_rows(labels, work, depth, serial) -> list:
    """``(label, work, depth, serial)`` rows of these columns; raises on
    the first region with a negative cost."""
    costs = np.array((work, depth, serial), dtype=np.float64)
    negative = (costs < 0).any(axis=0)
    if negative.any():
        i = int(negative.argmax())
        _negative(labels[i], *costs[:, i].tolist())
    return list(zip(labels, *costs.tolist()))


class CostLedger:
    """Accumulates per-region (work, depth, serial) charges.

    The ledger is intentionally decoupled from any particular worker count:
    an algorithm runs once, and :meth:`simulated_time` can then be evaluated
    for *any* ``P`` — which is how the thread-scaling figures are produced
    without rerunning the clustering per thread count.

    Regions are kept as ``(label, work, depth, serial)`` rows, and
    :meth:`regions` builds :class:`Region` objects from them on demand.
    :meth:`charge` appends one region.  :meth:`charge_later` places
    regions whose costs are cheaper to compute for many calls at once (a
    BEST-MOVES round's): they are built when the ledger is next read,
    together with every other call still pending, and take their place in
    charge order.  The totals add the regions one at a time in that
    order, so they carry the same bits however the regions were charged.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[str, float, float, float]] = []
        #: ``(row position, build, args)`` of each pending charge_later.
        self._pending: List[Tuple[int, Callable, object]] = []
        self._summed = 0
        self._totals: Dict[str, float] = {"work": 0.0, "depth": 0.0, "serial": 0.0}

    def charge(
        self,
        work: float,
        depth: float,
        label: str = "",
        serial: float = 0.0,
    ) -> None:
        """Record one parallel region's cost."""
        work, depth, serial = float(work), float(depth), float(serial)
        if work < 0 or depth < 0 or serial < 0:
            _negative(label, work, depth, serial)
        self._rows.append((label, work, depth, serial))

    def charge_later(self, build: Callable, args) -> None:
        """Record, at this point of the ledger, the regions ``build`` makes
        of ``args``.

        ``build`` takes a list of such ``args`` and returns, for each, its
        ``(labels, work, depth, serial)`` columns; the ledger calls it once
        for all the calls with the same ``build`` that are pending when
        its regions or totals are next read.  A negative cost raises then.
        """
        self._pending.append((len(self._rows), build, args))

    def _settle(self) -> List[Tuple[str, float, float, float]]:
        """Build the pending regions into place and bring the totals up
        to date; returns every row."""
        rows = self._rows
        pending = self._pending
        if pending:
            self._pending = []
            groups: Dict[Callable, list] = {}
            for index, (_, build, args) in enumerate(pending):
                groups.setdefault(build, []).append((index, args))
            built = [None] * len(pending)
            for build, calls in groups.items():
                columns = build([args for _, args in calls])
                for (index, _), call_columns in zip(calls, columns):
                    built[index] = _validated_rows(*call_columns)
            # Back to front, so the positions of earlier charges hold.
            for (position, _, _), regions in zip(reversed(pending), reversed(built)):
                rows[position:position] = regions
        if self._summed < len(rows):
            totals = self._totals
            work, depth, serial = totals["work"], totals["depth"], totals["serial"]
            for _, w, d, s in rows[self._summed:]:
                work += w
                depth += d
                serial += s
            totals["work"], totals["depth"], totals["serial"] = work, depth, serial
            self._summed = len(rows)
        return rows

    @property
    def total_work(self) -> float:
        self._settle()
        return self._totals["work"]

    @property
    def total_depth(self) -> float:
        self._settle()
        return self._totals["depth"]

    @property
    def total_serial(self) -> float:
        self._settle()
        return self._totals["serial"]

    @property
    def num_regions(self) -> int:
        return len(self._settle())

    def regions(self) -> Iterator[Region]:
        return (Region(*row) for row in self._settle())

    def rows(self, start: int = 0) -> List[Tuple[str, float, float, float]]:
        """The ``(label, work, depth, serial)`` rows from charge position
        ``start`` on, every pending region built."""
        return self._settle()[start:]

    def work_by_label(self) -> Dict[str, float]:
        """Total work grouped by region label (for profiling benches)."""
        out: Dict[str, float] = {}
        for label, work, _, _ in self._settle():
            out[label] = out.get(label, 0.0) + work
        return out

    def simulated_time(
        self,
        num_workers: int,
        machine: Optional[Machine] = None,
        tau: float = DEFAULT_TAU,
    ) -> float:
        """Simulated seconds to execute all charged regions on ``P`` workers.

        Applies the Brent bound per region; with ``num_workers == 1`` the
        depth and serial terms fold into the work term (a sequential run
        pays no scheduling overhead), matching how the paper's sequential
        baselines are plain loops with no runtime.
        """
        machine = machine or Machine.c2_standard_60()
        if num_workers == 1:
            ops = self.total_work + self.total_serial
            return ops / OPS_PER_SECOND
        eff = machine.effective_parallelism(num_workers)
        ops = (
            self.total_work / eff
            + self.total_depth * (1.0 + tau)
            + self.total_serial
        )
        return ops / OPS_PER_SECOND

    def snapshot(self) -> Dict[str, float]:
        """Totals as a plain dict (stable API for result records)."""
        self._settle()
        return dict(self._totals)

    def profile(self, top: int = 10) -> List[tuple]:
        """Top regions by work: ``(label, work, share_of_total_work)``.

        The profiling view benches use to attribute simulated time to
        algorithm phases (best moves vs compression vs frontier vs CAS
        contention).
        """
        by_label = self.work_by_label()
        total = self.total_work or 1.0
        ranked = sorted(by_label.items(), key=lambda kv: -kv[1])[:top]
        return [(label, work, work / total) for label, work in ranked]


class SimulatedScheduler:
    """Facade bundling a machine profile, worker count, and cost ledger.

    One scheduler is created per clustering run; primitives receive it (or
    ``None`` to skip accounting) and call :meth:`charge`.
    """

    def __init__(
        self,
        num_workers: int = 60,
        machine: Optional[Machine] = None,
        tau: float = DEFAULT_TAU,
        faults=None,
        instr=None,
    ) -> None:
        self.machine = machine or Machine.c2_standard_60()
        if num_workers < 1:
            raise SchedulerError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.tau = tau
        self.ledger = CostLedger()
        #: Optional :class:`repro.resilience.faults.FaultPlan`; primitives
        #: that take a scheduler consult it to inject concurrency hazards.
        self.faults = faults
        #: Optional :class:`repro.obs.instrument.Instrumentation`; rides the
        #: scheduler for the same reason ``faults`` does — everything that
        #: can charge costs can also trace/record (see ``instr_of``).
        self.instr = instr
        #: Per-worker lane recorder, shared by every scheduler of one
        #: *enabled* instrumentation; uninstrumented runs pay one
        #: ``is None`` check per round.
        self._timeline = (
            WorkerTimeline.of(instr, num_workers, tau)
            if instr is not None and instr.enabled
            else None
        )
        #: Ledger rows already laid onto the lanes.
        self._laid = 0

    def charge(
        self,
        work: float,
        depth: float,
        label: str = "",
        serial: float = 0.0,
    ) -> None:
        """Record one parallel region's cost (:meth:`CostLedger.charge`)."""
        self.ledger.charge(work, depth, label=label, serial=serial)

    def round_barrier(self, label: str = "round", items: int = 0) -> None:
        """Join all simulated workers — engines call this at round ends.

        A BEST-MOVES round ends in a frontier computation every worker
        feeds, so lanes synchronize.  With instrumentation enabled, the
        ledger rows charged since the last barrier are laid onto the lanes
        as one ``label`` chunk per busy lane (:meth:`WorkerTimeline.lay`),
        ``items`` being the round's vertex count.  A run calls it once
        more at its end for the rows charged after its last round.
        Without enabled instrumentation it is one attribute check, and the
        ledger settles only when it is read.
        """
        timeline = self._timeline
        if timeline is not None:
            rows = self.ledger.rows(self._laid)
            self._laid += len(rows)
            timeline.lay(rows, label, items)

    def charge_cas_contention(
        self, total_retries: int, max_queue: int, label: str = "cas"
    ) -> None:
        """Charge contention for concurrent CAS updates to shared counters.

        A location hit by ``q`` concurrent CASes in one concurrency window
        serializes: the first succeeds, the rest retry.  ``total_retries``
        is the window's sum of ``q - 1`` over its locations (updates minus
        distinct locations), charged as work; ``max_queue`` is its longest
        queue, charged on the critical path.  A window with no retries is
        free.
        """
        if total_retries > 0:
            work, serial = contention_cost(total_retries, max_queue)
            self.charge(work=work, depth=0.0, label=label, serial=serial)
            instr = self.instr
            if instr is not None and instr.enabled:
                from repro.obs.instrument import (
                    M_ATOMIC_QUEUE,
                    M_CAS_INJECTED,
                    M_CAS_RETRIES,
                )

                name = (
                    M_CAS_INJECTED if label.endswith("-injected-cas")
                    else M_CAS_RETRIES
                )
                instr.count(name, float(total_retries))
                instr.observe(M_ATOMIC_QUEUE, float(max_queue))

    def simulated_time(self, num_workers: Optional[int] = None) -> float:
        """Simulated seconds at ``num_workers`` (default: this scheduler's)."""
        workers = self.num_workers if num_workers is None else num_workers
        return self.ledger.simulated_time(workers, machine=self.machine, tau=self.tau)
