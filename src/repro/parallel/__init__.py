"""Simulated shared-memory parallel runtime.

The paper runs on 30- and 48-core machines with a work-stealing scheduler
(ParlayLib/GBBS).  CPython's GIL rules out genuine shared-memory parallelism,
so this package provides a *simulated* runtime instead: algorithms execute
sequentially (vectorized with numpy) while charging their parallel cost —
work, depth (span), and atomic contention — to a :class:`CostLedger`.
Simulated wall-clock for ``P`` workers follows a Brent-style bound

    T(P) = sum over regions of  work / eff(P) + depth * (1 + tau) + serial,

where ``eff(P)`` models two-way hyper-threading and ``serial`` captures
compare-and-swap queueing on hot memory locations.  DESIGN.md section 2
documents why this substitution preserves the paper's scalability *shapes*.

Components mirror the GBBS primitives the paper relies on:

* :mod:`repro.parallel.scheduler` — cost ledger + machine model;
* :mod:`repro.parallel.atomics` — CAS/fetch-add contention accounting;
* :mod:`repro.parallel.primitives` — the shared logarithmic depth term;
* :mod:`repro.parallel.sorting` — the cost model of semisort aggregation;
* :mod:`repro.parallel.vertex_subset` / :mod:`repro.parallel.edge_map` —
  GBBS's EDGEMAP with sparse/dense representation switching.
"""

from repro.parallel.atomics import contention_profile
from repro.parallel.edge_map import edge_map
from repro.parallel.scheduler import CostLedger, Machine, SimulatedScheduler
from repro.parallel.vertex_subset import VertexSubset

__all__ = [
    "CostLedger",
    "Machine",
    "SimulatedScheduler",
    "VertexSubset",
    "contention_profile",
    "edge_map",
]
