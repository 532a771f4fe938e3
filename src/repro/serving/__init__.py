"""Multi-client serving gateway over the dynamic clusterer (DESIGN.md §14).

Layers, bottom up:

* :mod:`repro.serving.epoch` — immutable published label snapshots
  (:class:`LabelEpoch`): the snapshot-isolation mechanism;
* :mod:`repro.serving.requests` — the request/response vocabulary and
  the terminal statuses (ok/shed/rejected);
* :mod:`repro.serving.gateway` — :class:`ServingGateway`, the one
  serving front: write coalescing, commit-time validation, write
  admission, accounting, save/audit/close, and the committed-batch log
  the equivalence gate replays;
* :mod:`repro.serving.drivers` — the real-thread driver: client
  threads that serve their reads at once, plus one commit thread, on
  the wall clock;
* :mod:`repro.serving.workload` — seeded mixed read/write workload
  generation (open/closed-loop arrivals).
"""

from repro.serving.drivers import DriverResult, ThreadedDriver
from repro.serving.epoch import LabelEpoch, label_digest
from repro.serving.gateway import GatewayPolicy, ServingGateway, replay_digests
from repro.serving.requests import Request, Response
from repro.serving.workload import WorkloadSpec

__all__ = [
    "DriverResult",
    "GatewayPolicy",
    "LabelEpoch",
    "Request",
    "Response",
    "ServingGateway",
    "ThreadedDriver",
    "WorkloadSpec",
    "label_digest",
    "replay_digests",
]
