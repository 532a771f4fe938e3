"""repro.api — the frozen public surface and its drift gate.

This module is the single stable import point for downstream users::

    from repro.api import cluster, ClusteringConfig, RunOptions, ServingGateway

Everything exported here (the explicit ``__all__``) changes only on
purpose: a name is removed or a signature changed only together with the
snapshot that records it.  The enforcement mechanism is a
committed snapshot, ``benchmarks/api_surface.json``: :func:`surface`
introspects every exported name into ``{name: {kind, signature}}`` and
``python -m repro.api --check`` (the ``make api-check`` target) fails
when the live surface no longer matches the snapshot.  An intentional
surface change regenerates the snapshot with ``python -m repro.api
--write`` — the diff then shows up in review as a file change, not as a
silent break.

The facade deliberately re-exports from one flat namespace: the
deep module layout (``repro.core``, ``repro.dynamic``, ``repro.serving``)
is an implementation detail free to shift between releases.
"""

from __future__ import annotations

import inspect
import json
from typing import Dict

from repro import (
    CSRGraph,
    ClusterResult,
    ClusteringConfig,
    CostLedger,
    Frontier,
    Machine,
    Mode,
    Objective,
    RunOptions,
    RunSupervisor,
    SimulatedScheduler,
    __version__,
    cluster,
    correlation_clustering,
    graph_from_edges,
    karate_club_graph,
    modularity_clustering,
)
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.errors import (
    ConfigError,
    GraphFormatError,
    ReproError,
    ServerClosedError,
    UpdateError,
)
from repro.serving import (
    GatewayPolicy,
    LabelEpoch,
    Request,
    Response,
    ServingGateway,
    ThreadedDriver,
    WorkloadSpec,
    replay_digests,
)

#: Default location of the committed surface snapshot, relative to the
#: repository root (where ``make api-check`` runs).
SNAPSHOT_PATH = "benchmarks/api_surface.json"

__all__ = [
    # clustering core
    "CSRGraph",
    "ClusterResult",
    "ClusteringConfig",
    "Frontier",
    "Mode",
    "Objective",
    "RunOptions",
    "cluster",
    "correlation_clustering",
    "modularity_clustering",
    "graph_from_edges",
    "karate_club_graph",
    # simulated runtime
    "CostLedger",
    "Machine",
    "SimulatedScheduler",
    # supervision
    "RunSupervisor",
    # dynamic clustering
    "DriftGuard",
    "DynamicClusterer",
    "EdgeUpdate",
    "UpdateBatch",
    # serving gateway
    "GatewayPolicy",
    "LabelEpoch",
    "Request",
    "Response",
    "ServingGateway",
    "ThreadedDriver",
    "WorkloadSpec",
    "replay_digests",
    # errors
    "ConfigError",
    "GraphFormatError",
    "ReproError",
    "ServerClosedError",
    "UpdateError",
    # metadata
    "__version__",
]


def _kind(obj) -> str:
    if inspect.isclass(obj):
        if issubclass(obj, BaseException):
            return "exception"
        return "class"
    if inspect.isfunction(obj):
        return "function"
    return "value"


def _signature(obj) -> str:
    """A stable one-line signature; empty for plain values."""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def surface() -> Dict[str, dict]:
    """The live surface: ``{name: {"kind": ..., "signature": ...}}``.

    For classes the signature is the constructor's (how users call it);
    exceptions and plain values get no signature.  The mapping is what
    gets snapshotted and diffed — adding a keyword with a default shows
    up as a signature change and requires a deliberate ``--write``.
    """
    out: Dict[str, dict] = {}
    module = globals()
    for name in sorted(__all__):
        if name == "__version__":
            out[name] = {"kind": "value", "signature": ""}
            continue
        obj = module[name]
        kind = _kind(obj)
        sig = "" if kind in ("exception", "value") else _signature(obj)
        out[name] = {"kind": kind, "signature": sig}
    return out


def diff_surface(snapshot: Dict[str, dict]) -> list:
    """Human-readable drift lines between ``snapshot`` and the live surface."""
    live = surface()
    issues = []
    for name in sorted(set(snapshot) | set(live)):
        if name not in live:
            issues.append(f"removed: {name} (was {snapshot[name]['kind']})")
        elif name not in snapshot:
            issues.append(f"added: {name} ({live[name]['kind']}) — run --write")
        elif snapshot[name] != live[name]:
            issues.append(
                f"changed: {name}: {snapshot[name]['signature']!r} "
                f"-> {live[name]['signature']!r}"
            )
    return issues


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="Check or regenerate the public-API surface snapshot",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the snapshot from the live surface",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when the live surface drifted (the default)",
    )
    parser.add_argument("--path", default=SNAPSHOT_PATH)
    args = parser.parse_args(argv)

    if args.write:
        payload = {"schema": "repro.api/v1", "surface": surface()}
        with open(args.path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.path} ({len(payload['surface'])} names)")
        return 0

    try:
        with open(args.path) as handle:
            snapshot = json.load(handle)["surface"]
    except FileNotFoundError:
        print(f"no snapshot at {args.path}; run with --write first")
        return 1
    issues = diff_surface(snapshot)
    if issues:
        print(f"API surface drifted from {args.path}:")
        for line in issues:
            print(f"  {line}")
        print("intentional? regenerate with: python -m repro.api --write")
        return 1
    print(f"API surface matches {args.path} ({len(snapshot)} names)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
