"""Scripted serving sessions over the gateway (``repro serve --script``).

A script drives one :class:`~repro.serving.gateway.ServingGateway`
command by command and yields one output line per command: floats are
printed with ``%.9g`` and wall-clock numbers are excluded, so a
session's transcript is reproducible bit-for-bit across machines.
Script grammar, one command per line (blank lines and ``#`` comments
skipped)::

    get U                # cluster_of(U)
    same U V             # are U and V co-clustered right now?
    members C            # member vertex ids of cluster C
    stats                # clusterer summary (deterministic subset)
    insert U V [W]       # stage an edge update (default weight 1)
    delete U V
    reweight U V W
    commit               # commit the staged updates as one batch
    save                 # rotate a snapshot into the session's SnapshotStore
    audit                # StateAuditor over the live state

Reads answer from the published label epoch, edge updates are staged
writes, and ``commit`` runs one gateway commit cycle.  A write the
gateway rejects (delete or reweight of an absent edge) fails the script
at its ``commit`` line, after the valid writes of that cycle committed.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional

from repro.dynamic.clusterer import UpdateReport
from repro.dynamic.snapshot import SnapshotStore
from repro.dynamic.updates import EdgeUpdate
from repro.errors import UpdateError
from repro.serving.gateway import ServingGateway
from repro.serving.requests import Request

__all__ = ["commit_staged", "run_session"]

#: Keys of :meth:`DynamicClusterer.stats` included in ``stats`` output —
#: the deterministic subset (no wall/sim seconds).
STATS_KEYS = (
    "num_vertices",
    "num_edges",
    "num_clusters",
    "f_objective",
    "batches_applied",
    "moves_applied",
    "escalations",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def commit_staged(gateway: ServingGateway, now: float) -> Optional[UpdateReport]:
    """Run one commit cycle; raise :class:`UpdateError` on a rejected write.

    Returns the committed batch's report, or ``None`` when nothing was
    staged.
    """
    responses = gateway.commit(now)
    for resp in responses:
        if resp.status == "rejected":
            raise UpdateError(resp.error)
    return gateway.committed[-1]["report"] if responses else None


def run_session(
    gateway: ServingGateway,
    script: Iterable[str],
    store: Optional[SnapshotStore] = None,
) -> List[str]:
    """Execute a session script; returns one output line per command."""
    out: List[str] = []
    start = time.perf_counter()
    for lineno, raw in enumerate(script, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cmd, *args = line.split()
        try:
            out.append(
                _dispatch(
                    gateway, store, cmd, args, lineno, time.perf_counter() - start
                )
            )
        except UpdateError as exc:
            raise UpdateError(f"serve script line {lineno} ({line!r}): {exc}") from exc
    if gateway.staged_count:
        out.append(f"warning: {gateway.staged_count} staged updates never committed")
    return out


def _read(gateway: ServingGateway, rid: int, now: float, kind: str, *args: int):
    request = Request.read(rid, kind, *args, submitted_at=now)
    gateway.note_submit(request)
    return gateway.serve_read(request, now).value


def _dispatch(
    gateway: ServingGateway,
    store: Optional[SnapshotStore],
    cmd: str,
    args: List[str],
    rid: int,
    now: float,
) -> str:
    if cmd == "get":
        (u,) = _ints(cmd, args, 1)
        return f"cluster_of({u}) = {_read(gateway, rid, now, 'cluster_of', u)}"
    if cmd == "same":
        u, v = _ints(cmd, args, 2)
        same = _read(gateway, rid, now, "same", u, v)
        return f"same({u}, {v}) = {'true' if same else 'false'}"
    if cmd == "members":
        (c,) = _ints(cmd, args, 1)
        ids = ",".join(str(x) for x in _read(gateway, rid, now, "members", c))
        return f"members({c}) = [{ids}]"
    if cmd == "stats":
        stats = gateway.stats()["clusterer"]
        body = " ".join(f"{key}={_fmt(stats[key])}" for key in STATS_KEYS)
        return f"stats: {body}"
    if cmd in ("insert", "delete", "reweight"):
        update = _parse_update(cmd, args)
        request = Request.write(rid, update, submitted_at=now)
        gateway.note_submit(request)
        if gateway.stage_write(request, now) is not None:
            raise UpdateError(
                f"write queue full ({gateway.policy.write_queue_limit} staged); "
                "commit first"
            )
        suffix = "" if cmd == "delete" else f" w={_fmt(update.weight)}"
        return f"staged {cmd} ({update.u}, {update.v}){suffix}"
    if cmd == "commit":
        if args:
            raise UpdateError("commit takes no arguments")
        report = commit_staged(gateway, now)
        if report is None:
            return "commit: nothing staged"
        line = (
            f"commit[{report.batch_index}]: updates={report.num_updates} "
            f"seed={report.seed_size} rounds={report.iterations} "
            f"moves={report.moves} f={_fmt(report.f_objective)}"
        )
        if report.escalated:
            line += f" escalated={report.escalated}"
        return line
    if cmd == "save":
        if store is None:
            raise UpdateError("save requires a snapshot store (--snapshot-dir)")
        return f"saved {gateway.save(store).name}"
    if cmd == "audit":
        issues = gateway.audit()
        if not issues:
            return "audit: clean"
        return f"audit: {len(issues)} issues: " + "; ".join(issues)
    raise UpdateError(f"unknown serve command {cmd!r}")


def _ints(cmd: str, args: List[str], count: int) -> List[int]:
    if len(args) != count:
        raise UpdateError(f"{cmd} takes {count} argument(s), got {len(args)}")
    try:
        return [int(a) for a in args]
    except ValueError as exc:
        raise UpdateError(f"{cmd}: {exc}") from None


def _parse_update(cmd: str, args: List[str]) -> EdgeUpdate:
    if cmd == "insert":
        if len(args) not in (2, 3):
            raise UpdateError("insert takes U V [W]")
        weight = float(args[2]) if len(args) == 3 else 1.0
    elif cmd == "delete":
        if len(args) != 2:
            raise UpdateError("delete takes U V")
        weight = 1.0
    else:
        if len(args) != 3:
            raise UpdateError("reweight takes U V W")
        weight = float(args[2])
    try:
        u, v = int(args[0]), int(args[1])
    except ValueError as exc:
        raise UpdateError(f"{cmd}: {exc}") from None
    return EdgeUpdate(cmd, u, v, weight)
