"""Request/response vocabulary of the serving gateway (DESIGN.md §14).

A :class:`Request` is one client operation: a **read** (``cluster_of`` /
``same`` / ``members`` / ``stats`` — answered against an immutable
:class:`~repro.serving.epoch.LabelEpoch`, never blocking on writes) or a
**write** (one staged :class:`~repro.dynamic.updates.EdgeUpdate` —
coalesced with every other staged write into one
:class:`~repro.dynamic.updates.UpdateBatch` per refinement cycle).

Every submitted request produces exactly one :class:`Response` whose
``status`` says what happened to it — the no-silent-drops contract the
equivalence gate audits:

``ok``
    Served (reads) or committed (writes) — ``value``/``epoch`` hold the
    answer and the label epoch it came from.
``shed``
    A write load-shed at admission: the staged-write queue was full.
    ``retry_after`` tells the client when to try again.
``rejected``
    A write whose operation was semantically invalid against the state
    it would have committed into (delete/reweight of an absent edge);
    excluded from the coalesced batch with the error message attached.

The gateway never sheds a read: ``serve_read`` answers it at once from
the current epoch, so there is no read queue to bound.
:data:`STATUSES` also lists ``expired``, which nothing produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dynamic.updates import EdgeUpdate
from repro.errors import UpdateError

#: Read operations a request may carry.
READ_KINDS = ("cluster_of", "same", "members", "stats")

#: Request classes (one accounting row each; only writes are queued).
CLASSES = ("read", "write")

#: Terminal response statuses (every submitted request lands on one).
#: ``expired`` has no producer; it stays because the ``serve`` benchmark's
#: accounting check sums ``gateway.stats()`` over all four keys.
STATUSES = ("ok", "shed", "expired", "rejected")


@dataclass(frozen=True)
class Request:
    """One client operation submitted to the gateway.

    ``submitted_at`` is on the caller's clock; latencies are measured
    from it.
    """

    request_id: int
    kind: str
    args: Tuple = ()
    update: Optional[EdgeUpdate] = None
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "update":
            if self.update is None:
                raise UpdateError("write request needs an EdgeUpdate")
        elif self.kind not in READ_KINDS:
            raise UpdateError(
                f"unknown request kind {self.kind!r}; expected one of "
                f"{READ_KINDS + ('update',)}"
            )

    @property
    def klass(self) -> str:
        """``"read"`` or ``"write"``."""
        return "write" if self.kind == "update" else "read"

    @classmethod
    def read(
        cls,
        request_id: int,
        kind: str,
        *args: int,
        submitted_at: float = 0.0,
    ) -> "Request":
        return cls(
            request_id=request_id,
            kind=kind,
            args=tuple(int(a) for a in args),
            submitted_at=submitted_at,
        )

    @classmethod
    def write(
        cls,
        request_id: int,
        update: EdgeUpdate,
        *,
        submitted_at: float = 0.0,
    ) -> "Request":
        return cls(
            request_id=request_id,
            kind="update",
            update=update,
            submitted_at=submitted_at,
        )


@dataclass
class Response:
    """The gateway's answer to one request (exactly one per submit)."""

    request_id: int
    klass: str
    status: str
    value: object = None
    #: Label epoch a read was answered from / a write was committed into.
    epoch: Optional[int] = None
    #: Latency in driver-clock seconds (terminal status - submit).
    latency: float = 0.0
    #: Back-off hint attached to ``shed`` responses.
    retry_after: Optional[float] = None
    #: Error message attached to ``rejected`` responses.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict:
        out = {
            "request_id": self.request_id,
            "class": self.klass,
            "status": self.status,
            "epoch": self.epoch,
            "latency": self.latency,
        }
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        if self.error is not None:
            out["error"] = self.error
        return out
