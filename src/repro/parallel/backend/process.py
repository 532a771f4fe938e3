"""Real shared-memory multiprocess execution backend.

A persistent pool of ``multiprocessing`` workers executes the two
embarrassingly-parallel phases that pay on real cores — BEST-MOVES batch
windows and sparse frontier gathers — over ``multiprocessing.shared_memory``
segments: the parent copies each level graph's CSR arrays into shared
segments once (an *epoch*), adopts the live :class:`ClusterState` arrays
into shared slabs (so ``apply_moves`` updates are visible to workers with
no per-window copy), and fans each phase out as contiguous shards over
per-worker pipes.  Workers attach every segment zero-copy as numpy views
and run the exact same kernels the inline path runs.

Bit-identity (DESIGN.md §13) holds by construction:

* move evaluation is per-vertex independent — each row's segment sums and
  argmax read only its own CSR slice plus the shared state snapshot — so
  evaluating contiguous shards and concatenating in shard order produces
  byte-for-byte the full-batch kernel's output (which is itself
  bit-identical to the dict oracle, DESIGN.md §8);
* the frontier gather is a pure elementwise gather, trivially
  shard-invariant;
* the parent performs every commit (``apply_moves``), reduction, sort,
  and aggregation itself, in the same order as the inline path.

Fault policy: a dead worker, a poisoned pipe, or a missing or full
``/dev/shm`` marks the backend *faulted* — the failed dispatch re-runs
inline, every later phase stays inline, the pool and all segments are
torn down, and one ``RuntimeWarning`` reports the degradation.  Results
are unaffected (inline is bit-identical), so a faulted run completes
instead of failing.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import time
import traceback
import warnings
import weakref
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.core.state import ClusterState
from repro.graphs.csr import CSRGraph
from repro.kernels import DEFAULT_KERNEL, get_kernel
from repro.parallel.backend import resolve_workers
from repro.parallel.primitives import ragged_gather_indices

#: Shared-segment name prefix; the leak tests scan ``/dev/shm`` for it.
SEG_PREFIX = "repro-shm"

#: Process-global segment-name sequence (see ``_new_segment``).
_SEG_SEQ = itertools.count()

#: Below this many touched elements a dispatch's IPC round-trip costs more
#: than the inline numpy call; such phases run inline (bit-identical, so
#: the threshold crossing is invisible in results).
MIN_DISPATCH_WORK = 4096


class BackendUnavailable(RuntimeError):
    """The process backend cannot start here (no shm, no start method)."""


class _WorkerFailure(RuntimeError):
    """A pool worker died or errored mid-dispatch."""


def leaked_segment_files() -> list:
    """Names of our shared segments still present under ``/dev/shm``."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(SEG_PREFIX)
        )
    except OSError:
        return []


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
class _ShmGraph:
    """CSR facade over attached segments — only what the kernels touch."""

    __slots__ = (
        "offsets",
        "neighbors",
        "weights",
        "node_weights",
        "num_vertices",
        "has_integer_weights",
    )

    def __init__(self, offsets, neighbors, weights, node_weights, n, int_w):
        self.offsets = offsets
        self.neighbors = neighbors
        self.weights = weights
        self.node_weights = node_weights
        self.num_vertices = n
        self.has_integer_weights = int_w


class _ShmState:
    """ClusterState facade over the adopted state slabs (read-only here)."""

    __slots__ = ("assignments", "cluster_weights", "cluster_sizes", "node_weights")

    def __init__(self, assignments, cluster_weights, cluster_sizes, node_weights):
        self.assignments = assignments
        self.cluster_weights = cluster_weights
        self.cluster_sizes = cluster_sizes
        self.node_weights = node_weights


class _SegmentCache:
    """Worker-side LRU of attached segments, keyed by segment name."""

    def __init__(self, cap: int = 32) -> None:
        self.cap = cap
        self._entries: OrderedDict = OrderedDict()

    def array(self, name: str, dtype, length: int) -> np.ndarray:
        entry = self._entries.get(name)
        if entry is None:
            from multiprocessing import shared_memory

            # Attaching (create=False) does not register with the resource
            # tracker on this Python — the parent is the sole owner and
            # unlinks every segment it created at close().
            shm = shared_memory.SharedMemory(name=name)
            entry = (shm, shm.buf)
            self._entries[name] = entry
            while len(self._entries) > self.cap:
                _, (old, _) = self._entries.popitem(last=False)
                old.close()
        else:
            self._entries.move_to_end(name)
        return np.ndarray((length,), dtype=dtype, buffer=entry[1])

    def close(self) -> None:
        for shm, _ in self._entries.values():
            try:
                shm.close()
            except Exception:
                pass
        self._entries.clear()


def _meta_graph(cache: _SegmentCache, meta: dict) -> _ShmGraph:
    n, m = meta["n"], meta["m"]
    return _ShmGraph(
        cache.array(meta["g_off"], np.int64, n + 1),
        cache.array(meta["g_nbr"], np.int64, m),
        cache.array(meta["g_w"], np.float64, m),
        cache.array(meta["g_nw"], np.float64, n),
        n,
        meta["int_w"],
    )


def _worker_main(worker_id: int, conn) -> None:
    cache = _SegmentCache()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "die":  # chaos injection: simulate a hard worker crash
            os._exit(17)
        try:
            t0 = time.perf_counter()
            if kind == "moves":
                _, meta, lo, hi, resolution, allow_escape, swap_avoidance, kernel = msg
                graph = _meta_graph(cache, meta)
                n = meta["n"]
                state = _ShmState(
                    cache.array(meta["s_asn"], np.int64, n),
                    cache.array(meta["s_cw"], np.float64, n),
                    cache.array(meta["s_cs"], np.int64, n),
                    graph.node_weights,
                )
                ids = cache.array(meta["ids"], np.int64, meta["ids_cap"])
                out_t = cache.array(meta["out_t"], np.int64, meta["ids_cap"])
                out_g = cache.array(meta["out_g"], np.float64, meta["ids_cap"])
                targets, gains = get_kernel(kernel).batch_moves(
                    graph,
                    state,
                    ids[lo:hi],
                    resolution,
                    allow_escape=allow_escape,
                    swap_avoidance=swap_avoidance,
                    instr=None,
                )
                out_t[lo:hi] = targets
                out_g[lo:hi] = gains
                items = hi - lo
            elif kind == "nbrs":
                _, meta, lo, hi, out_base = msg
                graph = _meta_graph(cache, meta)
                ids = cache.array(meta["ids"], np.int64, meta["ids_cap"])
                out_e = cache.array(meta["edges"], np.int64, meta["edge_cap"])
                edge_idx, _ = ragged_gather_indices(graph.offsets, ids[lo:hi])
                out_e[out_base : out_base + edge_idx.size] = graph.neighbors[edge_idx]
                items = hi - lo
            else:
                raise RuntimeError(f"unknown task kind {kind!r}")
            conn.send(("ok", worker_id, items, t0, time.perf_counter()))
        except Exception:
            try:
                conn.send(("err", worker_id, traceback.format_exc()))
            except Exception:
                break
    cache.close()
    try:
        conn.close()
    except Exception:
        pass


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def _final_cleanup(procs, conns, segments) -> None:
    """GC/exit-safe teardown: stop workers, then close+unlink segments."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        except Exception:
            pass
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for shm in list(segments.values()):
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
    segments.clear()


class _Epoch:
    """One graph's CSR arrays resident in shared segments."""

    __slots__ = ("graph", "meta")

    def __init__(self, graph, meta):
        self.graph = graph  # strong ref: keeps id(graph) stable while cached
        self.meta = meta


class ProcessBackend:
    """Persistent shared-memory worker pool (see module docstring).

    Contract: every phase entry point is *bit-identical* to the inline
    numpy path — same dtypes, same values, same ordering.
    """

    name = "process"

    #: Graph epochs kept resident at once; multilevel refinement revisits
    #: level graphs, so evicting too eagerly would re-copy per level.
    EPOCH_CAP = 8

    def __init__(
        self,
        workers: int = 0,
        machine=None,
        start_method: Optional[str] = None,
        min_dispatch: int = MIN_DISPATCH_WORK,
        chaos_kill_after: Optional[int] = None,
    ) -> None:
        self.workers = resolve_workers(workers, machine)
        self.min_dispatch = int(min_dispatch)
        self.chaos_kill_after = chaos_kill_after
        self._faulted = False
        self._fault_reason = ""
        self._closed = False
        self._dispatches = 0
        self._inline_small = 0
        self._bytes_shared = 0
        self._segments: dict = {}  # name -> SharedMemory (we own all of these)
        self._slabs: dict = {}  # role -> (name, np.ndarray, capacity)
        self._epochs: OrderedDict = OrderedDict()  # id(graph) -> _Epoch
        self._adopted: Optional[ClusterState] = None
        self._adopted_n = 0

        try:
            from multiprocessing import shared_memory  # noqa: F401
        except ImportError as exc:  # pragma: no cover - py always ships it
            raise BackendUnavailable(f"shared_memory unavailable: {exc}")
        methods = mp.get_all_start_methods()
        method = start_method or ("fork" if "fork" in methods else "spawn")
        if method not in methods:
            raise BackendUnavailable(f"start method {method!r} unavailable")
        try:
            self._ctx = mp.get_context(method)
            probe = self._new_segment(8)  # verify /dev/shm actually works
            self._drop_segment(probe)
            self._procs = []
            self._conns = []
            for wid in range(self.workers):
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(wid, child_conn),
                    daemon=True,
                    name=f"repro-backend-{wid}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BackendUnavailable:
            raise
        except Exception as exc:
            _final_cleanup(
                getattr(self, "_procs", []),
                getattr(self, "_conns", []),
                self._segments,
            )
            raise BackendUnavailable(f"worker pool failed to start: {exc}")
        self._t_base = time.perf_counter()
        self._finalizer = weakref.finalize(
            self, _final_cleanup, self._procs, self._conns, self._segments
        )

    # ------------------------------------------------------------------
    # segments and slabs
    # ------------------------------------------------------------------
    def _new_segment(self, nbytes: int):
        from multiprocessing import shared_memory

        # The sequence is process-global, not per-backend: two live pools
        # in one parent (e.g. a module-scoped test fixture next to a
        # scoped one) must never mint the same segment name.
        name = f"{SEG_PREFIX}-{os.getpid()}-{next(_SEG_SEQ)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 8))
        self._segments[shm.name] = shm
        self._bytes_shared += shm.size
        return shm

    def _drop_segment(self, shm) -> None:
        self._segments.pop(shm.name, None)
        shm.close()
        shm.unlink()

    def _share_array(self, values: np.ndarray):
        """Copy ``values`` into a fresh segment; returns (name, view)."""
        shm = self._new_segment(values.nbytes)
        view = np.ndarray(values.shape, dtype=values.dtype, buffer=shm.buf)
        view[:] = values
        return shm.name, view

    def _slab(self, role: str, dtype, needed: int) -> Tuple[str, np.ndarray]:
        """A reusable named slab with capacity >= ``needed`` elements."""
        entry = self._slabs.get(role)
        if entry is not None and entry[2] >= needed:
            return entry[0], entry[1]
        cap = 1 << max(3, int(needed - 1).bit_length())
        if entry is not None:
            # Workers referencing the old name keep their mapping alive
            # until their LRU caches evict it; unlinking now is safe.
            self._drop_segment(self._segments[entry[0]])
        shm = self._new_segment(cap * np.dtype(dtype).itemsize)
        arr = np.ndarray((cap,), dtype=dtype, buffer=shm.buf)
        self._slabs[role] = (shm.name, arr, cap)
        return shm.name, arr

    def _epoch(self, graph: CSRGraph) -> dict:
        key = id(graph)
        epoch = self._epochs.get(key)
        if epoch is not None and epoch.graph is graph:
            self._epochs.move_to_end(key)
            return epoch.meta
        n = graph.num_vertices
        m = graph.neighbors.size
        off_name, _ = self._share_array(np.ascontiguousarray(graph.offsets, np.int64))
        nbr_name, _ = self._share_array(np.ascontiguousarray(graph.neighbors, np.int64))
        w_name, _ = self._share_array(np.ascontiguousarray(graph.weights, np.float64))
        nw_name, _ = self._share_array(
            np.ascontiguousarray(graph.node_weights, np.float64)
        )
        meta = {
            "n": n,
            "m": m,
            "int_w": bool(graph.has_integer_weights),
            "g_off": off_name,
            "g_nbr": nbr_name,
            "g_w": w_name,
            "g_nw": nw_name,
        }
        self._epochs[key] = _Epoch(graph, meta)
        while len(self._epochs) > self.EPOCH_CAP:
            _, old = self._epochs.popitem(last=False)
            for seg_key in ("g_off", "g_nbr", "g_w", "g_nw"):
                shm = self._segments.get(old.meta[seg_key])
                if shm is not None:
                    self._drop_segment(shm)
        return meta

    # ------------------------------------------------------------------
    # state adoption
    # ------------------------------------------------------------------
    def _adopt_state(self, state: ClusterState) -> None:
        """Back ``state``'s arrays with shared slabs (one O(n) copy).

        ``apply_moves`` then mutates shared memory in place, so workers
        observe every committed window with no further copies.  The
        previous adoptee (each refinement level builds a fresh state) is
        *un-adopted* first: its contents are copied back into private
        arrays so no view dangles once slabs are reused or unlinked.
        """
        if self._adopted is state and self._adopted_n == state.assignments.size:
            return
        self._unadopt()
        n = state.assignments.size
        _, asn = self._slab("s_asn", np.int64, n)
        _, cw = self._slab("s_cw", np.float64, n)
        _, cs = self._slab("s_cs", np.int64, n)
        asn[:n] = state.assignments
        cw[:n] = state.cluster_weights
        cs[:n] = state.cluster_sizes
        state.assignments = asn[:n]
        state.cluster_weights = cw[:n]
        state.cluster_sizes = cs[:n]
        self._adopted = state
        self._adopted_n = n

    def _unadopt(self) -> None:
        state = self._adopted
        if state is not None:
            state.assignments = state.assignments.copy()
            state.cluster_weights = state.cluster_weights.copy()
            state.cluster_sizes = state.cluster_sizes.copy()
            self._adopted = None
            self._adopted_n = 0

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------
    def _shards(self, total: int) -> list:
        bounds = [i * total // self.workers for i in range(self.workers + 1)]
        return [
            (w, bounds[w], bounds[w + 1])
            for w in range(self.workers)
            if bounds[w + 1] > bounds[w]
        ]

    def _dispatch(self, tasks, phase: str, instr=None) -> None:
        """Send one task per worker and await all replies.

        Raises :class:`_WorkerFailure` on a dead or erroring worker; the
        caller degrades to inline execution.
        """
        t_send = time.perf_counter()
        if (
            self.chaos_kill_after is not None
            and self._dispatches >= self.chaos_kill_after
        ):
            self.chaos_kill_after = None
            try:
                self._conns[0].send(("die",))
            except Exception:
                pass
        self._dispatches += 1
        try:
            for wid, msg in tasks:
                self._conns[wid].send(msg)
            replies = [self._conns[wid].recv() for wid, _ in tasks]
        except (EOFError, OSError) as exc:
            raise _WorkerFailure(f"worker pipe failed during {phase}: {exc}")
        for reply in replies:
            if reply[0] != "ok":
                raise _WorkerFailure(
                    f"worker {reply[1]} errored during {phase}:\n{reply[2]}"
                )
        if instr is not None and instr.enabled:
            for reply in replies:
                _, wid, items, t0, t1 = reply
                instr.worker_chunk(
                    wid,
                    max(0.0, t0 - self._t_base),
                    max(0.0, t1 - self._t_base),
                    f"backend-{phase}",
                    items=items,
                    clock="wall",
                )
            from repro.obs.instrument import M_BACKEND_DISPATCH

            instr.observe(
                M_BACKEND_DISPATCH, time.perf_counter() - t_send, phase=phase
            )

    def _degrade(self, exc: Exception) -> None:
        """Fault the backend: tear the pool down, continue inline."""
        self._faulted = True
        self._fault_reason = str(exc)
        self._unadopt()
        self._finalizer()
        self._slabs.clear()
        self._epochs.clear()
        warnings.warn(
            f"process backend faulted; continuing inline ({exc})",
            RuntimeWarning,
            stacklevel=3,
        )

    def _usable(self, graph, state=None) -> bool:
        """Dispatch only plain CSR graphs / states (fault-injection wrappers
        and subclasses evaluate inline, like the sweep kernel does)."""
        if self._faulted or self._closed:
            return False
        if type(graph) is not CSRGraph:
            return False
        if state is not None and type(state) is not ClusterState:
            return False
        return True

    # ------------------------------------------------------------------
    # phase entry points
    # ------------------------------------------------------------------
    def batch_moves(
        self,
        graph,
        state,
        batch: np.ndarray,
        resolution: float,
        *,
        allow_escape: bool = True,
        swap_avoidance: bool = False,
        kernel: str = DEFAULT_KERNEL,
        instr=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        def inline():
            return get_kernel(kernel).batch_moves(
                graph,
                state,
                batch,
                resolution,
                allow_escape=allow_escape,
                swap_avoidance=swap_avoidance,
                instr=instr,
            )

        if not self._usable(graph, state):
            return inline()
        size = batch.size
        degs = graph.offsets[batch + 1] - graph.offsets[batch]
        if size + int(degs.sum()) < self.min_dispatch:
            self._inline_small += 1
            return inline()
        try:
            meta = self._epoch(graph)
            self._adopt_state(state)
            ids_name, ids = self._slab("ids", np.int64, max(size, graph.num_vertices))
            out_t_name, out_t = self._slab("out_t", np.int64, ids.size)
            out_g_name, out_g = self._slab("out_g", np.float64, ids.size)
            ids[:size] = batch
            meta = dict(
                meta,
                s_asn=self._slabs["s_asn"][0],
                s_cw=self._slabs["s_cw"][0],
                s_cs=self._slabs["s_cs"][0],
                ids=ids_name,
                ids_cap=ids.size,
                out_t=out_t_name,
                out_g=out_g_name,
            )
            tasks = [
                (
                    wid,
                    (
                        "moves",
                        meta,
                        lo,
                        hi,
                        resolution,
                        allow_escape,
                        swap_avoidance,
                        kernel,
                    ),
                )
                for wid, lo, hi in self._shards(size)
            ]
            self._dispatch(tasks, "moves", instr=instr)
            return out_t[:size].copy(), out_g[:size].copy()
        except (_WorkerFailure, OSError) as exc:
            self._degrade(exc)
            return inline()

    def gather_neighbors(self, graph, ids: np.ndarray, instr=None) -> np.ndarray:
        """Concatenated neighbors of ``ids`` (sparse EDGEMAP gather).

        Returns a view of a reusable slab — valid until the next backend
        call; callers consume it immediately (``np.unique`` dedup).
        """
        degs = graph.offsets[ids + 1] - graph.offsets[ids]

        def inline():
            edge_idx, _ = ragged_gather_indices(graph.offsets, ids, lens=degs)
            return graph.neighbors[edge_idx]

        if not self._usable(graph):
            return inline()
        size = ids.size
        deg_sum = int(degs.sum())
        if size + deg_sum < self.min_dispatch:
            self._inline_small += 1
            return inline()
        try:
            meta = self._epoch(graph)
            ids_name, ids_slab = self._slab(
                "ids", np.int64, max(size, graph.num_vertices)
            )
            edge_name, edge_slab = self._slab(
                "edges", np.int64, max(deg_sum, meta["m"])
            )
            ids_slab[:size] = ids
            prefix = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(degs, out=prefix[1:])
            meta = dict(
                meta,
                ids=ids_name,
                ids_cap=ids_slab.size,
                edges=edge_name,
                edge_cap=edge_slab.size,
            )
            tasks = [
                (wid, ("nbrs", meta, lo, hi, int(prefix[lo])))
                for wid, lo, hi in self._shards(size)
            ]
            self._dispatch(tasks, "frontier", instr=instr)
            return edge_slab[:deg_sum]
        except (_WorkerFailure, OSError) as exc:
            self._degrade(exc)
            return inline()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._unadopt()
        self._slabs.clear()
        self._epochs.clear()
        self._finalizer()

    def stats(self) -> dict:
        return {
            "name": self.name,
            "workers": self.workers,
            "dispatches": self._dispatches,
            "inline_small": self._inline_small,
            "bytes_shared": self._bytes_shared,
            "faulted": self._faulted,
            "fault_reason": self._fault_reason,
        }

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
