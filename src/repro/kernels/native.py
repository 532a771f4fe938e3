"""The native BEST-MOVES round: ``native.c`` through ``ctypes``.

The paper's implementation (§3) and Grappolo run the per-vertex
accumulate-and-argmax loop in native code.  ``native.c`` is that loop,
written as :func:`~repro.kernels.reference.reference_single_move` is:
the same float operations in the same order, exact comparisons, the same
``GAIN_EPS`` (passed in from :mod:`repro.kernels.base`), the same
lowest-id tiebreak, swap block and escape rule.  So it is bit-identical
to the dict oracle by construction (DESIGN.md §8).  Three entry points
share it: one ``ctypes`` call evaluates a whole concurrency window
(``batch_moves``), one runs a whole sequential sweep with immediate
commits (``sweep``, Algorithm 2's inner loop), and one runs a whole
BEST-MOVES round (``round``, below).

``batch_moves(..., threads=n)`` lets the C loop split a window of at
least 256 vertices across the calling thread and up to ``n - 1``
helper threads of a pool inside ``native.c``, which claim 64-vertex
chunks through an atomic counter.  Every vertex reads the window-start
snapshot and writes only its own output slots and its thread's scratch,
so the outputs do not depend on ``n``.  :func:`compress` splits a large
quotient's rows over the same pool, and :func:`splice` a large graph's
rows.  All three use one thread per :func:`usable_cores` core (the
splice counts the cores in C, from the same affinity mask).  Helpers start on the first split job, never
at import or load; they park when idle, and a forked child starts its
own.  :func:`pool_stats` reads the pool's counters.

:meth:`NativeKernel.round` (``repro_round``) evaluates each
concurrency window as ``batch_moves`` does, on the pool, commits it
bit for bit as the NumPy body of ``ClusterState.apply_moves`` does, and
returns the round's movers plus each window's integers (the commit's
contention, the pair count and the degree profile, by name in
:class:`RoundWindows`) from which ``best_moves.window_round`` charges
the round.  It returns ``None`` for a state it cannot commit in place,
and the caller then runs the per-window loop, whose commit is that
NumPy body; ``sweep`` runs the dict sweep of
:mod:`repro.kernels.reference` for such a state.

Two more entry points run the rest of a round: :func:`neighbors`
(``edge_map``) and :func:`compress` (the quotient graph's edges).  Two
serve the dynamic graph's update batches: :func:`find_arcs` (the arc
search of ``graphs.delta``) and :func:`splice` (the CSR splice of
``DeltaOverlayGraph.compact``).  Each is the only implementation of its
layer; the tests keep NumPy references to compare them against.

The three BEST-MOVES calls (batch, sweep, round) read the graph, the
state and this thread's scratch through a :class:`Binding` filled on
each call, then pass only their window or round, their settings and
their outputs; the other four take their arrays directly.  All seven
pass arrays by one rule (:func:`_c_array`): an array C only reads goes
in place when it is contiguous with the right dtype and is copied
otherwise; an array C writes must be usable in place.  Every address
comes from :func:`_address`.

The shared library is built lazily, on first use, never at import:

* ``gcc -O2 -ffp-contract=off -fPIC -shared``, never ``-ffast-math``, so
  float additions are neither reordered nor fused;
* into the first usable per-user cache directory outside the source
  tree (:func:`default_cache_dirs`; only a directory that cannot be
  used moves the search on, a compiler error raises at once), named by a
  hash of the source, the flags and the compiler's identity (its resolved
  path, size and mtime, which change with its version), so a cached
  library is found again without running the compiler;
* through a unique temp file and ``os.replace``, so concurrent
  processes never load a half-written library;
* after each build, libraries of other versions in that directory that
  are more than a day old are deleted (:func:`prune_stale`), so the cache
  does not grow with every edit of the source.

The library is required: it builds only on Linux with gcc.  When it
cannot be built or loaded, the first call that needs it raises
:class:`RuntimeError` naming the compiler and its error, and every later
call raises again without running the compiler.  The foreign calls
release the GIL, so the scratch is per thread (:class:`_Scratch`); a
second Python thread that calls while the pool is busy runs its window
alone.

Every engine evaluates its windows and sweeps through one instance,
:data:`KERNEL`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.kernels.base import GAIN_EPS
from repro.kernels.reference import reference_sweep
from repro.obs.instrument import M_KERNEL_SEGMENTS

SOURCE = Path(__file__).with_name("native.c")
#: The C compiler, looked up on ``PATH`` when the library is first needed.
COMPILER = "gcc"
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_INT = ctypes.c_int
_F64 = ctypes.c_double


class Binding(ctypes.Structure):
    """``struct binding`` in native.c: what one BEST-MOVES call reads.

    The graph and state pointers, the vertex and cluster-id counts the C
    loops bounds-check against, and the calling thread's scratch (pool
    helpers keep their own in C), whose ``counts`` are the round's
    commit's.  :func:`_bind` fills one per call and sets ``arrays`` to the
    arrays it points at, so any copies live as long as the binding.
    """

    _fields_ = [
        ("offsets", _P),
        ("neighbors", _P),
        ("weights", _P),
        ("node_weights", _P),
        ("assignments", _P),
        ("cluster_weights", _P),
        ("cluster_sizes", _P),
        ("num_vertices", _I64),
        ("num_clusters", _I64),
        ("acc", _P),
        ("seen", _P),
        ("touched", _P),
        ("counts", _P),
    ]


#: The three BEST-MOVES entry points take a binding by reference, then only
#: what changes per call: the window (or the round's order and window
#: starts) and its size, the settings (the resolution, GAIN_EPS, flags
#: and, for the batch and the round, the thread count; for the round, the
#: kernel threshold of the degree profile) and the outputs.  The
#: frontier, the compression, the arc search and the splice take their
#: arrays.
#: ``repro_pool_stats`` reads the batch's thread pool.
SIGNATURES = {
    "repro_best_moves": [_P, _P, _I64, _F64, _F64, _INT, _INT, _INT, _P, _P],
    "repro_sweep": [_P, _P, _I64, _F64, _F64, _INT] + [_P] * 4,
    "repro_round": [_P, _P, _I64, _P, _I64, _F64, _F64, _INT, _INT, _INT, _I64]
    + [_P] * 5,
    "repro_neighbors": [_P, _P, _I64, _P, _I64] + [_P] * 3,
    "repro_compress": [_P, _P, _P, _I64, _P, _I64, _P, _INT] + [_P] * 4,
    "repro_find_arcs": [_P, _P, _I64, _P, _P, _I64, _P, _P],
    "repro_splice": [_P, _P, _P, _I64, _I64] + [_P] * 5 + [_I64, _I64] + [_P] * 3,
    "repro_pool_stats": [_P],
}


def default_cache_dirs():
    """Where the library is cached, in order of preference.

    The per-user cache (``$XDG_CACHE_HOME`` or ``~/.cache``), then a
    per-user directory under the system temp dir for hosts whose home is
    read-only.
    """
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return [
        Path(root) / "repro-native",
        Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}",
    ]


def library_name(compiler: str) -> str:
    """The cached library's file name for ``compiler`` (a resolved path)."""
    stat = os.stat(compiler)
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(f"{compiler}:{stat.st_size}:{stat.st_mtime_ns}".encode())
    return f"best_moves-{digest.hexdigest()[:20]}.so"


def _private_dir(directory: Path) -> Path:
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    if directory.stat().st_uid != os.getuid():
        raise OSError(f"{directory} is not owned by this user")
    return directory


def build(compiler: str, target: Path) -> None:
    """Compile ``native.c`` to ``target`` via a temp file and ``os.replace``."""
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            check=True,
            capture_output=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: Age after which a cached library of another version is deleted.  Two
#: checkouts of different versions used in turn each keep their library.
STALE_LIBRARY_SECONDS = 24 * 3600.0


def prune_stale(keep: Path) -> None:
    """Delete the ``best_moves-*.so`` beside ``keep`` that are stale."""
    cutoff = time.time() - STALE_LIBRARY_SECONDS
    for path in keep.parent.glob("best_moves-*.so"):
        if path.name == keep.name:
            continue
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
        except OSError:
            pass  # another process removed it first


class NativeLibrary:
    """The compiled library, loaded once on first use.

    ``load()`` returns the ``ctypes`` library with every entry point in
    :data:`SIGNATURES` bound.  When the library cannot be built or
    loaded it raises :class:`RuntimeError`, chained from the cause, and
    every later call raises again without running the compiler.
    """

    def __init__(self, cache_dirs=None) -> None:
        self._cache_dirs = cache_dirs
        self._lock = threading.Lock()
        self._cdll = None
        self._error: Optional[Exception] = None

    def load(self):
        if self._cdll is None:
            with self._lock:
                if self._cdll is None and self._error is None:
                    try:
                        self._cdll = self._load()
                    except (OSError, subprocess.SubprocessError) as exc:
                        self._error = exc
            if self._cdll is None:
                raise RuntimeError(
                    f"native library unavailable ({self._error}); repro "
                    f"needs Linux with {COMPILER} to build {SOURCE.name}"
                ) from self._error
        return self._cdll

    def _load(self):
        compiler = shutil.which(COMPILER)
        if compiler is None:
            raise OSError(f"no C compiler {COMPILER!r} on PATH")
        compiler = os.path.realpath(compiler)
        name = library_name(compiler)
        errors, cause = [], None
        for directory in self._cache_dirs or default_cache_dirs():
            try:
                path = _private_dir(Path(directory)) / name
                try:
                    lib = ctypes.CDLL(str(path))
                except OSError:
                    # Missing, or not a loadable library: (re)build it.
                    build(compiler, path)
                    prune_stale(path)
                    lib = ctypes.CDLL(str(path))
            except subprocess.SubprocessError as exc:
                # The compiler rejected the source, in any directory.
                raise OSError(_describe(exc)) from exc
            except OSError as exc:
                # This directory cannot be used: try the next one.
                errors.append(str(exc))
                cause = exc
                continue
            for symbol, argtypes in SIGNATURES.items():
                function = getattr(lib, symbol)
                function.argtypes = argtypes
                function.restype = ctypes.c_int64
            return lib
        raise OSError("; ".join(errors)) from cause


#: The process's library: the default kernel and its round, the
#: frontier and compression, and the dynamic graph's arc search and
#: splice all load it.
LIBRARY = NativeLibrary()


def _describe(exc: Exception) -> str:
    if isinstance(exc, subprocess.CalledProcessError):
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        return f"{exc.cmd[0]} exited {exc.returncode}: {stderr[:200]}"
    return str(exc)


_from_buffer = ctypes.c_char.from_buffer
_addressof = ctypes.addressof


def _address(array: np.ndarray) -> int:
    """The address of a contiguous array's first byte, for one call.

    ``c_char.from_buffer`` costs about a third of ``.ctypes.data``; it
    refuses read-only and empty arrays, which take ``.ctypes.data``.
    """
    try:
        return _addressof(_from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


def _c_array(array, dtype, written: bool = False):
    """``array`` as a C entry point takes it: the one rule for all seven.

    An array C only reads goes in place when it is C-contiguous with
    ``dtype`` and is copied otherwise.  An array C writes must be usable
    in place (C-contiguous, ``dtype`` and writeable), or this returns
    ``None``: the sweep and the round then leave the state to the Python
    path, and :func:`compress` raises.
    """
    if not written:
        return np.ascontiguousarray(array, dtype=dtype)
    usable = (
        array.dtype == dtype and array.flags.c_contiguous and array.flags.writeable
    )
    return array if usable else None


def _csr(graph):
    """``graph``'s ``offsets``, ``neighbors`` and ``weights`` as C reads
    them, after the one size check every entry point makes."""
    offsets = _c_array(graph.offsets, np.int64)
    adjacency = _c_array(graph.neighbors, np.int64)
    weights = _c_array(graph.weights, np.float64)
    if offsets.size < 1 or not adjacency.size == weights.size == offsets[-1]:
        raise ValueError("native: CSR array sizes do not match")
    return offsets, adjacency, weights


_KERNEL_SCRATCH = (np.float64, np.uint8, np.int64, np.int64)


class _Scratch(threading.local):
    """One thread's scratch for the C calls, grown on demand.

    ``kernel`` is ``acc``, ``seen``, ``touched`` and the commit's
    ``counts``, ``size`` entries each (one per cluster id), and
    ``addresses`` theirs, taken once per growth because every binding
    points at them; ``marks`` is the frontier's bitmap, one bit per
    vertex.  All but ``touched`` hold zeros between calls, because the C
    loops reset what they set.  The foreign calls release the GIL, so
    each thread has its own.
    """

    def __init__(self) -> None:
        self.size = -1
        self.kernel = self.addresses = ()
        self.marks = np.zeros(0, dtype=np.uint64)

    def clusters(self, size: int):
        """``addresses``, after growing ``kernel`` to ``size`` ids."""
        if self.size < size:
            self.size = max(size, 2 * self.size)
            self.kernel = tuple(np.zeros(self.size, dtype=dt) for dt in _KERNEL_SCRATCH)
            self.addresses = tuple(map(_address, self.kernel))
        return self.addresses

    def bits(self, words: int) -> np.ndarray:
        if self.marks.size < words:
            self.marks = np.zeros(max(words, 2 * self.marks.size), dtype=np.uint64)
        return self.marks


_SCRATCH = _Scratch()


def _bind(graph, state, written: bool) -> Optional[Binding]:
    """One call's :class:`Binding` of ``graph``, ``state`` and this
    thread's scratch; ``None`` when ``written`` (the call commits into
    ``state``) and a state array is not usable in place."""
    offsets, adjacency, weights = _csr(graph)
    node_weights = _c_array(graph.node_weights, np.float64)
    assignments = _c_array(state.assignments, np.int64, written)
    cluster_weights = _c_array(state.cluster_weights, np.float64, written)
    sizes = _c_array(state.cluster_sizes, np.int64, written)
    if assignments is None or cluster_weights is None or sizes is None:
        return None
    n = offsets.size - 1
    clusters = cluster_weights.size
    if min(node_weights.size, assignments.size, clusters) < n or sizes.size < clusters:
        raise ValueError("native kernel: graph and state array sizes do not match")
    arrays = (
        offsets, adjacency, weights, node_weights, assignments, cluster_weights, sizes,
    )
    scratch = _SCRATCH.clusters(clusters)
    binding = Binding(*map(_address, arrays), n, clusters, *scratch)
    binding.arrays = arrays
    return binding


class NativeKernel:
    """Native batch, sweep and round loops.

    ``batch_moves`` returns ``(targets, gains)`` for a window against the
    state snapshot, with ``gains`` relative to staying put; ``threads``
    is how many wall-clock threads the C loop may split the window
    across, and the outputs never depend on it.  ``sweep`` runs one
    sequential sweep of immediate best moves, mutating ``state`` exactly
    as the vertex-at-a-time loop would, and returns ``(movers, origins,
    targets, total_gain)``.
    """

    def __init__(self, library: Optional[NativeLibrary] = None) -> None:
        self.library = library if library is not None else LIBRARY

    def batch_moves(
        self,
        graph,
        state,
        batch,
        resolution,
        *,
        allow_escape=True,
        swap_avoidance=False,
        instr=None,
        threads=1,
    ):
        lib = self.library.load()
        binding = _bind(graph, state, written=False)
        batch = _c_array(batch, np.int64)
        size = batch.size
        targets = np.empty(size, dtype=np.int64)
        gains = np.empty(size, dtype=np.float64)
        pairs = lib.repro_best_moves(
            ctypes.byref(binding),
            _address(batch),
            size,
            float(resolution),
            GAIN_EPS,
            bool(allow_escape),
            bool(swap_avoidance),
            int(threads),
            _address(targets),
            _address(gains),
        )
        if pairs < 0:
            raise IndexError("native kernel: batch vertex or label out of range")
        if instr is not None and instr.enabled:
            instr.observe(M_KERNEL_SEGMENTS, float(pairs))
        return targets, gains

    def _committing(self, graph, state):
        """``(library, binding)`` for a C loop that commits into
        ``state``, or ``None`` for a state the C commit would not update
        as Python does.

        The C loops commit as ``ClusterState`` does, with the graph's node
        weights, into the arrays they read; any other state
        (``FaultyClusterState`` buffers, delays and duplicates writes), or
        one with a state array C cannot write in place, takes the Python
        path.
        """
        from repro.core.state import ClusterState  # repro.core imports this module

        lib = self.library.load()
        if (
            type(state) is not ClusterState
            or state.node_weights is not graph.node_weights
        ):
            return None
        binding = _bind(graph, state, written=True)
        return None if binding is None else (lib, binding)

    def sweep(self, graph, state, order, resolution, *, allow_escape=True):
        committing = self._committing(graph, state)
        if committing is None:
            return reference_sweep(
                graph, state, order, resolution, allow_escape=allow_escape
            )
        lib, binding = committing
        order = _c_array(order, np.int64)
        size = order.size
        movers = np.empty(size, dtype=np.int64)
        origins = np.empty(size, dtype=np.int64)
        targets = np.empty(size, dtype=np.int64)
        total_gain = np.zeros(1, dtype=np.float64)
        moved = lib.repro_sweep(
            ctypes.byref(binding),
            _address(order),
            size,
            float(resolution),
            GAIN_EPS,
            bool(allow_escape),
            _address(movers),
            _address(origins),
            _address(targets),
            _address(total_gain),
        )
        if moved < 0:
            raise IndexError("native kernel: sweep vertex or label out of range")
        return movers[:moved], origins[:moved], targets[:moved], float(total_gain[0])

    def round(
        self,
        graph,
        state,
        order,
        starts,
        resolution,
        *,
        threshold,
        allow_escape=True,
        swap_avoidance=False,
        threads=1,
    ):
        """Evaluate and commit every window of one round in one C call.

        Window ``i`` is ``order[starts[i]:starts[i + 1]]``; each reads the
        state the windows before it left, as :meth:`batch_moves` followed
        by ``ClusterState.apply_moves`` per window would.  Returns
        ``(movers, origins, targets, gains, windows)``: the round's movers
        in commit order with their origins, targets and gains, and the
        windows' :class:`RoundWindows` (each one's commit contention, pair
        count and degree profile).  Returns ``None``, having changed
        nothing, where the round cannot run in C: a state other than an
        exact ``ClusterState`` or with node weights other than the
        graph's, or a state array C cannot write in place.
        """
        committing = self._committing(graph, state)
        if committing is None:
            return None
        lib, binding = committing
        order = _c_array(order, np.int64)
        starts = _c_array(starts, np.int64)
        size = order.size
        targets = np.empty(size, dtype=np.int64)
        gains = np.empty(size, dtype=np.float64)
        origins = np.empty(size, dtype=np.int64)
        movers = np.empty(size, dtype=np.int64)
        rows = np.empty((starts.size, _ROUND_ROW), dtype=np.int64)
        moved = lib.repro_round(
            ctypes.byref(binding),
            _address(order),
            size,
            _address(starts),
            starts.size,
            float(resolution),
            GAIN_EPS,
            bool(allow_escape),
            bool(swap_avoidance),
            int(threads),
            int(threshold),
            _address(targets),
            _address(gains),
            _address(origins),
            _address(movers),
            _address(rows),
        )
        if moved < 0:
            raise IndexError("native kernel: round vertex or label out of range")
        windows = RoundWindows(
            *rows[:, :_ROUND_NAMED].T, rows[:, _ROUND_NAMED:]
        )
        return movers[:moved], origins[:moved], targets[:moved], gains[:moved], windows


class RoundWindows(NamedTuple):
    """:meth:`NativeKernel.round`'s integers, one entry per window.

    ``repro_round`` writes each window's as one int64 row, in these
    fields' order (``native.c``'s ``W_*`` enum), and the last six
    columns, the window's degree profile (``repro.core.moves.Profile``),
    come as one ``(windows, 6)`` block.
    """

    #: Movers the window committed.
    moved: np.ndarray
    #: The retries (movers minus distinct clusters) and longest queue of
    #: the commit's decrement fetch-and-add window ...
    dec_retries: np.ndarray
    dec_longest: np.ndarray
    #: ... and of its increment window.
    inc_retries: np.ndarray
    inc_longest: np.ndarray
    #: (vertex, neighbor cluster) pairs evaluated.
    pairs: np.ndarray
    #: The degree profiles, with the round's threshold splitting the
    #: two kernel branches.
    profiles: np.ndarray


#: ``repro_round``'s per-window row (``W_FIELDS`` wide): the named
#: columns, then the six of the degree profile.
_ROUND_NAMED = len(RoundWindows._fields) - 1
_ROUND_ROW = _ROUND_NAMED + 6


#: The kernel every engine calls.
KERNEL = NativeKernel()


#: The fields :func:`pool_stats` returns, in ``repro_pool_stats``' order.
POOL_STATS = ("helpers", "split_windows", "dirty_scratch", "split_splices")


def usable_cores() -> int:
    """Cores this process may run on (``os.sched_getaffinity``): the
    threads one split job may use."""
    return len(os.sched_getaffinity(0))


def pool_stats() -> dict:
    """The pool's counters in :data:`LIBRARY`.

    ``helpers`` threads started, BEST-MOVES windows evaluated on more
    than one thread (``split_windows``), ``dirty_scratch``, the nonzero
    entries left in the helpers' scratch, which is 0 between jobs, and
    splices whose rows were copied on more than one thread
    (``split_splices``).  Starts no thread.
    """
    lib = LIBRARY.load()
    out = np.zeros(len(POOL_STATS), dtype=np.int64)
    lib.repro_pool_stats(_address(out))
    return dict(zip(POOL_STATS, out.tolist()))


def neighbors(graph, ids):
    """The distinct neighbors of ``ids`` in ``graph``, ascending, in C.

    Returns ``(neighbors, gathered)``, where ``gathered`` counts every
    neighbor of every id, duplicates included.
    """
    lib = LIBRARY.load()
    offsets, adjacency, _ = _csr(graph)
    ids = _c_array(ids, np.int64)
    n = offsets.size - 1
    out = np.empty(n, dtype=np.int64)
    gathered = np.empty(1, dtype=np.int64)
    count = lib.repro_neighbors(
        _address(offsets),
        _address(adjacency),
        n,
        _address(ids),
        ids.size,
        _address(_SCRATCH.bits((n + 63) // 64)),
        _address(out),
        _address(gathered),
    )
    if count < 0:
        raise IndexError("native frontier: vertex id out of range")
    return out[:count], int(gathered[0])


def compress(graph, labels, num_super: int, self_loops):
    """The quotient graph's edges over the classes ``labels``, in C.

    Each super-vertex's row sums its members' arcs per destination class
    in arc order from 0.0 and lists the classes in ascending order, as a
    semisort of ``(source class, destination class)`` keys with
    ``np.bincount`` sums would; ``self_loops`` (a writable contiguous
    float64 array, updated in place) gains the halved intra-class sums.
    The rows are built on every :func:`usable_cores` core when the graph
    is large.  Returns ``(offsets, neighbors, weights, inter-class
    arcs)``.
    """
    lib = LIBRARY.load()
    if _c_array(self_loops, np.float64, written=True) is None:
        raise ValueError("native compress: self_loops is not writable in place")
    offsets, adjacency, weights = _csr(graph)
    labels = _c_array(labels, np.int64)
    if not (labels.size == offsets.size - 1 and self_loops.size == num_super):
        raise ValueError("native compress: graph and label sizes do not match")
    m = adjacency.size
    out_offsets = np.empty(num_super + 1, dtype=np.int64)
    keys = np.empty(m, dtype=np.int64)
    sums = np.empty(m, dtype=np.float64)
    inter = np.empty(1, dtype=np.int64)
    kept = lib.repro_compress(
        _address(offsets),
        _address(adjacency),
        _address(weights),
        offsets.size - 1,
        _address(labels),
        num_super,
        _address(self_loops),
        usable_cores(),
        _address(out_offsets),
        _address(keys),
        _address(sums),
        _address(inter),
    )
    if kept == -1:
        raise IndexError("native compress: label out of range")
    if kept < 0:
        raise MemoryError("native compress: cannot allocate scratch")
    # Nothing else refers to the two buffers: shrink them in place.
    keys.resize(kept, refcheck=False)
    sums.resize(kept, refcheck=False)
    return out_offsets, keys, sums, int(inter[0])


def find_arcs(graph, src, dst):
    """``(pos, found)`` of each arc ``(src[i], dst[i])`` in ``graph``'s
    sorted rows, in C: the arc's index in ``neighbors``, or its insertion
    point in row ``src[i]``, and whether the row has it.  A source past
    the graph has an empty row at the end; as ``np.searchsorted`` in the
    row would find it.
    """
    lib = LIBRARY.load()
    offsets, adjacency, _ = _csr(graph)
    src = _c_array(src, np.int64)
    dst = _c_array(dst, np.int64)
    if src.ndim != 1 or src.shape != dst.shape:
        raise ValueError("native find_arcs: src and dst must be equal 1-D arrays")
    pos = np.empty(src.size, dtype=np.int64)
    found = np.empty(src.size, dtype=np.bool_)
    status = lib.repro_find_arcs(
        _address(offsets),
        _address(adjacency),
        offsets.size - 1,
        _address(src),
        _address(dst),
        src.size,
        _address(pos),
        _address(found),
    )
    if status < 0:
        raise IndexError("native find_arcs: negative source vertex")
    return pos, found


def splice(graph, num_vertices: int, arcs, capacity: int):
    """``graph`` over ``num_vertices`` vertices with the staged ``arcs``
    spliced in, in C.

    ``arcs`` is ``(src, dst, w, pos, found)`` ordered by ``(src, dst)``,
    as ``DeltaOverlayGraph._pending_arcs`` returns it, and ``capacity``
    the spliced arc count.  Returns ``(offsets, neighbors, weights)``.
    ``graph`` must be valid CSR, as every overlay base is: C checks only
    the staged arcs, as ``CSRGraph._validate`` would (in range, not a
    self-loop, in order on their rows), and raises
    :class:`GraphFormatError` on any violation, so the result needs no
    second validation.  The rows are copied on every core this thread
    may run on (:func:`usable_cores`) when the graph has at least 65,536
    arcs.
    """
    lib = LIBRARY.load()
    offsets, adjacency, weights = _csr(graph)
    src, dst, w, pos, found = (
        _c_array(a, dt)
        for a, dt in zip(arcs, (np.int64, np.int64, np.float64, np.int64, np.bool_))
    )
    count = src.size
    if not (
        num_vertices >= offsets.size - 1
        and dst.size == w.size == pos.size == found.size == count
    ):
        raise ValueError("native splice: graph and arc array sizes do not match")
    out_offsets = np.empty(num_vertices + 1, dtype=np.int64)
    out_neighbors = np.empty(capacity, dtype=np.int64)
    out_weights = np.empty(capacity, dtype=np.float64)
    written = lib.repro_splice(
        _address(offsets),
        _address(adjacency),
        _address(weights),
        offsets.size - 1,
        num_vertices,
        _address(src),
        _address(dst),
        _address(w),
        _address(pos),
        _address(found),
        count,
        capacity,
        _address(out_offsets),
        _address(out_neighbors),
        _address(out_weights),
    )
    if written != capacity:
        raise GraphFormatError(
            "spliced adjacency has an arc out of range, a self-loop or a "
            "misplaced staged arc"
        )
    return out_offsets, out_neighbors, out_weights
