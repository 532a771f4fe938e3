"""The native BEST-MOVES round: ``native.c`` through ``ctypes``.

The paper's implementation (§3) and Grappolo run the per-vertex
accumulate-and-argmax loop in native code.  ``native.c`` is that loop,
written as :func:`~repro.kernels.reference.reference_single_move` is:
the same float operations in the same order, exact comparisons, the same
``GAIN_EPS`` (passed in from :mod:`repro.kernels.base`), the same
lowest-id tiebreak, swap block and escape rule.  So it is bit-identical
to the dict oracle by construction (DESIGN.md §8).  Two entry points
share it: one ``ctypes`` call evaluates a whole concurrency window
(``batch_moves``), and one runs a whole sequential sweep with immediate
commits (``sweep``, Algorithm 2's inner loop).

``batch_moves(..., threads=n)`` lets the C loop split a window of at
least 256 vertices across the calling thread and up to ``n - 1``
helper threads of a pool inside ``native.c``, which claim 64-vertex
chunks through an atomic counter.  Every vertex reads the window-start
snapshot and writes only its own output slots and its thread's scratch,
so the outputs do not depend on ``n``.  :func:`compress` splits a large
quotient's rows over the same pool.  Both use one thread per
:func:`usable_cores` core.  Helpers start on the first split job, never
at import or load; they park when idle, and a forked child starts its
own.  :func:`pool_stats` reads the pool's counters.

Three more entry points run the rest of a round, each bit-identical to
the NumPy code it replaces, which stays as the no-compiler path and the
test oracle: :func:`commit` (``ClusterState.apply_moves``),
:func:`neighbors` (``edge_map``) and :func:`compress` (the quotient
graph's edges).  Two serve the dynamic graph's update batches the same
way: :func:`find_arcs` (the arc search of ``graphs.delta``) and
:func:`splice` (the CSR splice of ``DeltaOverlayGraph.compact``).  They
return ``None`` when the library does not load, and the caller runs its
NumPy path.

The three per-window calls (batch, sweep, commit) read the graph, the
state and their scratch through a :class:`Binding`, built once per level
and thread and checked by weak-reference identity on each call; a call
then marshals only its window, its settings and its outputs, whose
addresses :func:`_address` takes.  The frontier and the compression run
once per round or level and pass their arrays directly.

The shared library is built lazily, on first use, never at import:

* ``gcc -O2 -ffp-contract=off -fPIC -shared``, never ``-ffast-math``, so
  float additions are neither reordered nor fused;
* into a per-user cache directory outside the source tree, named by a
  hash of the source, the flags and the compiler's identity (its resolved
  path, size and mtime, which change with its version), so a cached
  library is found again without running the compiler;
* through a unique temp file and ``os.replace``, so concurrent
  processes never load a half-written library;
* after each build, libraries of other versions in that directory that
  are more than a day old are deleted (:func:`prune_stale`), so the cache
  does not grow with every edit of the source.

With no compiler, or when the build fails, :data:`LIBRARY` warns once
with a ``RuntimeWarning``; the kernel then delegates to the
``reference`` dict loops, which is legal because the two are
bit-identical.  The foreign calls release the GIL, so bindings and their
scratch are per thread; a second Python thread that calls while the pool
is busy runs its window alone.  ``single_move`` keeps the reference dict
loop.
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
import warnings
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.kernels.base import GAIN_EPS, MoveKernel
from repro.kernels.reference import (
    reference_batch_moves,
    reference_single_move,
    reference_sweep,
)
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
    """``struct binding`` in native.c: what one level's window calls share.

    The graph and state pointers, the vertex and cluster-id counts the C
    loops bounds-check against, and the calling thread's scratch (pool
    helpers keep their own in C).  A kernel binding fills every field
    but ``counts``; a commit binding leaves the CSR pointers null and
    binds the state's own node weights and ``counts``.
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


#: The three per-window entry points take a binding's address, then only
#: what changes per call: the window and its size, the settings (the
#: resolution, GAIN_EPS, flags and, for the batch, the thread count) and
#: the outputs.  The frontier, the compression, the arc search and the
#: splice run once per round, level or update batch and take their
#: arrays.  ``repro_pool_stats`` reads the batch's thread pool.
SIGNATURES = {
    "repro_best_moves": [_P, _P, _I64, _F64, _F64, _INT, _INT, _INT, _P, _P],
    "repro_sweep": [_P, _P, _I64, _F64, _F64, _INT] + [_P] * 4,
    "repro_commit": [_P, _P, _P, _I64, _P, _P],
    "repro_neighbors": [_P, _P, _I64, _P, _I64] + [_P] * 3,
    "repro_compress": [_P, _P, _P, _I64, _P, _I64, _P, _INT] + [_P] * 4,
    "repro_find_arcs": [_P, _P, _I64, _P, _P, _I64, _P, _P],
    "repro_splice": [_P, _P, _P, _I64, _I64] + [_P] * 5 + [_I64, _I64] + [_P] * 3,
    "repro_pool_stats": [_P],
}
#: dtypes of graph.offsets / neighbors / weights / node_weights and
#: state.assignments / cluster_weights / cluster_sizes, read in place.
_INPUT_DTYPES = (
    np.int64, np.int64, np.float64, np.float64, np.int64, np.float64, np.int64,
)


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
    :data:`SIGNATURES` bound, or ``None`` after warning once that it
    cannot be built or loaded.
    """

    def __init__(self, cache_dirs=None) -> None:
        self._cache_dirs = cache_dirs
        self._lock = threading.Lock()
        self._lib = None
        self._failed = False

    def load(self):
        if self._lib is None and not self._failed:
            with self._lock:
                if self._lib is None and not self._failed:
                    try:
                        self._lib = self._load()
                    except (OSError, subprocess.SubprocessError) as exc:
                        self._failed = True
                        warnings.warn(
                            f"native kernel unavailable ({exc}); using the "
                            "bit-identical reference kernel and NumPy "
                            "paths instead",
                            RuntimeWarning,
                            stacklevel=3,
                        )
        return self._lib

    def _load(self):
        compiler = shutil.which(COMPILER)
        if compiler is None:
            raise OSError(f"no C compiler {COMPILER!r} on PATH")
        compiler = os.path.realpath(compiler)
        name = library_name(compiler)
        errors = []
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
            except (OSError, subprocess.SubprocessError) as exc:
                errors.append(_describe(exc))
                continue
            for symbol, argtypes in SIGNATURES.items():
                function = getattr(lib, symbol)
                function.argtypes = argtypes
                function.restype = ctypes.c_int64
            return lib
        raise OSError("; ".join(errors))


#: The process's library: the default kernel, the round's commit,
#: frontier and compression, and the dynamic graph's splice all load it.
LIBRARY = NativeLibrary()


def _describe(exc: Exception) -> str:
    if isinstance(exc, subprocess.CalledProcessError):
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        return f"compiler exited {exc.returncode}: {stderr[:200]}"
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


class _Bound:
    """One thread's :class:`Binding` of one set of arrays.

    ``refs`` weakly references the arrays bound in place, so the binding
    never keeps a finished run's graph or state alive; it is used only
    while :meth:`holds` finds every one of them alive and identical,
    which is every window of a level.  A binding of copies (arrays C
    could not read in place) has no ``refs``, holds its copies in
    ``copies`` and lasts one call.  ``scratch`` holds the scratch arrays
    the binding points at.  ``out`` is a commit binding's output: four
    contention integers, then room for a window's origins, grown to the
    longest window committed and handed on to the next commit binding.
    """

    __slots__ = (
        "refs", "copies", "struct", "address", "scratch", "out", "out_address",
    )

    def __init__(self, arrays, copies, struct, scratch, out=None) -> None:
        self.refs = None if copies else tuple(weakref.ref(a) for a in arrays)
        self.copies = copies
        self.struct = struct
        self.address = ctypes.addressof(struct)
        self.scratch = scratch
        self.out = out
        self.out_address = None if out is None else out.ctypes.data

    def holds(self, arrays) -> bool:
        """Whether this binding points at exactly these (live) arrays."""
        refs = self.refs
        if refs is None:
            return False
        for ref, array in zip(refs, arrays):
            if ref() is not array:
                return False
        return True


def _bind_kernel(arrays, previous: Optional[_Bound]) -> _Bound:
    """A kernel binding of the seven graph/state ``arrays``.

    Arrays already contiguous with the kernel's dtype are read in place;
    anything else is copied, and the binding then lasts one call, since a
    copy of the state would go stale.  The scratch (``acc``, ``seen``,
    ``touched``, covering every cluster id) is ``previous``'s when it is
    large enough; ``acc`` and ``seen`` hold zeros between calls, because
    the C loop resets what it touches.
    """
    usable = tuple(
        np.ascontiguousarray(a, dtype=dt) for a, dt in zip(arrays, _INPUT_DTYPES)
    )
    offsets, neighbors, weights, node_weights, assignments, cw, sizes = usable
    n = offsets.size - 1
    if not (
        n >= 0
        and neighbors.size == weights.size == offsets[-1]
        and node_weights.size >= n
        and assignments.size >= n
        and sizes.size >= cw.size >= n
    ):
        raise ValueError("native kernel: graph and state array sizes do not match")
    clusters = cw.size
    scratch = previous.scratch if previous is not None else None
    if scratch is None or scratch[0].size < clusters:
        size = max(clusters, 2 * scratch[0].size if scratch else 0)
        scratch = (
            np.zeros(size, dtype=np.float64),
            np.zeros(size, dtype=np.uint8),
            np.empty(size, dtype=np.int64),
        )
    struct = Binding(
        *(a.ctypes.data for a in usable),
        n,
        clusters,
        *(a.ctypes.data for a in scratch),
        None,
    )
    in_place = all(u is a for u, a in zip(usable, arrays))
    return _Bound(arrays, None if in_place else usable, struct, scratch)


class _KernelLocal(threading.local):
    """One thread's kernel binding (``None`` until the first call)."""

    def __init__(self) -> None:
        self.bound: Optional[_Bound] = None


class NativeKernel(MoveKernel):
    """Native batch and sweep loops; the reference loops when it cannot build."""

    name = "native"

    def __init__(self, library: Optional[NativeLibrary] = None) -> None:
        self.library = library if library is not None else LIBRARY
        self._local = _KernelLocal()

    def _binding(self, graph, state) -> _Bound:
        """This thread's binding of ``graph`` and ``state``, rebuilt only
        when one of the seven arrays it reads was replaced."""
        arrays = (
            graph.offsets,
            graph.neighbors,
            graph.weights,
            graph.node_weights,
            state.assignments,
            state.cluster_weights,
            state.cluster_sizes,
        )
        local = self._local
        bound = local.bound
        if bound is None or not bound.holds(arrays):
            bound = _bind_kernel(arrays, bound)
            if bound.copies is None:
                local.bound = bound
        return bound

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
        if lib is None:
            return reference_batch_moves(
                graph,
                state,
                batch,
                resolution,
                allow_escape=allow_escape,
                swap_avoidance=swap_avoidance,
                instr=instr,
            )
        # ``bound`` keeps any copies it points at alive over the call.
        bound = self._binding(graph, state)
        batch = np.ascontiguousarray(batch, dtype=np.int64)
        size = batch.size
        targets = np.empty(size, dtype=np.int64)
        gains = np.empty(size, dtype=np.float64)
        pairs = lib.repro_best_moves(
            bound.address,
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

    def single_move(
        self, graph, state, v, resolution, *, allow_escape=True, swap_avoidance=False
    ):
        return reference_single_move(
            graph,
            state,
            v,
            resolution,
            allow_escape=allow_escape,
            swap_avoidance=swap_avoidance,
        )

    def sweep(self, graph, state, order, resolution, *, allow_escape=True):
        from repro.core.state import ClusterState  # it imports this module

        lib = self.library.load()
        # The C loop commits as ``ClusterState.move_one`` does, with the
        # graph's node weights, into the arrays it reads; any other state
        # (``FaultyClusterState`` buffers, delays and duplicates writes),
        # or one whose arrays had to be copied, takes the dict loop.
        if (
            lib is not None
            and type(state) is ClusterState
            and state.node_weights is graph.node_weights
        ):
            bound = self._binding(graph, state)
            owned = (state.assignments, state.cluster_weights, state.cluster_sizes)
            copies = bound.copies
            if copies is None or all(c is a for c, a in zip(copies[4:], owned)):
                order = np.ascontiguousarray(order, dtype=np.int64)
                size = order.size
                movers = np.empty(size, dtype=np.int64)
                origins = np.empty(size, dtype=np.int64)
                targets = np.empty(size, dtype=np.int64)
                total_gain = np.zeros(1, dtype=np.float64)
                moved = lib.repro_sweep(
                    bound.address,
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
                    raise IndexError(
                        "native kernel: sweep vertex or label out of range"
                    )
                return (
                    movers[:moved],
                    origins[:moved],
                    targets[:moved],
                    float(total_gain[0]),
                )
        return reference_sweep(
            graph, state, order, resolution, allow_escape=allow_escape
        )


#: The fields :func:`pool_stats` returns, in ``repro_pool_stats``' order.
POOL_STATS = ("helpers", "split_windows", "dirty_scratch")


def usable_cores() -> int:
    """Cores this process may run on (``os.sched_getaffinity``): the
    threads one split job may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_stats() -> Optional[dict]:
    """The pool's counters in :data:`LIBRARY`.

    ``helpers`` threads started, BEST-MOVES windows evaluated on more
    than one thread (``split_windows``), and ``dirty_scratch``, the
    nonzero entries left in the helpers' scratch, which is 0 between
    jobs.  ``None`` without the library.  Starts no thread.
    """
    lib = LIBRARY.load()
    if lib is None:
        return None
    out = np.zeros(len(POOL_STATS), dtype=np.int64)
    lib.repro_pool_stats(out.ctypes.data)
    return dict(zip(POOL_STATS, out.tolist()))


class _RoundLocal(threading.local):
    """One thread's state for the round's C calls.

    ``commit`` is the commit binding (``None`` until the first commit);
    ``marks`` is :func:`neighbors`' bitmap, one bit per vertex, all zeros
    between calls, because the C loop clears what it sets.
    """

    def __init__(self) -> None:
        self.commit: Optional[_Bound] = None
        self.marks = np.zeros(0, dtype=np.uint64)


_ROUND = _RoundLocal()


def _usable(array, dtype) -> bool:
    """Whether C may read and write ``array`` in place."""
    return array.dtype == dtype and array.flags.c_contiguous


def _commit_binding(state) -> Optional[_Bound]:
    """This thread's commit binding of ``state``, or ``None`` when C
    cannot update its arrays in place.

    Rebuilt only when one of the four arrays it reads was replaced.  Its
    ``counts`` (zeros over every cluster id between calls, which the C
    loop restores) are the previous binding's when large enough, and its
    output buffer is the previous binding's.
    """
    arrays = (
        state.assignments,
        state.cluster_weights,
        state.cluster_sizes,
        state.node_weights,
    )
    previous = _ROUND.commit
    if previous is not None and previous.holds(arrays):
        return previous
    assignments, cluster_weights, cluster_sizes, node_weights = arrays
    if not (
        _usable(assignments, np.int64)
        and _usable(cluster_weights, np.float64)
        and _usable(cluster_sizes, np.int64)
        and _usable(node_weights, np.float64)
        and assignments.ndim == 1
        and node_weights.size >= assignments.size
    ):
        return None
    clusters = min(cluster_weights.size, cluster_sizes.size)
    counts = previous.scratch[0] if previous is not None else None
    if counts is None or counts.size < clusters:
        size = max(clusters, 2 * counts.size if counts is not None else 0)
        counts = np.zeros(size, dtype=np.int64)
    struct = Binding(
        None,
        None,
        None,
        node_weights.ctypes.data,
        assignments.ctypes.data,
        cluster_weights.ctypes.data,
        cluster_sizes.ctypes.data,
        assignments.size,
        clusters,
        None,
        None,
        None,
        counts.ctypes.data,
    )
    out = previous.out if previous is not None else np.empty(4 + 64, np.int64)
    bound = _Bound(arrays, None, struct, (counts,), out)
    _ROUND.commit = bound
    return bound


def commit(state, vertices, targets):
    """Apply one window of moves to ``state`` in C.

    Bit-identical to the NumPy body of ``ClusterState.apply_moves``:
    labels, then all decrements and then all increments of
    ``cluster_weights`` in window order (``np.add.at``'s order), then
    sizes.  Returns ``(moved, dec, inc)``, where ``dec`` and ``inc`` are
    the ``(retries, longest queue)`` of the two fetch-and-add windows
    (``None`` when nothing moved), or ``None`` when the caller must run
    the NumPy path: no library, state arrays C cannot update in place, or
    an out-of-range id (left for NumPy to handle as it always has).
    """
    lib = LIBRARY.load()
    if lib is None or vertices.shape != targets.shape or vertices.ndim != 1:
        return None
    bound = _commit_binding(state)
    if bound is None:
        return None
    vertices = np.ascontiguousarray(vertices, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    size = vertices.size
    out = bound.out
    if out.size < 4 + size:
        out = np.empty(4 + max(size, 2 * (out.size - 4)), dtype=np.int64)
        bound.out, bound.out_address = out, out.ctypes.data
    address = bound.out_address
    moved = lib.repro_commit(
        bound.address,
        _address(vertices),
        _address(targets),
        size,
        address + 32,  # the origins, after the four contention integers
        address,
    )
    if moved <= 0:
        return None if moved < 0 else (0, None, None)
    dec_distinct, dec_longest, inc_distinct, inc_longest = out[:4].tolist()
    return (
        moved,
        (moved - dec_distinct, dec_longest),
        (moved - inc_distinct, inc_longest),
    )


def _marks(words: int) -> np.ndarray:
    marks = _ROUND.marks
    if marks.size < words:
        marks = np.zeros(max(words, 2 * marks.size), dtype=np.uint64)
        _ROUND.marks = marks
    return marks


def neighbors(graph, ids):
    """The distinct neighbors of ``ids`` in ``graph``, ascending, in C.

    Returns ``(neighbors, gathered)``, where ``gathered`` counts every
    neighbor of every id, duplicates included; ``None`` without the
    library or when the CSR arrays are not int64 and contiguous.
    """
    lib = LIBRARY.load()
    offsets, adjacency = graph.offsets, graph.neighbors
    if lib is None or not (
        _usable(offsets, np.int64) and _usable(adjacency, np.int64)
    ):
        return None
    n = offsets.size - 1
    if n < 0 or adjacency.size != offsets[-1]:
        raise ValueError("native frontier: CSR array sizes do not match")
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    gathered = np.empty(1, dtype=np.int64)
    count = lib.repro_neighbors(
        offsets.ctypes.data,
        adjacency.ctypes.data,
        n,
        ids.ctypes.data,
        ids.size,
        _marks((n + 63) // 64).ctypes.data,
        out.ctypes.data,
        gathered.ctypes.data,
    )
    if count < 0:
        raise IndexError("native frontier: vertex id out of range")
    return out[:count], int(gathered[0])


def compress(graph, labels, num_super: int, self_loops):
    """The quotient graph's edges over the classes ``labels``, in C.

    Bit-identical to the NumPy semisort path of ``graphs.quotient``: the
    same ``offsets``, ``neighbors`` and ``weights``, and ``self_loops``
    (updated in place) gains the halved intra-class sums.  The rows are
    built on every :func:`usable_cores` core when the graph is large.
    Returns ``(offsets, neighbors, weights, inter-class arcs)``, or
    ``None`` without the library.
    """
    lib = LIBRARY.load()
    if lib is None or not _usable(self_loops, np.float64):
        return None
    offsets = np.ascontiguousarray(graph.offsets, dtype=np.int64)
    adjacency = np.ascontiguousarray(graph.neighbors, dtype=np.int64)
    weights = np.ascontiguousarray(graph.weights, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    m = adjacency.size
    if not (
        labels.size == offsets.size - 1
        and weights.size == m == offsets[-1]
        and self_loops.size == num_super
    ):
        raise ValueError("native compress: graph and label sizes do not match")
    out_offsets = np.empty(num_super + 1, dtype=np.int64)
    keys = np.empty(m, dtype=np.int64)
    sums = np.empty(m, dtype=np.float64)
    inter = np.empty(1, dtype=np.int64)
    kept = lib.repro_compress(
        offsets.ctypes.data,
        adjacency.ctypes.data,
        weights.ctypes.data,
        offsets.size - 1,
        labels.ctypes.data,
        num_super,
        self_loops.ctypes.data,
        usable_cores(),
        out_offsets.ctypes.data,
        keys.ctypes.data,
        sums.ctypes.data,
        inter.ctypes.data,
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
    the graph has an empty row at the end.  Bit-identical to the per-arc
    ``np.searchsorted`` of ``graphs.delta``; ``None`` without the library
    or when the CSR arrays are not int64 and contiguous.
    """
    lib = LIBRARY.load()
    offsets, adjacency = graph.offsets, graph.neighbors
    if lib is None or not (
        _usable(offsets, np.int64) and _usable(adjacency, np.int64)
    ):
        return None
    if offsets.size < 1 or adjacency.size != offsets[-1]:
        raise ValueError("native find_arcs: CSR array sizes do not match")
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
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
    the spliced arc count.  Returns ``(offsets, neighbors, weights)``,
    array for array the NumPy splice's, or ``None`` without the library.
    The C pass checks every arc it writes as ``CSRGraph._validate`` does
    (in range, not a self-loop) and raises :class:`GraphFormatError` on
    any violation, so the result needs no second validation.
    """
    lib = LIBRARY.load()
    if lib is None:
        return None
    offsets = np.ascontiguousarray(graph.offsets, dtype=np.int64)
    adjacency = np.ascontiguousarray(graph.neighbors, dtype=np.int64)
    weights = np.ascontiguousarray(graph.weights, dtype=np.float64)
    src, dst, w, pos, found = (
        np.ascontiguousarray(a, dtype=dt)
        for a, dt in zip(arcs, (np.int64, np.int64, np.float64, np.int64, np.bool_))
    )
    count = src.size
    if not (
        offsets.size >= 1
        and num_vertices >= offsets.size - 1
        and weights.size == adjacency.size == offsets[-1]
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
