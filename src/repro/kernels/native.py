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

Three more entry points run the rest of a round, each bit-identical to
the NumPy code it replaces, which stays as the no-compiler path and the
test oracle: :func:`commit` (``ClusterState.apply_moves``),
:func:`neighbors` (``edge_map``) and :func:`compress` (the quotient
graph's edges).  They return ``None`` when the library does not load,
and the caller runs its NumPy path.

The shared library is built lazily, on first use, never at import:

* ``gcc -O2 -ffp-contract=off -fPIC -shared``, never ``-ffast-math``, so
  float additions are neither reordered nor fused;
* into a per-user cache directory outside the source tree, named by a
  hash of the source, the flags and the compiler's identity (its resolved
  path, size and mtime, which change with its version), so a cached
  library is found again without running the compiler;
* through a unique temp file and ``os.replace``, so pool workers and
  parallel test runs never load a half-written library.

With no compiler, or when the build fails, :data:`LIBRARY` warns once
with a ``RuntimeWarning``; the kernel then delegates to the
``reference`` dict loops, which is legal because the two are
bit-identical.  The foreign calls release the GIL, so scratch arrays are
per thread.  ``single_move`` keeps the reference dict loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

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
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_INT = ctypes.c_int
#: The two kernel entry points start with the seven graph/state
#: pointers, the vertex and cluster-id counts, the visit list and its
#: length, the resolution and GAIN_EPS; then come flags, scratch and
#: output pointers.
_HEAD = [_P] * 7 + [_I64, _I64, _P, _I64, ctypes.c_double, ctypes.c_double]
SIGNATURES = {
    "repro_best_moves": _HEAD + [_INT, _INT] + [_P] * 5,
    "repro_sweep": _HEAD + [_INT] + [_P] * 7,
    "repro_commit": [_P, _P, _I64] + [_P] * 4 + [_I64, _I64] + [_P] * 3,
    "repro_neighbors": [_P, _P, _I64, _P, _I64] + [_P] * 3,
    "repro_compress": [_P, _P, _P, _I64, _P, _I64] + [_P] * 7,
}
#: dtypes of graph.offsets / neighbors / weights / node_weights and
#: state.assignments / cluster_weights / cluster_sizes, read in place.
_INPUT_DTYPES = (
    np.int64, np.int64, np.float64, np.float64, np.int64, np.float64, np.int64,
)
#: ``struct arc`` in native.c: one class id and one weight.
_ARC = np.dtype([("key", np.int64), ("weight", np.float64)])


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


#: The process's library: the default kernel and the round's commit,
#: frontier and compression all load it.
LIBRARY = NativeLibrary()


def _describe(exc: Exception) -> str:
    if isinstance(exc, subprocess.CalledProcessError):
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        return f"compiler exited {exc.returncode}: {stderr[:200]}"
    return str(exc)


class _ThreadScratch(threading.local):
    """One thread's dense scratch arrays and bound input pointers.

    ``buffers`` are the C loop's ``acc``, ``seen`` and ``touched``; the
    first two hold zeros between calls (the loop resets what it
    touches).  ``inputs`` caches the seven graph/state pointers while
    the same arrays come back, which is every window of a level.  The
    arrays are held by weak reference, so the cache never keeps a
    finished run's graph alive.
    """

    def __init__(self) -> None:
        self.refs = ()
        self.inputs = ()
        self.size = -1
        self.buffers = ()
        self.scratch = ()

    def bind(self, arrays) -> tuple:
        """``(inputs, arrays read)``: the seven pointers plus the vertex
        and cluster-id counts the C loop bounds-checks against.

        Arrays already contiguous with the kernel's dtype are read in
        place and their pointers cached.  Anything else is copied for
        this call only, since a copy of the state would go stale.
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
            raise ValueError(
                "native kernel: graph and state array sizes do not match"
            )
        inputs = tuple(a.ctypes.data for a in usable) + (n, cw.size)
        if all(u is a for u, a in zip(usable, arrays)):
            self.refs = tuple(weakref.ref(a) for a in arrays)
            self.inputs = inputs
        return inputs, usable

    def holds(self, arrays) -> bool:
        """Whether ``inputs`` points at exactly these (live) arrays."""
        return len(self.refs) == len(arrays) and all(
            ref() is a for ref, a in zip(self.refs, arrays)
        )

    def reserve(self, clusters: int) -> tuple:
        """Scratch pointers covering cluster ids ``[0, clusters)``."""
        if clusters > self.size:
            size = max(clusters, 2 * self.size)
            acc = np.zeros(size, dtype=np.float64)
            seen = np.zeros(size, dtype=np.uint8)
            touched = np.empty(size, dtype=np.int64)
            self.size = size
            self.buffers = (acc, seen, touched)
            self.scratch = tuple(a.ctypes.data for a in self.buffers)
        return self.scratch


class NativeKernel(MoveKernel):
    """Native batch and sweep loops; the reference loops when it cannot build."""

    name = "native"

    def __init__(self, library: Optional[NativeLibrary] = None) -> None:
        self.library = library if library is not None else LIBRARY
        self._local = _ThreadScratch()

    def _bind(self, graph, state) -> tuple:
        """``(inputs, arrays read, scratch)`` for one call on ``state``.

        ``arrays read`` are the seven arrays behind ``inputs``; holding
        them keeps those alive over the call.
        """
        local = self._local
        arrays = (
            graph.offsets,
            graph.neighbors,
            graph.weights,
            graph.node_weights,
            state.assignments,
            state.cluster_weights,
            state.cluster_sizes,
        )
        inputs, read = local.inputs, arrays
        if not local.holds(arrays):
            inputs, read = local.bind(arrays)
        return inputs, read, local.reserve(state.cluster_weights.size)

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
        # ``read`` keeps the arrays behind ``inputs`` alive over the call.
        inputs, read, scratch = self._bind(graph, state)
        batch = np.ascontiguousarray(batch, dtype=np.int64)
        size = batch.size
        targets = np.empty(size, dtype=np.int64)
        gains = np.empty(size, dtype=np.float64)
        pairs = lib.repro_best_moves(
            *inputs,
            batch.ctypes.data,
            size,
            float(resolution),
            GAIN_EPS,
            bool(allow_escape),
            bool(swap_avoidance),
            *scratch,
            targets.ctypes.data,
            gains.ctypes.data,
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
            inputs, read, scratch = self._bind(graph, state)
            owned = (state.assignments, state.cluster_weights, state.cluster_sizes)
            if all(r is a for r, a in zip(read[4:], owned)):
                order = np.ascontiguousarray(order, dtype=np.int64)
                size = order.size
                movers = np.empty(size, dtype=np.int64)
                origins = np.empty(size, dtype=np.int64)
                targets = np.empty(size, dtype=np.int64)
                total_gain = np.zeros(1, dtype=np.float64)
                moved = lib.repro_sweep(
                    *inputs,
                    order.ctypes.data,
                    size,
                    float(resolution),
                    GAIN_EPS,
                    bool(allow_escape),
                    *scratch,
                    movers.ctypes.data,
                    origins.ctypes.data,
                    targets.ctypes.data,
                    total_gain.ctypes.data,
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


class _Zeros(threading.local):
    """One thread's all-zero scratch arrays for the round's C calls.

    ``counts`` (:func:`commit`'s per-cluster contention counters) and
    ``marks`` (:func:`neighbors`' bitmap, one bit per vertex) hold zeros
    between calls, because the C loops clear what they set.
    """

    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)
        self.marks = np.zeros(0, dtype=np.uint64)

    def reserve(self, name: str, size: int) -> np.ndarray:
        array = getattr(self, name)
        if array.size < size:
            array = np.zeros(max(size, 2 * array.size), dtype=array.dtype)
            setattr(self, name, array)
        return array


_ZEROS = _Zeros()


def _usable(array, dtype) -> bool:
    """Whether C may read and write ``array`` in place."""
    return array.dtype == dtype and array.flags.c_contiguous


def commit(state, vertices, targets):
    """Apply one window of moves to ``state`` in C.

    Bit-identical to the NumPy body of ``ClusterState.apply_moves``:
    labels, then all decrements and then all increments of
    ``cluster_weights`` in window order (``np.add.at``'s order), then
    sizes.  Returns ``(moved, dec, inc)``, where ``dec`` and ``inc`` are
    the ``(retries, longest queue)`` of the two fetch-and-add windows, or
    ``None`` when the caller must run the NumPy path: no library, state
    arrays C cannot update in place, or an out-of-range id (left for
    NumPy to handle as it always has).
    """
    lib = LIBRARY.load()
    if lib is None or vertices.shape != targets.shape or vertices.ndim != 1:
        return None
    assignments = state.assignments
    cluster_weights = state.cluster_weights
    cluster_sizes = state.cluster_sizes
    node_weights = state.node_weights
    if not (
        _usable(assignments, np.int64)
        and _usable(cluster_weights, np.float64)
        and _usable(cluster_sizes, np.int64)
        and _usable(node_weights, np.float64)
        and node_weights.size >= assignments.size
    ):
        return None
    vertices = np.ascontiguousarray(vertices, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    clusters = min(cluster_weights.size, cluster_sizes.size)
    origins = np.empty(vertices.size, dtype=np.int64)
    stats = np.empty(4, dtype=np.int64)
    moved = lib.repro_commit(
        vertices.ctypes.data,
        targets.ctypes.data,
        vertices.size,
        assignments.ctypes.data,
        cluster_weights.ctypes.data,
        cluster_sizes.ctypes.data,
        node_weights.ctypes.data,
        assignments.size,
        clusters,
        origins.ctypes.data,
        _ZEROS.reserve("counts", clusters).ctypes.data,
        stats.ctypes.data,
    )
    if moved < 0:
        return None
    dec_distinct, dec_longest, inc_distinct, inc_longest = stats.tolist()
    return (
        moved,
        (moved - dec_distinct, dec_longest),
        (moved - inc_distinct, inc_longest),
    )


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
        _ZEROS.reserve("marks", (n + 63) // 64).ctypes.data,
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
    (updated in place) gains the halved intra-class sums.  Returns
    ``(offsets, neighbors, weights, inter-class arcs)``, or ``None``
    without the library.  The scratch is allocated per call.
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
    dst_starts = np.zeros(num_super + 1, dtype=np.int64)
    by_dst = np.empty(m, dtype=_ARC)
    intra = np.zeros(num_super, dtype=np.float64)
    out_offsets = np.zeros(num_super + 1, dtype=np.int64)
    edges = np.empty(m, dtype=_ARC)
    inter = np.empty(1, dtype=np.int64)
    kept = lib.repro_compress(
        offsets.ctypes.data,
        adjacency.ctypes.data,
        weights.ctypes.data,
        offsets.size - 1,
        labels.ctypes.data,
        num_super,
        dst_starts.ctypes.data,
        by_dst.ctypes.data,
        intra.ctypes.data,
        self_loops.ctypes.data,
        out_offsets.ctypes.data,
        edges.ctypes.data,
        inter.ctypes.data,
    )
    if kept < 0:
        raise IndexError("native compress: label out of range")
    del by_dst
    edges = edges[:kept]
    return (
        out_offsets,
        np.ascontiguousarray(edges["key"]),
        np.ascontiguousarray(edges["weight"]),
        int(inter[0]),
    )
