"""Native BEST-MOVES batch kernel: ``native.c`` through ``ctypes``.

The vectorized kernel spends almost all of its time in NumPy's fixed
cost per call; the paper's implementation (§3) and Grappolo run the same
per-vertex accumulate-and-argmax loop in native code.  ``native.c`` is
that loop, written as :func:`~repro.kernels.reference.reference_single_move`
is: the same float operations in the same order, exact comparisons, the
same ``GAIN_EPS`` (passed in from :mod:`repro.kernels.base`), the same
lowest-id tiebreak, swap block and escape rule.  So it is bit-identical
to the dict oracle by construction (DESIGN.md §8), and one ``ctypes``
call evaluates a whole concurrency window.

The shared library is built lazily, on the first batch, never at import:

* ``gcc -O2 -ffp-contract=off -fPIC -shared``, never ``-ffast-math``, so
  float additions are neither reordered nor fused;
* into a per-user cache directory outside the source tree, named by a
  hash of the source, the flags and the compiler's identity (its resolved
  path, size and mtime, which change with its version), so a cached
  library is found again without running the compiler;
* through a unique temp file and ``os.replace``, so pool workers and
  parallel test runs never load a half-written library.

With no compiler, or when the build fails, the kernel warns once with a
``RuntimeWarning`` and delegates to ``vectorized``, which is legal
because the two are bit-identical.  The foreign call releases the GIL,
so the dense scratch arrays are per thread.  ``single_move`` and
``sweep`` keep the reference dict loop and the speculative sweep.
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
from repro.kernels.reference import reference_single_move
from repro.kernels.sweep import speculative_sweep
from repro.kernels.vectorized import VectorizedKernel
from repro.obs.instrument import M_KERNEL_SEGMENTS

SOURCE = Path(__file__).with_name("native.c")
#: The C compiler, looked up on ``PATH`` when the library is first needed.
COMPILER = "gcc"
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SYMBOL = "repro_best_moves"

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_ARGTYPES = (
    [_P] * 7
    + [_I64, _I64, _P, _I64, ctypes.c_double, ctypes.c_double]
    + [ctypes.c_int, ctypes.c_int]
    + [_P] * 5
)
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


class NativeLibrary:
    """The compiled kernel, loaded once per process on first use.

    ``function()`` returns the ``ctypes`` entry point, or ``None`` after
    warning once that the library cannot be built or loaded.
    """

    def __init__(self, cache_dirs=None) -> None:
        self._cache_dirs = cache_dirs
        self._lock = threading.Lock()
        self._function = None
        self._failed = False

    def function(self):
        if self._function is None and not self._failed:
            with self._lock:
                if self._function is None and not self._failed:
                    try:
                        self._function = self._load()
                    except (OSError, subprocess.SubprocessError) as exc:
                        self._failed = True
                        warnings.warn(
                            f"native kernel unavailable ({exc}); using the "
                            "bit-identical vectorized kernel instead",
                            RuntimeWarning,
                            stacklevel=3,
                        )
        return self._function

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
            function = getattr(lib, SYMBOL)
            function.argtypes = _ARGTYPES
            function.restype = ctypes.c_int64
            return function
        raise OSError("; ".join(errors))


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
    """Native accumulate-and-argmax loop; vectorized when it cannot build."""

    name = "native"

    def __init__(self, library: Optional[NativeLibrary] = None) -> None:
        self.library = library if library is not None else NativeLibrary()
        self._fallback = VectorizedKernel()
        self._local = _ThreadScratch()

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
        run = self.library.function()
        if run is None:
            return self._fallback.batch_moves(
                graph,
                state,
                batch,
                resolution,
                allow_escape=allow_escape,
                swap_avoidance=swap_avoidance,
                instr=instr,
            )
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
        # ``read`` keeps the arrays behind ``inputs`` alive over the call.
        inputs, read = local.inputs, arrays
        if not local.holds(arrays):
            inputs, read = local.bind(arrays)
        scratch = local.reserve(state.cluster_weights.size)
        batch = np.ascontiguousarray(batch, dtype=np.int64)
        size = batch.size
        targets = np.empty(size, dtype=np.int64)
        gains = np.empty(size, dtype=np.float64)
        pairs = run(
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

    def sweep(
        self, graph, state, order, resolution, *, allow_escape=True, instr=None
    ):
        return speculative_sweep(
            graph, state, order, resolution, allow_escape=allow_escape, instr=instr
        )
