"""NumPy references for the native entry points, and a context that runs them.

``repro.kernels.native`` is the only implementation of the BEST-MOVES
loops, the frontier gather, the quotient compression and the dynamic
graph's arc search and splice.  Each function here computes what one of
those C calls returns, the plain NumPy way, so tests can compare the C
call with it bit for bit.  :func:`reference_paths` routes all seven
entry points to these references and to the dict loops of
:mod:`repro.kernels.reference`, so a whole run can be compared with the
same run on the C paths.
"""

import contextlib
from unittest import mock

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.kernels import native
from repro.kernels.reference import reference_batch_moves, reference_sweep
from repro.parallel.vertex_subset import should_densify


def row_arcs(offsets, ids):
    """The arc indices of the CSR rows ``ids``, row after row."""
    starts = offsets[ids]
    lens = offsets[ids + 1] - starts
    first = np.cumsum(lens) - lens
    return np.repeat(starts - first, lens) + np.arange(lens.sum(), dtype=np.int64)


def gather_neighbors(graph, ids):
    """:func:`native.neighbors`: ``(distinct neighbors of ids, ascending;
    neighbors gathered, duplicates included)``, by the direction
    ``edge_map``'s cost model picks: a gather of the rows ``ids`` (sparse)
    or a scan of every arc (dense)."""
    ids = np.asarray(ids, dtype=np.int64)
    n = graph.num_vertices
    gathered = int((graph.offsets[ids + 1] - graph.offsets[ids]).sum())
    if not should_densify(ids.size, gathered, graph.num_directed_edges):
        return np.unique(graph.neighbors[row_arcs(graph.offsets, ids)]), gathered
    # A vertex is a neighbor iff one of its arcs ends in ``ids`` (the
    # graphs are symmetric).
    in_ids = np.zeros(n, dtype=bool)
    in_ids[ids] = True
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.offsets))
    hit = np.zeros(n, dtype=bool)
    hit[src[in_ids[graph.neighbors]]] = True
    return np.flatnonzero(hit).astype(np.int64), gathered


def compress_arcs(graph, labels, num_super, self_loops):
    """:func:`native.compress`: a semisort of the inter-class arcs by
    ``(source class, destination class)`` key with ``np.bincount`` sums.

    Returns ``(offsets, neighbors, weights, inter-class arcs)`` and adds
    the halved intra-class sums to ``self_loops`` in place.
    """
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.offsets))
    csrc = labels[src]
    cdst = labels[graph.neighbors]
    intra = csrc == cdst
    if intra.any():
        # Each undirected intra-class edge appears twice in the arcs.
        self_loops += (
            np.bincount(csrc[intra], weights=graph.weights[intra], minlength=num_super)
            / 2.0
        )
    keys = csrc[~intra] * np.int64(num_super) + cdst[~intra]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(
        inverse.ravel(), weights=graph.weights[~intra], minlength=unique_keys.size
    )
    offsets = np.zeros(num_super + 1, dtype=np.int64)
    np.cumsum(np.bincount(unique_keys // num_super, minlength=num_super), out=offsets[1:])
    return offsets, unique_keys % num_super, sums, int(keys.size)


def search_arcs(graph, src, dst):
    """:func:`native.find_arcs`: one ``searchsorted`` per arc."""
    nbrs, n = graph.neighbors, graph.num_vertices
    lo = graph.offsets[np.minimum(src, n)]
    hi = graph.offsets[np.minimum(src + 1, n)]
    rows = zip(lo.tolist(), hi.tolist(), dst.tolist())
    pos = lo + np.array([np.searchsorted(nbrs[a:b], d) for a, b, d in rows], int)
    found = pos < hi
    found[found] = nbrs[pos[found]] == dst[found]
    return pos, found


def splice_arrays(base, n, arcs):
    """:func:`native.splice`: ``(offsets, neighbors, weights)`` of ``base``
    over ``n`` vertices with the staged ``arcs`` (``_pending_arcs``'
    tuple) reweighted, dropped or placed, by one NumPy delete/insert per
    array and a cumsum of per-row degree deltas."""
    src, dst, w, pos, found = arcs
    live = w != 0.0
    weights = base.weights.copy()
    weights[pos[found & live]] = w[found & live]
    gone, new = found & ~live, ~found & live
    drop = pos[gone]
    # Insertion points shift left by the deletions before them.
    at = pos[new] - np.searchsorted(drop, pos[new])
    neighbors = np.insert(np.delete(base.neighbors, drop), at, dst[new])
    weights = np.insert(np.delete(weights, drop), at, w[new])
    degree_delta = np.bincount(src[new], minlength=n)
    degree_delta -= np.bincount(src[gone], minlength=n)
    offsets = np.concatenate(
        [base.offsets, np.full(n - base.num_vertices, base.offsets[-1])]
    )
    offsets[1:] += np.cumsum(degree_delta)
    return offsets, neighbors, weights


def _validated_splice(base, n, arcs, capacity):
    """:func:`splice_arrays`, refusing a result that is not valid CSR with
    ``GraphFormatError``, as the C splice refuses a bad staged arc."""
    topology = splice_arrays(base, n, arcs)
    CSRGraph(*topology)
    return topology


def _batch_moves(graph, state, batch, resolution, *, threads=1, **kwargs):
    return reference_batch_moves(graph, state, batch, resolution, **kwargs)


@contextlib.contextmanager
def reference_paths():
    """Run every native entry point's reference instead of C.

    ``batch_moves`` and ``sweep`` run the dict loops, ``round`` declines
    (so rounds take the per-window loop with ``apply_moves``' NumPy
    commit), and the frontier gather, compression, arc search and splice
    run the NumPy references above.
    """
    patches = (
        mock.patch.object(native.KERNEL, "batch_moves", _batch_moves),
        mock.patch.object(native.KERNEL, "sweep", reference_sweep),
        mock.patch.object(native.KERNEL, "round", lambda *args, **kwargs: None),
        mock.patch.object(native, "neighbors", gather_neighbors),
        mock.patch.object(native, "compress", compress_arcs),
        mock.patch.object(native, "find_arcs", search_arcs),
        mock.patch.object(native, "splice", _validated_splice),
    )
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield
