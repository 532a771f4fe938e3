"""Array staging of an update batch against the per-update loop it replaced.

``DynamicClusterer._plan`` and ``_stage`` read a batch once into arrays
and fold update by update only the edges the batch names more than once.
The oracle below is the loop they replaced: one ``weight_after`` and one
staged edge per update, the intra-cluster delta summed from ``0.0`` in
batch order.  Both must agree on the pending entries, the vertex count,
the bits of the intra-cluster delta, every ``validate()`` reason and the
message a rejected batch raises, and a rejected batch must leave the
overlay untouched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DynamicClusterer
from repro.dynamic.updates import OPS, EdgeUpdate, UpdateBatch
from repro.errors import UpdateError
from repro.graphs.builders import graph_from_edges
from repro.graphs.delta import base_edge_weight
from repro.graphs.karate import karate_club_graph

pytestmark = pytest.mark.dynamic


def loop_plan(dc, updates):
    """``(current, new, reason)`` per update: the overlay's weight (a
    pending entry shadows the base) under the valid updates before it."""
    overlay = dc.overlay
    weights = {}
    plan = []
    for upd in updates:
        key = upd.key
        if key in weights:
            current = weights[key]
        else:
            current = overlay._pending.get(key, base_edge_weight(overlay.base, *key))
        try:
            new = weights[key] = upd.weight_after(current)
        except UpdateError as exc:
            plan.append((current, current, str(exc)))
        else:
            plan.append((current, new, None))
    return plan


def loop_stage(dc, batch, old_n):
    """The per-update staging loop: ``(intra delta, counts)``."""
    plan = loop_plan(dc, batch)
    for _, _, reason in plan:
        if reason is not None:
            raise UpdateError(reason)
    overlay = dc.overlay
    intra_delta = 0.0
    counts = {"insert": 0, "delete": 0, "reweight": 0}
    assignments = dc.state.assignments
    for upd, (current, new, _) in zip(batch, plan):
        overlay.ensure_vertex(upd.u)
        overlay.ensure_vertex(upd.v)
        overlay._pending[upd.key] = float(new)
        counts[upd.op] += 1
        if max(upd.u, upd.v) < old_n and assignments[upd.u] == assignments[upd.v]:
            intra_delta += new - current
    return intra_delta, counts


def weighted_karate():
    """Karate with fractional weights, so the delta's bits depend on the
    order of its additions."""
    u, v, _ = karate_club_graph().edge_list()
    weights = 0.1 * np.random.default_rng(7).integers(1, 30, size=u.size)
    return graph_from_edges(np.stack([u, v], axis=1), weights=weights)


GRAPH = weighted_karate()
N = GRAPH.num_vertices
LABELS = np.arange(N) // 4
EDGES = [(int(a), int(b)) for a, b in zip(*GRAPH.edge_list()[:2])]


def clusterer():
    config = ClusteringConfig(resolution=0.1, seed=1)
    return DynamicClusterer(GRAPH, LABELS.copy(), config)


#: A small pool of pairs, so batches name edges more than once: live
#: edges, absent pairs inside a cluster and across clusters, and pairs
#: with new vertex ids.
ABSENT = [(4, 5), (8, 9), (0, 9)]
PAIRS = EDGES[:6] + ABSENT + [(2, N), (N, N + 2), (N + 1, 3)]
assert not set(ABSENT) & set(EDGES) and LABELS[4] == LABELS[5] != LABELS[9]

updates = st.builds(
    lambda op, pair, flip, weight: EdgeUpdate(
        op, *(pair[::-1] if flip else pair), weight
    ),
    st.sampled_from(OPS),
    st.sampled_from(PAIRS),
    st.booleans(),
    # 0 and the base weights (0.1 multiples) reweight to 0 and to the
    # current weight.
    st.sampled_from([0.0, 0.1, 0.3, 1.0, 1.7, 2.5]),
)


@given(st.lists(st.lists(updates, max_size=12), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_array_staging_equals_the_loop(batches):
    want, got = clusterer(), clusterer()
    for updates_ in batches:
        batch = UpdateBatch(updates_)
        assert got.validate(batch) == [r for _, _, r in loop_plan(want, batch)]
        pending = list(got.overlay._pending.items())
        n = got.overlay.num_vertices
        try:
            want_delta, want_counts = loop_stage(want, batch, N)
        except UpdateError as exc:
            with pytest.raises(UpdateError) as raised:
                got._stage(batch, N)
            assert str(raised.value) == str(exc)
            assert list(got.overlay._pending.items()) == pending
            assert got.overlay.num_vertices == n
            continue
        got_delta, got_counts, touched = got._stage(batch, N)
        assert got_delta.hex() == want_delta.hex()
        assert got_counts == want_counts
        assert np.array_equal(np.unique(touched), batch.touched_vertices())
        assert list(got.overlay._pending.items()) == list(
            want.overlay._pending.items()
        )
        assert got.overlay.num_vertices == want.overlay.num_vertices


def test_an_empty_batch_stages_nothing():
    dc = clusterer()
    assert dc.validate([]) == []
    delta, counts, touched = dc._stage(UpdateBatch([]), N)
    assert delta == 0.0 and touched.size == 0
    assert counts == {"insert": 0, "delete": 0, "reweight": 0}
    assert dc.overlay.pending_count == 0


def test_a_repeated_edge_folds_in_batch_order():
    dc = clusterer()
    u, v = EDGES[0]
    batch = UpdateBatch(
        [
            EdgeUpdate("delete", u, v),
            EdgeUpdate("reweight", v, u, 2.0),  # absent now: rejected
            EdgeUpdate("insert", u, v, 0.5),
            EdgeUpdate("insert", u, v, 0.25),
            EdgeUpdate("delete", 0, 9),  # absent in the base: rejected
        ]
    )
    reasons = dc.validate(batch)
    assert reasons[0] is None and reasons[2] is None and reasons[3] is None
    assert reasons[1] == f"cannot reweight absent edge ({v}, {u}); use an insert"
    assert reasons[4] == "cannot delete absent edge (0, 9)"
    with pytest.raises(UpdateError, match="cannot reweight absent edge"):
        dc._stage(batch, N)
    assert dc.overlay.pending_count == 0
