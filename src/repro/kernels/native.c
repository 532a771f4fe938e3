/*
 * Native BEST-MOVES round (DESIGN.md section 8).
 *
 * `evaluate` finds one vertex's best move against the current state,
 * following reference_single_move (kernels/reference.py) operation for
 * operation:
 *
 *   - S(v, c) accumulates into the dense scratch array `acc` in CSR
 *     adjacency order, starting from 0.0, exactly as the dict does; a
 *     separate `seen` mark records every neighbor cluster, so a cluster
 *     whose weights sum to zero is still a candidate;
 *   - `touched` lists the neighbor clusters in first-seen order, which is
 *     the dict's insertion order, and the candidate scan walks it;
 *   - stay and gain use the same float operations in the same order, and
 *     every comparison is exact, with GAIN_EPS passed in by the caller;
 *   - ties go to the lowest cluster id, and the swap-avoidance block and
 *     the escape-to-empty-home-slot rule are the oracle's.
 *
 * Two entry points call it:
 *
 *   - repro_best_moves evaluates a whole batch against one snapshot
 *     (reference_batch_moves);
 *   - repro_sweep visits vertices in order and commits each improving
 *     move at once, as reference_sweep does through
 *     ClusterState.move_one.
 *
 * Three more run the rest of a round, each matching its NumPy path bit
 * for bit:
 *
 *   - repro_commit applies one concurrency window of moves
 *     (ClusterState.apply_moves) and counts its fetch-and-add contention;
 *   - repro_neighbors is the frontier's neighbor set (edge_map);
 *   - repro_compress builds the quotient graph's edges
 *     (graphs/quotient.py) with two counting sorts and a merge.
 *
 * The three per-window entry points (repro_best_moves, repro_sweep and
 * repro_commit) read the graph, the state and their scratch through a
 * `struct binding` that the caller fills once per level and thread, so
 * each call passes only its window, its settings and its outputs.
 * repro_neighbors and repro_compress run once per round or level and
 * take their arrays directly.
 *
 * Build with -ffp-contract=off and never -ffast-math: additions must be
 * neither reordered nor fused for the results to be bit-identical.
 *
 * For repro_best_moves and repro_sweep the caller guarantees that the
 * binding's graph is valid CSR over `num_vertices` vertices, that its
 * state arrays cover `num_clusters >= num_vertices` cluster ids, and that
 * `acc` and `seen` hold zeros over every cluster id on entry.  `evaluate`
 * resets only the entries it touched, so they hold zeros again on return.  Every entry point returns -1 when a visited
 * vertex or a label is out of range.
 */
#include <math.h>
#include <stdint.h>

/* Batch positions ahead of the current vertex for each prefetch stage. */
#define AHEAD_VERTEX 8
#define AHEAD_ROW 4
#define AHEAD_LABELS 2
/* Neighbor labels prefetched per row in the last stage. */
#define LABELS_PER_ROW 16

/*
 * The arrays one level's per-window calls read and write, bound once per
 * level and thread: the graph, the state, the vertex and cluster-id
 * counts, and this thread's scratch.  The layout is mirrored by
 * `Binding` in native.py.  A commit binding leaves the graph's CSR
 * pointers null and binds the state's own node weights; it needs only
 * `counts` (zeros over every cluster id between calls).
 */
struct binding {
    const int64_t *offsets;
    const int64_t *neighbors;
    const double *weights;
    const double *node_weights;
    int64_t *assignments;
    double *cluster_weights;
    int64_t *cluster_sizes;
    int64_t num_vertices;
    int64_t num_clusters;
    double *acc;
    unsigned char *seen;
    int64_t *touched;
    int64_t *counts;
};

/* One call's settings. */
struct settings {
    double resolution;
    double gain_eps;
    int allow_escape;
    int swap_avoidance;
};

static void reset(
    double *acc, unsigned char *seen, const int64_t *touched, int64_t count)
{
    for (int64_t j = 0; j < count; ++j) {
        acc[touched[j]] = 0.0;
        seen[touched[j]] = 0;
    }
}

/* Writes v's best target and its gain over staying; returns the number of
 * neighbor clusters evaluated, or -1 when v or a label is out of range. */
static inline __attribute__((always_inline)) int64_t evaluate(
    const struct binding *s, const struct settings *opt, int64_t v,
    int64_t *target, double *gain)
{
    const int64_t *assignments = s->assignments;
    const double *cluster_weights = s->cluster_weights;
    const int64_t *cluster_sizes = s->cluster_sizes;
    double *acc = s->acc;
    unsigned char *seen = s->seen;
    int64_t *touched = s->touched;

    if (v < 0 || v >= s->num_vertices || assignments[v] < 0
        || assignments[v] >= s->num_clusters) {
        return -1;
    }
    int64_t count = 0;
    for (int64_t e = s->offsets[v]; e < s->offsets[v + 1]; ++e) {
        const int64_t c = assignments[s->neighbors[e]];
        if (c < 0 || c >= s->num_clusters) {
            reset(acc, seen, touched, count);
            return -1;
        }
        if (!seen[c]) {
            seen[c] = 1;
            touched[count++] = c;
        }
        acc[c] += s->weights[e];
    }

    const double resolution = opt->resolution;
    const int64_t current = assignments[v];
    const double k_v = s->node_weights[v];
    const double stay =
        acc[current] - resolution * k_v * (cluster_weights[current] - k_v);
    const int own_singleton = cluster_sizes[current] == 1;
    double best_ext_gain = -INFINITY;
    int64_t best_ext_cluster = -1;
    for (int64_t j = 0; j < count; ++j) {
        const int64_t c = touched[j];
        if (c == current) {
            continue;
        }
        if (opt->swap_avoidance && own_singleton && c > current
            && cluster_sizes[c] == 1) {
            continue;
        }
        const double g = acc[c] - resolution * k_v * cluster_weights[c];
        if (g > best_ext_gain
            || (g == best_ext_gain && c < best_ext_cluster)) {
            best_ext_gain = g;
            best_ext_cluster = c;
        }
    }

    double best_gain = stay;
    int64_t best_cluster = current;
    if (best_ext_cluster >= 0 && best_ext_gain > stay + opt->gain_eps) {
        best_gain = best_ext_gain;
        best_cluster = best_ext_cluster;
    }
    if (opt->allow_escape && cluster_sizes[v] == 0
        && best_gain < -opt->gain_eps) {
        best_cluster = v;
        best_gain = 0.0;
    }
    *target = best_cluster;
    *gain = best_gain - stay;

    reset(acc, seen, touched, count);
    return count;
}

/*
 * Evaluates every batch vertex against one state snapshot.  Returns the
 * number of (vertex, neighbor cluster) pairs evaluated.
 *
 * The batch visits rows in random order, so the loop is bound by memory
 * latency, not arithmetic.  It prefetches ahead of itself in three
 * stages: a vertex's own entries, then its adjacency row and its cluster
 * weight, then its first neighbors' labels.  Prefetches change no value.
 */
int64_t repro_best_moves(
    const struct binding *bound,
    const int64_t *batch,
    int64_t batch_size,
    double resolution,
    double gain_eps,
    int allow_escape,
    int swap_avoidance,
    int64_t *out_targets,
    double *out_gains)
{
    /* A local copy: writes through the scratch pointers cannot alias it,
     * so its fields stay in registers. */
    const struct binding s = *bound;
    const struct settings opt = {
        resolution, gain_eps, allow_escape, swap_avoidance,
    };
    const int64_t *offsets = s.offsets;
    const int64_t *neighbors = s.neighbors;
    const double *weights = s.weights;
    const double *node_weights = s.node_weights;
    const int64_t *assignments = s.assignments;
    const double *cluster_weights = s.cluster_weights;
    const int64_t *cluster_sizes = s.cluster_sizes;
    int64_t pairs = 0;
    for (int64_t i = 0; i < batch_size; ++i) {
        /* Inline on purpose: gcc -O2 drops a helper function whose only
         * effect is prefetching. */
        if (i + AHEAD_VERTEX < batch_size) {
            const int64_t u = batch[i + AHEAD_VERTEX];
            __builtin_prefetch(&offsets[u]);
            __builtin_prefetch(&node_weights[u]);
            __builtin_prefetch(&assignments[u]);
            __builtin_prefetch(&cluster_sizes[u]);
        }
        if (i + AHEAD_ROW < batch_size) {
            const int64_t u = batch[i + AHEAD_ROW];
            __builtin_prefetch(&neighbors[offsets[u]]);
            __builtin_prefetch(&weights[offsets[u]]);
            __builtin_prefetch(&cluster_weights[assignments[u]]);
        }
        if (i + AHEAD_LABELS < batch_size) {
            const int64_t u = batch[i + AHEAD_LABELS];
            int64_t end = offsets[u] + LABELS_PER_ROW;
            if (end > offsets[u + 1]) {
                end = offsets[u + 1];
            }
            for (int64_t e = offsets[u]; e < end; ++e) {
                __builtin_prefetch(&assignments[neighbors[e]]);
            }
        }

        const int64_t count =
            evaluate(&s, &opt, batch[i], &out_targets[i], &out_gains[i]);
        if (count < 0) {
            return -1;
        }
        pairs += count;
    }
    return pairs;
}

/*
 * One sequential sweep over `order` with swap avoidance off: each vertex
 * is evaluated against the live state, and a move with positive gain is
 * applied at once, exactly as ClusterState.move_one applies it.  Movers,
 * their origins and targets go to the caller's arrays in visit order,
 * and `*out_total_gain` is their gains added in that order from 0.0.
 * Returns the number of movers.
 */
int64_t repro_sweep(
    const struct binding *bound,
    const int64_t *order,
    int64_t order_size,
    double resolution,
    double gain_eps,
    int allow_escape,
    int64_t *out_movers,
    int64_t *out_origins,
    int64_t *out_targets,
    double *out_total_gain)
{
    const struct binding s = *bound;
    const struct settings opt = {resolution, gain_eps, allow_escape, 0};
    const double *node_weights = s.node_weights;
    int64_t *assignments = s.assignments;
    double *cluster_weights = s.cluster_weights;
    int64_t *cluster_sizes = s.cluster_sizes;
    int64_t moved = 0;
    double total = 0.0;
    for (int64_t i = 0; i < order_size; ++i) {
        const int64_t v = order[i];
        int64_t target;
        double gain;
        if (evaluate(&s, &opt, v, &target, &gain) < 0) {
            return -1;
        }
        if (gain > 0.0) {
            const int64_t old = assignments[v];
            const double k = node_weights[v];
            assignments[v] = target;
            cluster_weights[old] -= k;
            cluster_weights[target] += k;
            cluster_sizes[old] -= 1;
            cluster_sizes[target] += 1;
            out_movers[moved] = v;
            out_origins[moved] = old;
            out_targets[moved] = target;
            total += gain;
            ++moved;
        }
    }
    *out_total_gain = total;
    return moved;
}

/* Counts one fetch-and-add window: the movers' `clusters` in `counts`,
 * which it leaves all zeros, into stats[0] (distinct clusters) and
 * stats[1] (the longest queue). */
static void contention(
    const int64_t *clusters, const int64_t *origins, const int64_t *targets,
    int64_t size, int64_t *counts, int64_t *stats)
{
    int64_t distinct = 0;
    int64_t longest = 0;
    for (int64_t i = 0; i < size; ++i) {
        if (origins[i] != targets[i]) {
            const int64_t q = ++counts[clusters[i]];
            distinct += q == 1;
            if (q > longest) {
                longest = q;
            }
        }
    }
    for (int64_t i = 0; i < size; ++i) {
        counts[clusters[i]] = 0;
    }
    stats[0] = distinct;
    stats[1] = longest;
}

/*
 * Commits one concurrency window to the bound state: every vertices[i]
 * whose label differs from targets[i] moves there, as
 * ClusterState.apply_moves does with NumPy, in four steps:
 *
 *   - reads every origin before writing any label, keeping them in
 *     `origins` (window-sized scratch);
 *   - sets the movers' labels, in window order;
 *   - applies all decrements, then all increments, to cluster_weights in
 *     window order, which is np.add.at's order, and then moves the sizes;
 *   - counts each fetch-and-add window's updates per cluster in the
 *     binding's `counts` (zeros over every cluster id on entry, and again
 *     on return).
 *
 * `stats` receives the distinct clusters and the longest queue of the
 * decrement window, then of the increment window.  Returns the number of
 * movers, or -1, before changing anything, when an id is out of range.
 * A window without movers returns 0 and leaves `stats` unwritten.
 */
int64_t repro_commit(
    const struct binding *b,
    const int64_t *vertices,
    const int64_t *targets,
    int64_t size,
    int64_t *origins,
    int64_t *stats)
{
    int64_t *assignments = b->assignments;
    double *cluster_weights = b->cluster_weights;
    int64_t *cluster_sizes = b->cluster_sizes;
    const double *node_weights = b->node_weights;
    const int64_t num_vertices = b->num_vertices;
    const int64_t num_clusters = b->num_clusters;
    int64_t *counts = b->counts;
    int64_t moved = 0;
    for (int64_t i = 0; i < size; ++i) {
        const int64_t v = vertices[i];
        if (v < 0 || v >= num_vertices || targets[i] < 0
            || targets[i] >= num_clusters || assignments[v] < 0
            || assignments[v] >= num_clusters) {
            return -1;
        }
        origins[i] = assignments[v];
        moved += origins[i] != targets[i];
    }
    if (moved == 0) {
        return 0;
    }
    for (int64_t i = 0; i < size; ++i) {
        if (origins[i] != targets[i]) {
            assignments[vertices[i]] = targets[i];
        }
    }
    for (int64_t i = 0; i < size; ++i) {
        if (origins[i] != targets[i]) {
            cluster_weights[origins[i]] += -node_weights[vertices[i]];
        }
    }
    for (int64_t i = 0; i < size; ++i) {
        if (origins[i] != targets[i]) {
            cluster_weights[targets[i]] += node_weights[vertices[i]];
        }
    }
    for (int64_t i = 0; i < size; ++i) {
        if (origins[i] != targets[i]) {
            cluster_sizes[origins[i]] -= 1;
            cluster_sizes[targets[i]] += 1;
        }
    }
    contention(origins, origins, targets, size, counts, stats);
    contention(targets, origins, targets, size, counts, stats + 2);
    return moved;
}

/*
 * The distinct neighbors of the frontier `ids`, ascending, into `out`:
 * one pass sets every neighbor's bit in the bitmap `marks` (all zeros on
 * entry, and again on return), and one ascending scan over its words
 * collects and clears the set bits, 64 vertices per word, so a small
 * frontier does not pay a byte per vertex.  That is np.unique's order
 * over the gathered neighbors.  `*gathered` receives the number of
 * neighbors gathered, duplicates included.  Returns the number of
 * distinct neighbors.
 */
int64_t repro_neighbors(
    const int64_t *offsets,
    const int64_t *neighbors,
    int64_t num_vertices,
    const int64_t *ids,
    int64_t size,
    uint64_t *marks,
    int64_t *out,
    int64_t *gathered)
{
    int64_t total = 0;
    int64_t status = 0;
    for (int64_t i = 0; i < size; ++i) {
        const int64_t v = ids[i];
        if (v < 0 || v >= num_vertices) {
            status = -1;
            break;
        }
        for (int64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
            const int64_t u = neighbors[e];
            marks[u >> 6] |= (uint64_t)1 << (u & 63);
        }
        total += offsets[v + 1] - offsets[v];
    }
    /* The scan clears every mark, even after a bad id. */
    int64_t count = 0;
    const int64_t words = (num_vertices + 63) >> 6;
    for (int64_t w = 0; w < words; ++w) {
        uint64_t bits = marks[w];
        if (bits) {
            marks[w] = 0;
            do {
                out[count++] = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
            } while (bits);
        }
    }
    *gathered = total;
    return status < 0 ? status : count;
}

/* One arc in the compression's counting sorts: a class and a weight. */
struct arc {
    int64_t key;
    double weight;
};

/*
 * The edges of the quotient graph whose vertices are the `num_super`
 * classes of `labels`, as graphs/quotient.py builds them with
 * np.unique and np.bincount, without a comparison sort:
 *
 *   - one pass over the arcs in CSR order counts the inter-class arcs per
 *     class destination and source, and adds each intra-class arc's
 *     weight to `intra`, from 0.0 in arc order;
 *   - a stable counting sort by destination class moves each
 *     inter-class arc's source class and weight into `by_dst`;
 *   - a stable counting sort by source class, over the destination
 *     buckets in order, moves its destination class and weight into
 *     `edges`, which leaves the arcs ordered by (source, destination) and
 *     then by arc position;
 *   - one merge pass sums equal (source, destination) runs in place, each
 *     sum from 0.0 in arc order, which is np.bincount's order, and writes
 *     the rows' bounds into `out_offsets`.
 *
 * `dst_starts` (num_super + 1 entries), `out_offsets` and `intra` hold
 * zeros on entry; `by_dst` and `edges` hold at least one entry per
 * arc.  When an arc is intra-class, `self_loops[c]` gains `intra[c] / 2.0`
 * for every class.  `*inter` receives the number of inter-class arcs.
 * Returns the number of quotient edges, which are the first entries of
 * `edges`.
 */
int64_t repro_compress(
    const int64_t *offsets,
    const int64_t *neighbors,
    const double *weights,
    int64_t num_vertices,
    const int64_t *labels,
    int64_t num_super,
    int64_t *dst_starts,
    struct arc *by_dst,
    double *intra,
    double *self_loops,
    int64_t *out_offsets,
    struct arc *edges,
    int64_t *inter)
{
    /* Count: dst_starts[d + 1] and out_offsets[s + 1] per bucket. */
    int any_intra = 0;
    for (int64_t v = 0; v < num_vertices; ++v) {
        const int64_t s = labels[v];
        if (s < 0 || s >= num_super) {
            return -1;
        }
        for (int64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
            const int64_t d = labels[neighbors[e]];
            if (d < 0 || d >= num_super) {
                return -1;
            }
            if (d == s) {
                intra[s] += weights[e];
                any_intra = 1;
            } else {
                ++dst_starts[d + 1];
                ++out_offsets[s + 1];
            }
        }
    }
    for (int64_t c = 0; c < num_super; ++c) {
        dst_starts[c + 1] += dst_starts[c];
        out_offsets[c + 1] += out_offsets[c];
    }
    const int64_t total = dst_starts[num_super];

    /* Sort by destination: dst_starts[d] advances to bucket d's end. */
    for (int64_t v = 0; v < num_vertices; ++v) {
        const int64_t s = labels[v];
        for (int64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
            const int64_t d = labels[neighbors[e]];
            if (d != s) {
                struct arc *a = &by_dst[dst_starts[d]++];
                a->key = s;
                a->weight = weights[e];
            }
        }
    }

    /* Sort by source, destination buckets in order: out_offsets[s]
     * advances to row s's end, which is where row s + 1 starts. */
    int64_t begin = 0;
    for (int64_t d = 0; d < num_super; ++d) {
        const int64_t end = dst_starts[d];
        for (int64_t i = begin; i < end; ++i) {
            struct arc *a = &edges[out_offsets[by_dst[i].key]++];
            a->key = d;
            a->weight = by_dst[i].weight;
        }
        begin = end;
    }

    /* Merge equal runs in place, row by row. */
    int64_t kept = 0;
    begin = 0;
    for (int64_t s = 0; s < num_super; ++s) {
        const int64_t end = out_offsets[s];
        const int64_t row = kept;
        for (int64_t i = begin; i < end; ++i) {
            if (kept > row && edges[kept - 1].key == edges[i].key) {
                edges[kept - 1].weight += edges[i].weight;
            } else {
                edges[kept].key = edges[i].key;
                edges[kept].weight = 0.0 + edges[i].weight;
                ++kept;
            }
        }
        out_offsets[s] = row;
        begin = end;
    }
    out_offsets[num_super] = kept;

    if (any_intra) {
        for (int64_t c = 0; c < num_super; ++c) {
            self_loops[c] += intra[c] / 2.0;
        }
    }
    *inter = total;
    return kept;
}
