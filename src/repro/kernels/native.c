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
 * Two serve the dynamic graph (graphs/delta.py), each equal, array for
 * array, to its NumPy path:
 *
 *   - repro_find_arcs binary-searches staged arcs in their base rows;
 *   - repro_splice writes a batch's new CSR in one pass over the rows,
 *     checking every arc it writes as CSRGraph._validate would.
 *
 * The three per-window entry points (repro_best_moves, repro_sweep and
 * repro_commit) read the graph, the state and their scratch through a
 * `struct binding` that the caller fills once per level and thread, so
 * each call passes only its window, its settings and its outputs.  The
 * other four run once per round, level or update batch and take their
 * arrays directly.
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
#include <string.h>

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

/* Lower bound of `key` in the sorted row neighbors[lo, hi). */
static int64_t lower_bound(
    const int64_t *neighbors, int64_t lo, int64_t hi, int64_t key)
{
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (neighbors[mid] < key) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

/*
 * Finds each arc (src[i], dst[i]) in a CSR graph with sorted rows, as
 * graphs/delta.py does with one np.searchsorted per arc: pos[i] indexes
 * the arc in `neighbors`, or its insertion point in row src[i] when the
 * row lacks it, and found[i] says the row has it.  A source at or past
 * `num_vertices` has an empty row at the end, so its arc is not found
 * and sits at offsets[num_vertices].  Returns 0, or -1 for a negative
 * source.
 */
int64_t repro_find_arcs(
    const int64_t *offsets,
    const int64_t *neighbors,
    int64_t num_vertices,
    const int64_t *src,
    const int64_t *dst,
    int64_t count,
    int64_t *pos,
    unsigned char *found)
{
    for (int64_t i = 0; i < count; ++i) {
        const int64_t s = src[i];
        if (s < 0) {
            return -1;
        }
        const int64_t lo = offsets[s < num_vertices ? s : num_vertices];
        const int64_t hi = offsets[s < num_vertices ? s + 1 : num_vertices];
        const int64_t p = lower_bound(neighbors, lo, hi, dst[i]);
        pos[i] = p;
        found[i] = p < hi && neighbors[p] == dst[i];
    }
    return 0;
}

/* Checks one arc as CSRGraph._validate does: 1 when its neighbor `u` lies
 * outside [0, num_vertices) or equals its row, else 0. */
static inline uint64_t bad_arc(int64_t u, int64_t row, int64_t num_vertices)
{
    return ((uint64_t)u >= (uint64_t)num_vertices) | (u == row);
}

/* Arcs per block of verbatim_rows' flat check (its marks fill 8 KiB). */
#define CHECK_BLOCK 1024

/*
 * The verbatim rows [first, stop) of a splice: writes their out_offsets,
 * each the base offset plus `shift`, and checks each of their arcs with
 * bad_arc, returning nonzero when one fails.  The check runs over the
 * rows' arcs as one flat array, in blocks of CHECK_BLOCK arcs, so a
 * short row costs no loop (and no mispredicted loop exit) of its own:
 * a first loop over the rows starting in the block marks where each
 * starts in `marks`, and the arc loop adds the marks up into each arc's
 * row, clearing them.  Empty rows mark the same arc as the row after
 * them.
 */
static uint64_t verbatim_rows(
    const int64_t *offsets, const int64_t *neighbors, int64_t first,
    int64_t stop, int64_t num_vertices, int64_t shift, int64_t *out_offsets)
{
    int64_t marks[CHECK_BLOCK] = {0};
    uint64_t bad = 0;
    int64_t row = first - 1; /* the row of the arc being checked */
    int64_t v = first;       /* the next row to mark */
    const int64_t end = offsets[stop];
    for (int64_t b = offsets[first]; b < end; b += CHECK_BLOCK) {
        const int64_t block_end = end - b < CHECK_BLOCK ? end : b + CHECK_BLOCK;
        for (; v < stop && offsets[v] < block_end; ++v) {
            if (offsets[v] <= b) {
                ++row;
            } else {
                ++marks[offsets[v] - b];
            }
            out_offsets[v + 1] = offsets[v + 1] + shift;
        }
        const int64_t *nbrs = neighbors + b;
#pragma GCC unroll 4
        for (int64_t i = 0; i < block_end - b; ++i) {
            row += marks[i];
            marks[i] = 0;
            bad |= bad_arc(nbrs[i], row, num_vertices);
        }
    }
    /* Empty rows at the end of the range. */
    for (; v < stop; ++v) {
        out_offsets[v + 1] = offsets[v + 1] + shift;
    }
    return bad;
}

/* Copies the base arcs [from, to) to position `out` of the outputs. */
static void copy_run(
    const int64_t *neighbors, const double *weights, int64_t from, int64_t to,
    int64_t *out_neighbors, double *out_weights, int64_t out)
{
    if (to > from) {
        memcpy(out_neighbors + out, neighbors + from,
               (size_t)(to - from) * sizeof(int64_t));
        memcpy(out_weights + out, weights + from,
               (size_t)(to - from) * sizeof(double));
    }
}

/*
 * Splices staged arcs into a CSR graph with sorted rows, writing the new
 * graph over `num_vertices >= base_vertices` vertices into out_offsets
 * (num_vertices + 1 entries), out_neighbors and out_weights (`capacity`
 * entries each), in one pass over the rows.  The `count` staged arcs are
 * ordered by (src, dst), with pos and found from repro_find_arcs and a
 * target weight w (0.0 for an absent arc).  A row with staged arcs
 * copies its base arcs in order, and at each staged arc's position:
 *
 *   - a found arc with a live weight is rewritten with that weight;
 *   - a found arc with weight 0.0 is skipped;
 *   - an arc not found is placed there when its weight is live.
 *
 * Rows without staged arcs are copied verbatim, in runs that reach from
 * one row with staged arcs to the next, with one memcpy per array, and
 * checked by verbatim_rows.
 *
 * Every arc written is checked as CSRGraph._validate checks one, so the
 * result needs no second pass: its neighbor lies in [0, num_vertices)
 * and differs from its row.  out_offsets starts at 0 and never
 * decreases, because it counts the arcs written.  Returns the number of arcs written, which is
 * out_offsets[num_vertices].  Returns -1, leaving the outputs partly
 * written but never past their ends, on a bad arc, a staged arc out of
 * order or off its row, or more arcs than `capacity`.
 */
int64_t repro_splice(
    const int64_t *offsets,
    const int64_t *neighbors,
    const double *weights,
    int64_t base_vertices,
    int64_t num_vertices,
    const int64_t *src,
    const int64_t *dst,
    const double *w,
    const int64_t *pos,
    const unsigned char *found,
    int64_t count,
    int64_t capacity,
    int64_t *out_offsets,
    int64_t *out_neighbors,
    double *out_weights)
{
    const int64_t m = offsets[base_vertices];
    uint64_t bad = 0;
    int64_t out = 0; /* arcs written */
    int64_t e = 0;   /* the first base arc not yet copied */
    int64_t k = 0;   /* the next staged arc */
    int64_t v = 0;
    out_offsets[0] = 0;
    while (v < num_vertices) {
        /* Verbatim rows up to the next row with staged arcs: the run of
         * base arcs [e, offsets[stop]) will land at `out`. */
        int64_t stop = k < count ? src[k] : num_vertices;
        if (stop < v || stop > num_vertices) {
            return -1;
        }
        const int64_t shift = out - e;
        const int64_t base_stop = stop < base_vertices ? stop : base_vertices;
        if (v < base_stop) {
            bad |= verbatim_rows(offsets, neighbors, v, base_stop,
                                 num_vertices, shift, out_offsets);
            v = base_stop;
        }
        for (; v < stop; ++v) {
            out_offsets[v + 1] = m + shift;
        }
        if (v == num_vertices) {
            break;
        }
        /* Row v has staged arcs: flush the run, then merge. */
        const int64_t lo = offsets[v < base_vertices ? v : base_vertices];
        const int64_t hi = v < base_vertices ? offsets[v + 1] : lo;
        if (out + (lo - e) > capacity) {
            return -1;
        }
        copy_run(neighbors, weights, e, lo, out_neighbors, out_weights, out);
        out += lo - e;
        e = lo;
        for (; k < count && src[k] == v; ++k) {
            const int64_t p = pos[k];
            if (p < e || p > hi || (found[k] && p == hi)) {
                return -1;
            }
            for (; e < p; ++e) {
                if (out >= capacity) {
                    return -1;
                }
                bad |= bad_arc(neighbors[e], v, num_vertices);
                out_neighbors[out] = neighbors[e];
                out_weights[out++] = weights[e];
            }
            e += found[k];
            if (w[k] != 0.0) {
                if (out >= capacity) {
                    return -1;
                }
                bad |= bad_arc(dst[k], v, num_vertices);
                out_neighbors[out] = dst[k];
                out_weights[out++] = w[k];
            }
        }
        for (; e < hi; ++e) {
            if (out >= capacity) {
                return -1;
            }
            bad |= bad_arc(neighbors[e], v, num_vertices);
            out_neighbors[out] = neighbors[e];
            out_weights[out++] = weights[e];
        }
        out_offsets[v + 1] = out;
        ++v;
    }
    if (k != count || bad || out + (m - e) > capacity) {
        return -1;
    }
    copy_run(neighbors, weights, e, m, out_neighbors, out_weights, out);
    return out + (m - e);
}
