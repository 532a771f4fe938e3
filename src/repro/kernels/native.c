/*
 * Native BEST-MOVES kernels (DESIGN.md section 8).
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
 * Build with -ffp-contract=off and never -ffast-math: additions must be
 * neither reordered nor fused for the results to be bit-identical.
 *
 * The caller guarantees that the graph is valid CSR over `num_vertices`
 * vertices, that the state arrays cover `num_clusters >= num_vertices`
 * cluster ids, and that `acc` and `seen` hold zeros over every cluster id
 * on entry.  `evaluate` resets only the entries it touched, so they hold
 * zeros again on return.  Both entry points return -1 when a visited
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

/* The graph and state one call reads, its settings and its scratch. */
struct view {
    const int64_t *offsets;
    const int64_t *neighbors;
    const double *weights;
    const double *node_weights;
    const int64_t *assignments;
    const double *cluster_weights;
    const int64_t *cluster_sizes;
    int64_t num_vertices;
    int64_t num_clusters;
    double resolution;
    double gain_eps;
    int allow_escape;
    int swap_avoidance;
    double *acc;
    unsigned char *seen;
    int64_t *touched;
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
    const struct view *s, int64_t v, int64_t *target, double *gain)
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

    const double resolution = s->resolution;
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
        if (s->swap_avoidance && own_singleton && c > current
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
    if (best_ext_cluster >= 0 && best_ext_gain > stay + s->gain_eps) {
        best_gain = best_ext_gain;
        best_cluster = best_ext_cluster;
    }
    if (s->allow_escape && cluster_sizes[v] == 0
        && best_gain < -s->gain_eps) {
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
    const int64_t *offsets,
    const int64_t *neighbors,
    const double *weights,
    const double *node_weights,
    const int64_t *assignments,
    const double *cluster_weights,
    const int64_t *cluster_sizes,
    int64_t num_vertices,
    int64_t num_clusters,
    const int64_t *batch,
    int64_t batch_size,
    double resolution,
    double gain_eps,
    int allow_escape,
    int swap_avoidance,
    double *acc,
    unsigned char *seen,
    int64_t *touched,
    int64_t *out_targets,
    double *out_gains)
{
    const struct view s = {
        offsets, neighbors, weights, node_weights, assignments,
        cluster_weights, cluster_sizes, num_vertices, num_clusters,
        resolution, gain_eps, allow_escape, swap_avoidance,
        acc, seen, touched,
    };
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
            evaluate(&s, batch[i], &out_targets[i], &out_gains[i]);
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
    const int64_t *offsets,
    const int64_t *neighbors,
    const double *weights,
    const double *node_weights,
    int64_t *assignments,
    double *cluster_weights,
    int64_t *cluster_sizes,
    int64_t num_vertices,
    int64_t num_clusters,
    const int64_t *order,
    int64_t order_size,
    double resolution,
    double gain_eps,
    int allow_escape,
    double *acc,
    unsigned char *seen,
    int64_t *touched,
    int64_t *out_movers,
    int64_t *out_origins,
    int64_t *out_targets,
    double *out_total_gain)
{
    const struct view s = {
        offsets, neighbors, weights, node_weights, assignments,
        cluster_weights, cluster_sizes, num_vertices, num_clusters,
        resolution, gain_eps, allow_escape, 0,
        acc, seen, touched,
    };
    int64_t moved = 0;
    double total = 0.0;
    for (int64_t i = 0; i < order_size; ++i) {
        const int64_t v = order[i];
        int64_t target;
        double gain;
        if (evaluate(&s, v, &target, &gain) < 0) {
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
