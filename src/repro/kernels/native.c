/*
 * Native BEST-MOVES batch kernel (DESIGN.md section 8).
 *
 * One call evaluates a whole batch against one state snapshot, following
 * reference_single_move (kernels/reference.py) operation for operation:
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
 * Build with -ffp-contract=off and never -ffast-math: additions must be
 * neither reordered nor fused for the results to be bit-identical.
 *
 * The batch visits rows in random order, so the loop is bound by memory
 * latency, not arithmetic.  It prefetches ahead of itself in three
 * stages: a vertex's own entries, then its adjacency row and its cluster
 * weight, then its first neighbors' labels.  Prefetches change no value.
 *
 * The caller guarantees that the graph is valid CSR over `num_vertices`
 * vertices, that the state arrays cover `num_clusters >= num_vertices`
 * cluster ids, and that `acc` and `seen` hold zeros over every cluster id
 * on entry.  The kernel resets only the entries it touched, so they hold
 * zeros again on return.  Returns the number of (vertex, neighbor
 * cluster) pairs evaluated, or -1 when a batch vertex or a label is out
 * of range.
 */
#include <math.h>
#include <stdint.h>

/* Batch positions ahead of the current vertex for each prefetch stage. */
#define AHEAD_VERTEX 8
#define AHEAD_ROW 4
#define AHEAD_LABELS 2
/* Neighbor labels prefetched per row in the last stage. */
#define LABELS_PER_ROW 16

static void reset(
    double *acc, unsigned char *seen, const int64_t *touched, int64_t count)
{
    for (int64_t j = 0; j < count; ++j) {
        acc[touched[j]] = 0.0;
        seen[touched[j]] = 0;
    }
}

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

        const int64_t v = batch[i];
        if (v < 0 || v >= num_vertices || assignments[v] < 0
            || assignments[v] >= num_clusters) {
            return -1;
        }
        int64_t count = 0;
        for (int64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
            const int64_t c = assignments[neighbors[e]];
            if (c < 0 || c >= num_clusters) {
                reset(acc, seen, touched, count);
                return -1;
            }
            if (!seen[c]) {
                seen[c] = 1;
                touched[count++] = c;
            }
            acc[c] += weights[e];
        }

        const int64_t current = assignments[v];
        const double k_v = node_weights[v];
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
            if (swap_avoidance && own_singleton && c > current
                && cluster_sizes[c] == 1) {
                continue;
            }
            const double gain = acc[c] - resolution * k_v * cluster_weights[c];
            if (gain > best_ext_gain
                || (gain == best_ext_gain && c < best_ext_cluster)) {
                best_ext_gain = gain;
                best_ext_cluster = c;
            }
        }

        double best_gain = stay;
        int64_t best_cluster = current;
        if (best_ext_cluster >= 0 && best_ext_gain > stay + gain_eps) {
            best_gain = best_ext_gain;
            best_cluster = best_ext_cluster;
        }
        if (allow_escape && cluster_sizes[v] == 0 && best_gain < -gain_eps) {
            best_cluster = v;
            best_gain = 0.0;
        }
        out_targets[i] = best_cluster;
        out_gains[i] = best_gain - stay;

        reset(acc, seen, touched, count);
        pairs += count;
    }
    return pairs;
}
