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
 * Three entry points call it:
 *
 *   - repro_best_moves evaluates a whole batch against one snapshot
 *     (reference_batch_moves), splitting a large batch across a small
 *     pthread pool (see "The pool" below) when the caller allows more
 *     than one thread;
 *   - repro_sweep visits vertices in order and commits each improving
 *     move at once, as reference_sweep does through
 *     ClusterState.move_one;
 *   - repro_round runs a whole round of concurrency windows, each
 *     evaluated as repro_best_moves does and committed by commit_window
 *     exactly as the NumPy body of ClusterState.apply_moves commits it,
 *     so the round is best_moves.window_round's per-window loop with no
 *     Python between the windows.
 *
 * Two more run the rest of a round, each equal bit for bit to the NumPy
 * reference the tests keep for it:
 *
 *   - repro_neighbors is the frontier's neighbor set (edge_map);
 *   - repro_compress builds the quotient graph's edges
 *     (graphs/quotient.py) row by row, splitting a large graph's rows
 *     across the pool.
 *
 * Two serve the dynamic graph (graphs/delta.py), each equal, array for
 * array, to its NumPy reference:
 *
 *   - repro_find_arcs binary-searches staged arcs in their base rows;
 *   - repro_splice writes a batch's new CSR: a serial pass writes the
 *     offsets and checks only the staged arcs, as CSRGraph._validate
 *     would, then the rows are copied and merged on the pool.
 *
 * The three BEST-MOVES entry points read the graph, the state and their
 * scratch through a `struct binding` that the caller fills per call, so
 * each call's arguments are only its window or round, its settings and
 * its outputs.  The other four take their arrays directly.  Every array
 * is contiguous with the dtype its pointer names: the caller copies an
 * input that is not, and never passes an output that is not.
 *
 * Build with -ffp-contract=off and never -ffast-math: additions must be
 * neither reordered nor fused for the results to be bit-identical; and
 * with -pthread, for the pool.
 *
 * For repro_best_moves and repro_sweep the caller guarantees that the
 * binding's graph is valid CSR over `num_vertices` vertices, that its
 * state arrays cover `num_clusters >= num_vertices` cluster ids, and that
 * `acc` and `seen` hold zeros over every cluster id on entry.  `evaluate`
 * resets only the entries it touched, so they hold zeros again on
 * return, in the binding's scratch and in every pool thread's own.
 * Every entry point returns -1 when a visited vertex or a label is out
 * of range.
 */
#define _GNU_SOURCE /* sched_getaffinity and CPU_COUNT */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* Batch positions ahead of the current vertex for each prefetch stage. */
#define AHEAD_VERTEX 8
#define AHEAD_ROW 4
#define AHEAD_LABELS 2
/* Neighbor labels prefetched per row in the last stage. */
#define LABELS_PER_ROW 16

/*
 * The arrays one BEST-MOVES call reads and writes, filled per call: the
 * graph, the state, the vertex and cluster-id counts, and the calling
 * thread's scratch, whose `counts` (zeros over every cluster id between
 * calls) are the commit's.  The layout is mirrored by `Binding` in
 * native.py.
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
 * Evaluates batch[begin, end) against one state snapshot, writing each
 * vertex's target and gain to its own output slot.  Returns the number
 * of (vertex, neighbor cluster) pairs evaluated, or -1.
 *
 * The batch visits rows in random order, so the loop is bound by memory
 * latency, not arithmetic.  It prefetches ahead of itself in three
 * stages: a vertex's own entries, then its adjacency row and its cluster
 * weight, then its first neighbors' labels.  Prefetches reach up to
 * batch[limit - 1], past `end` into vertices another pool thread may
 * evaluate, and change no value.
 */
static int64_t evaluate_range(
    const struct binding *bound, const struct settings *opt,
    const int64_t *batch, int64_t begin, int64_t end, int64_t limit,
    int64_t *out_targets, double *out_gains)
{
    /* A local copy: writes through the scratch pointers cannot alias it,
     * so its fields stay in registers. */
    const struct binding s = *bound;
    const int64_t *offsets = s.offsets;
    const int64_t *neighbors = s.neighbors;
    const double *weights = s.weights;
    const double *node_weights = s.node_weights;
    const int64_t *assignments = s.assignments;
    const double *cluster_weights = s.cluster_weights;
    const int64_t *cluster_sizes = s.cluster_sizes;
    int64_t pairs = 0;
    for (int64_t i = begin; i < end; ++i) {
        /* Inline on purpose: gcc -O2 drops a helper function whose only
         * effect is prefetching. */
        if (i + AHEAD_VERTEX < limit) {
            const int64_t u = batch[i + AHEAD_VERTEX];
            __builtin_prefetch(&offsets[u]);
            __builtin_prefetch(&node_weights[u]);
            __builtin_prefetch(&assignments[u]);
            __builtin_prefetch(&cluster_sizes[u]);
        }
        if (i + AHEAD_ROW < limit) {
            const int64_t u = batch[i + AHEAD_ROW];
            __builtin_prefetch(&neighbors[offsets[u]]);
            __builtin_prefetch(&weights[offsets[u]]);
            __builtin_prefetch(&cluster_weights[assignments[u]]);
        }
        if (i + AHEAD_LABELS < limit) {
            const int64_t u = batch[i + AHEAD_LABELS];
            int64_t stop = offsets[u] + LABELS_PER_ROW;
            if (stop > offsets[u + 1]) {
                stop = offsets[u + 1];
            }
            for (int64_t e = offsets[u]; e < stop; ++e) {
                __builtin_prefetch(&assignments[neighbors[e]]);
            }
        }

        const int64_t count =
            evaluate(&s, opt, batch[i], &out_targets[i], &out_gains[i]);
        if (count < 0) {
            return -1;
        }
        pairs += count;
    }
    return pairs;
}

/*
 * The pool: one job split across cores (DESIGN.md section 8).  Three
 * kinds of job use it.  Each writes only the output slots of the items
 * it claims and its thread's scratch, so any split gives the serial
 * loop's outputs bit for bit, and the counts it returns are integers, so
 * their sum is too:
 *
 *   - a BEST-MOVES window of at least SPLIT_MIN vertices, each of which
 *     reads the window-start snapshot (repro_best_moves);
 *   - the rows of a quotient graph built from at least SPLIT_MIN_ARCS
 *     arcs, each row summed from its own class's arcs (repro_compress);
 *   - the rows of a splice whose base has at least SPLIT_MIN_ARCS arcs,
 *     each copied and merged into the slice of the outputs that the
 *     serial pass's offsets give it (repro_splice).
 *
 * How it runs:
 *
 *   - Smaller jobs, calls asking for one thread, and calls made while
 *     another thread holds the pool (a trylock on `busy`) run on the
 *     calling thread alone.
 *   - Helper threads start on the first split job, never at load; each
 *     owns scratch covering the job's ids.
 *   - The caller and the helpers claim CHUNK-item chunks through one
 *     atomic counter, so skewed degrees balance.
 *   - The caller never waits for a helper that has not joined.  Each
 *     helper has a ticket: the caller opens it before the job, the
 *     helper moves it from OPEN to JOINED, and the caller, once the
 *     chunks run out, moves it from OPEN back to IDLE.  Only a helper
 *     that joined is waited for, and it is at most one chunk from done
 *     (unless its core is taken from it mid-chunk).
 *   - After a job a helper spins for SPIN_NS, then parks on a condition
 *     variable, so idle helpers use no CPU.
 *   - A forked child resets the pool (pthread_atfork): its helpers do
 *     not exist there, and the child starts its own on demand.
 */
#define SPLIT_MIN 256
#define SPLIT_MIN_ARCS 65536
#define CHUNK 64
/* Most threads one job is split across, the caller included. */
#define MAX_THREADS 64
#define SPIN_NS 200000

enum { IDLE, OPEN, JOINED };

/* One thread's scratch over `capacity` ids, all zeros between chunks:
 * evaluate's `acc`, `seen` and `touched`, and the compression's `bits`
 * (one per id).  The caller's BEST-MOVES scratch is its binding's and
 * has no `bits`. */
struct scratch {
    double *acc;
    unsigned char *seen;
    int64_t *touched;
    uint64_t *bits;
    int64_t capacity;
};

struct job;

/* Runs items [begin, end) of a job through `own`; returns their count
 * (pairs evaluated, or inter-class arcs), or -1. */
typedef int64_t (*chunk_fn)(
    const struct job *job, const struct scratch *own, int64_t begin,
    int64_t end);

/* One job: `size` items run by `run` with scratch over `ids` ids. */
struct job {
    chunk_fn run;
    void *arg;
    int64_t size;
    int64_t ids;
    _Alignas(64) _Atomic int64_t next;
    _Atomic int64_t count;
    _Atomic int failed;
};

struct helper {
    _Alignas(64) _Atomic int ticket;
    struct scratch scratch;
};

static struct {
    pthread_mutex_t busy;
    pthread_mutex_t lock;
    pthread_cond_t wake;
    _Alignas(64) _Atomic uint64_t generation;
    _Atomic int sleepers;
    int started;
    int64_t windows;
    int64_t splices;
    /* The job being split.  The caller sets it before opening any ticket;
     * a helper reads it only while its ticket is JOINED. */
    struct job *job;
    struct helper helpers[MAX_THREADS - 1];
} pool = {
    .busy = PTHREAD_MUTEX_INITIALIZER,
    .lock = PTHREAD_MUTEX_INITIALIZER,
    .wake = PTHREAD_COND_INITIALIZER,
};

static inline void cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

/* Runs chunks of the job through `own` until none is left. */
static void run_chunks(struct job *job, const struct scratch *own)
{
    const int64_t size = job->size;
    int64_t count = 0;
    for (;;) {
        const int64_t begin =
            atomic_fetch_add_explicit(&job->next, CHUNK, memory_order_relaxed);
        if (begin >= size) {
            break;
        }
        const int64_t end = size - begin < CHUNK ? size : begin + CHUNK;
        const int64_t chunk = job->run(job, own, begin, end);
        if (chunk < 0) {
            atomic_store_explicit(&job->failed, 1, memory_order_relaxed);
            atomic_store_explicit(&job->next, size, memory_order_relaxed);
            break;
        }
        count += chunk;
    }
    atomic_fetch_add_explicit(&job->count, count, memory_order_relaxed);
}

static void free_scratch(struct scratch *s)
{
    free(s->acc);
    free(s->seen);
    free(s->touched);
    free(s->bits);
    memset(s, 0, sizeof *s);
}

/* Makes scratch cover `ids` ids, all zeros; returns 0 when it cannot be
 * allocated. */
static int grow_scratch(struct scratch *s, int64_t ids)
{
    if (s->capacity >= ids) {
        return 1;
    }
    free_scratch(s);
    s->acc = calloc((size_t)ids, sizeof(double));
    s->seen = calloc((size_t)ids, 1);
    s->touched = malloc((size_t)ids * sizeof(int64_t));
    s->bits = calloc((size_t)(ids + 63) / 64, sizeof(uint64_t));
    s->capacity = ids;
    if (s->acc == NULL || s->seen == NULL || s->touched == NULL
        || s->bits == NULL) {
        free_scratch(s);
        return 0;
    }
    return 1;
}

static int64_t elapsed_ns(const struct timespec *start)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (int64_t)(now.tv_sec - start->tv_sec) * 1000000000
        + (now.tv_nsec - start->tv_nsec);
}

/* Waits until the generation differs from `seen`, spinning for SPIN_NS
 * and then parked; returns the new generation. */
static uint64_t next_job(uint64_t seen)
{
    struct timespec start;
    clock_gettime(CLOCK_MONOTONIC, &start);
    uint64_t now;
    for (unsigned spins = 1;; ++spins) {
        now = atomic_load_explicit(&pool.generation, memory_order_acquire);
        if (now != seen) {
            return now;
        }
        cpu_relax();
        if (spins % 256 == 0 && elapsed_ns(&start) > SPIN_NS) {
            break;
        }
    }
    /* Announce the sleeper before the last check of the generation: a
     * caller that bumps it afterwards sees the sleeper and wakes it. */
    pthread_mutex_lock(&pool.lock);
    atomic_fetch_add(&pool.sleepers, 1);
    while ((now = atomic_load(&pool.generation)) == seen) {
        pthread_cond_wait(&pool.wake, &pool.lock);
    }
    atomic_fetch_sub(&pool.sleepers, 1);
    pthread_mutex_unlock(&pool.lock);
    return now;
}

static void *helper_main(void *arg)
{
    struct helper *h = arg;
    uint64_t seen = 0;
    for (;;) {
        seen = next_job(seen);
        int expected = OPEN;
        if (!atomic_compare_exchange_strong_explicit(
                &h->ticket, &expected, JOINED, memory_order_acquire,
                memory_order_relaxed)) {
            continue;
        }
        struct job *job = pool.job;
        if (grow_scratch(&h->scratch, job->ids)) {
            run_chunks(job, &h->scratch);
        }
        atomic_store_explicit(&h->ticket, IDLE, memory_order_release);
    }
    return NULL;
}

/* fork() holds the pool, so the child inherits it between jobs. */
static void before_fork(void)
{
    pthread_mutex_lock(&pool.busy);
    pthread_mutex_lock(&pool.lock);
}

static void after_fork_parent(void)
{
    pthread_mutex_unlock(&pool.lock);
    pthread_mutex_unlock(&pool.busy);
}

/* The child has none of the parent's helpers: forget them, and the
 * condition variable they may be parked on. */
static void after_fork_child(void)
{
    for (int i = 0; i < pool.started; ++i) {
        free_scratch(&pool.helpers[i].scratch);
        atomic_store(&pool.helpers[i].ticket, IDLE);
    }
    pool.started = 0;
    pool.windows = 0;
    pool.splices = 0;
    atomic_store(&pool.sleepers, 0);
    pthread_cond_init(&pool.wake, NULL);
    pthread_mutex_unlock(&pool.lock);
    pthread_mutex_unlock(&pool.busy);
}

static void register_fork_handlers(void)
{
    pthread_atfork(before_fork, after_fork_parent, after_fork_child);
}

/* Starts helpers until `wanted` run (the caller holds `busy`); returns
 * how many of them run.  Helpers block every signal, so signals reach
 * the process's own threads. */
static int start_helpers(int wanted)
{
    static pthread_once_t once = PTHREAD_ONCE_INIT;
    pthread_once(&once, register_fork_handlers);
    if (pool.started < wanted) {
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        while (pool.started < wanted) {
            pthread_t thread;
            if (pthread_create(&thread, &attr, helper_main,
                               &pool.helpers[pool.started]) != 0) {
                break;
            }
            ++pool.started;
        }
        pthread_attr_destroy(&attr);
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    return pool.started < wanted ? pool.started : wanted;
}

/* Runs a job on the caller, through `own`, and on up to `threads - 1`
 * helpers, adding 1 to `*splits` (when given) if any helper was asked;
 * returns the summed count, or -1. */
static int64_t run_job(
    struct job *job, const struct scratch *own, int threads,
    int64_t *splits)
{
    if (threads > 1 && pthread_mutex_trylock(&pool.busy) == 0) {
        const int helpers =
            start_helpers((threads < MAX_THREADS ? threads : MAX_THREADS) - 1);
        pool.job = job;
        for (int i = 0; i < helpers; ++i) {
            atomic_store_explicit(
                &pool.helpers[i].ticket, OPEN, memory_order_release);
        }
        if (helpers > 0) {
            atomic_fetch_add(&pool.generation, 1);
            if (atomic_load(&pool.sleepers) > 0) {
                pthread_mutex_lock(&pool.lock);
                pthread_cond_broadcast(&pool.wake);
                pthread_mutex_unlock(&pool.lock);
            }
            if (splits != NULL) {
                ++*splits;
            }
        }
        run_chunks(job, own);
        for (int i = 0; i < helpers; ++i) {
            _Atomic int *ticket = &pool.helpers[i].ticket;
            int expected = OPEN;
            if (atomic_compare_exchange_strong_explicit(
                    ticket, &expected, IDLE, memory_order_relaxed,
                    memory_order_relaxed)) {
                continue; /* never joined */
            }
            for (unsigned spins = 1;
                 atomic_load_explicit(ticket, memory_order_acquire) == JOINED;
                 ++spins) {
                if (spins % 1024 == 0) {
                    sched_yield();
                } else {
                    cpu_relax();
                }
            }
        }
        pthread_mutex_unlock(&pool.busy);
    } else {
        run_chunks(job, own);
    }
    if (atomic_load_explicit(&job->failed, memory_order_relaxed)) {
        return -1;
    }
    return atomic_load_explicit(&job->count, memory_order_relaxed);
}

/* One BEST-MOVES window: the job's `arg`. */
struct window {
    struct binding bound;
    struct settings opt;
    const int64_t *batch;
    int64_t *out_targets;
    double *out_gains;
};

static int64_t window_chunk(
    const struct job *job, const struct scratch *own, int64_t begin,
    int64_t end)
{
    const struct window *w = job->arg;
    struct binding s = w->bound;
    s.acc = own->acc;
    s.seen = own->seen;
    s.touched = own->touched;
    return evaluate_range(
        &s, &w->opt, w->batch, begin, end, job->size, w->out_targets,
        w->out_gains);
}

/*
 * Evaluates every batch vertex against one state snapshot, on up to
 * `threads` threads (the caller included) when the batch has at least
 * SPLIT_MIN vertices.  Returns the number of (vertex, neighbor cluster)
 * pairs evaluated, or -1.
 */
int64_t repro_best_moves(
    const struct binding *bound,
    const int64_t *batch,
    int64_t batch_size,
    double resolution,
    double gain_eps,
    int allow_escape,
    int swap_avoidance,
    int threads,
    int64_t *out_targets,
    double *out_gains)
{
    const struct settings opt = {
        resolution, gain_eps, allow_escape, swap_avoidance,
    };
    if (threads > 1 && batch_size >= SPLIT_MIN) {
        struct window w = {
            *bound, opt, batch, out_targets, out_gains,
        };
        const struct scratch own = {
            .acc = bound->acc,
            .seen = bound->seen,
            .touched = bound->touched,
            .capacity = bound->num_clusters,
        };
        struct job job = {
            .run = window_chunk,
            .arg = &w,
            .size = batch_size,
            .ids = bound->num_clusters,
        };
        return run_job(&job, &own, threads, &pool.windows);
    }
    return evaluate_range(
        bound, &opt, batch, 0, batch_size, batch_size, out_targets, out_gains);
}

/*
 * The pool's counters into out[0..3]: helpers started, BEST-MOVES windows
 * split, the nonzero entries left in the helpers' scratch (0 between
 * jobs) and splices split.  Waits for a job in progress.  Returns 0.
 */
int64_t repro_pool_stats(int64_t *out)
{
    pthread_mutex_lock(&pool.busy);
    int64_t dirty = 0;
    for (int i = 0; i < pool.started; ++i) {
        const struct scratch *s = &pool.helpers[i].scratch;
        for (int64_t c = 0; c < s->capacity; ++c) {
            dirty += s->acc[c] != 0.0 || s->seen[c] != 0;
        }
        for (int64_t w = 0; w < (s->capacity + 63) / 64; ++w) {
            dirty += s->bits[w] != 0;
        }
    }
    out[0] = pool.started;
    out[1] = pool.windows;
    out[2] = dirty;
    out[3] = pool.splices;
    pthread_mutex_unlock(&pool.busy);
    return 0;
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
 * Commits one concurrency window of repro_round to the bound state:
 * every vertices[i] whose label differs from targets[i] moves there, as
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
static int64_t commit_window(
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

/* The fields of one window's row in repro_round's `out_windows`
 * (native.RoundWindows names them in this order). */
enum {
    W_MOVED, W_DEC_RETRIES, W_DEC_LONGEST, W_INC_RETRIES, W_INC_LONGEST,
    W_PAIRS, W_SIZE, W_DEGREE_SUM, W_PAR_COUNT, W_PAR_SUM, W_SEQ_MAX,
    W_PAR_MAX, W_FIELDS
};

/*
 * One BEST-MOVES round over `order`, cut into `num_windows` concurrency
 * windows: window w is order[starts[w], starts[w + 1]), the last one
 * ending at `order_size`.  Each window is evaluated against the state
 * the windows before it left (repro_best_moves, split across the pool
 * as that call splits it) and then committed (commit_window), so the
 * round is the per-window loop with no Python between the windows.
 *
 * `targets`, `gains` and `origins` are round-sized.  A window's targets
 * and gains land at its own positions, its commit writes its origins
 * there, and then its movers are moved to the front, in window order:
 * on return, entry i < the returned count of `out_movers`, `origins`,
 * `targets` and `gains` is the round's i-th mover, its origin, its
 * target and its gain.  Each window also gets a row of W_FIELDS integers
 * in `out_windows`: its movers; the retries (movers minus distinct
 * clusters) and the longest queue of its decrement window and of its
 * increment window (all four 0 when nothing moved); its (vertex, neighbor
 * cluster) pair count; and its degree profile: vertices, degree sum, the
 * count and degree sum of vertices of degree above `threshold`, and the
 * largest degree at or below it and above it (0 when there is none).
 *
 * The binding's node weights must be the state's.  Returns the round's
 * movers, or -1 when a window is out of order or an id out of range; the
 * windows before the failing one stay committed, and the failing one
 * changes nothing.
 */
int64_t repro_round(
    const struct binding *bound,
    const int64_t *order,
    int64_t order_size,
    const int64_t *starts,
    int64_t num_windows,
    double resolution,
    double gain_eps,
    int allow_escape,
    int swap_avoidance,
    int threads,
    int64_t threshold,
    int64_t *targets,
    double *gains,
    int64_t *origins,
    int64_t *out_movers,
    int64_t *out_windows)
{
    const int64_t *offsets = bound->offsets;
    int64_t movers = 0;
    for (int64_t w = 0; w < num_windows; ++w) {
        const int64_t begin = starts[w];
        const int64_t end = w + 1 < num_windows ? starts[w + 1] : order_size;
        if (begin < 0 || end < begin || end > order_size) {
            return -1;
        }
        const int64_t size = end - begin;
        const int64_t *window = order + begin;
        int64_t *row = out_windows + W_FIELDS * w;
        const int64_t pairs = repro_best_moves(
            bound, window, size, resolution, gain_eps, allow_escape,
            swap_avoidance, threads, targets + begin, gains + begin);
        if (pairs < 0) {
            return -1;
        }
        int64_t stats[4] = {0, 0, 0, 0};
        const int64_t moved = commit_window(
            bound, window, targets + begin, size, origins + begin, stats);
        if (moved < 0) {
            return -1;
        }
        row[W_MOVED] = moved;
        row[W_DEC_RETRIES] = moved - stats[0];
        row[W_DEC_LONGEST] = stats[1];
        row[W_INC_RETRIES] = moved - stats[2];
        row[W_INC_LONGEST] = stats[3];
        row[W_PAIRS] = pairs;
        row[W_SIZE] = size;
        int64_t degree_sum = 0, par_count = 0, par_sum = 0;
        int64_t seq_max = 0, par_max = 0;
        for (int64_t i = 0; i < size; ++i) {
            const int64_t v = window[i];
            const int64_t degree = offsets[v + 1] - offsets[v];
            degree_sum += degree;
            if (degree > threshold) {
                ++par_count;
                par_sum += degree;
                par_max = degree > par_max ? degree : par_max;
            } else {
                seq_max = degree > seq_max ? degree : seq_max;
            }
            /* Front-pack the movers; `movers` never passes begin + i. */
            const int64_t j = begin + i;
            if (origins[j] != targets[j]) {
                out_movers[movers] = v;
                origins[movers] = origins[j];
                targets[movers] = targets[j];
                gains[movers] = gains[j];
                ++movers;
            }
        }
        row[W_DEGREE_SUM] = degree_sum;
        row[W_PAR_COUNT] = par_count;
        row[W_PAR_SUM] = par_sum;
        row[W_SEQ_MAX] = seq_max;
        row[W_PAR_MAX] = par_max;
    }
    return movers;
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

/* Sorts a[0, n) ascending: quicksort down to runs of 16, then insertion
 * sort. */
static void sort_ids(int64_t *a, int64_t n)
{
    while (n > 16) {
        const int64_t x = a[0], y = a[n / 2], z = a[n - 1];
        const int64_t pivot = x < y ? (y < z ? y : (x < z ? z : x))
                                    : (x < z ? x : (y < z ? z : y));
        int64_t i = 0;
        int64_t j = n - 1;
        for (;;) {
            while (a[i] < pivot) {
                ++i;
            }
            while (a[j] > pivot) {
                --j;
            }
            if (i >= j) {
                break;
            }
            const int64_t t = a[i];
            a[i++] = a[j];
            a[j--] = t;
        }
        /* a[0, j] <= pivot <= a[j + 1, n): recurse into the smaller side. */
        if (j + 1 < n - j - 1) {
            sort_ids(a, j + 1);
            a += j + 1;
            n -= j + 1;
        } else {
            sort_ids(a + j + 1, n - j - 1);
            n = j + 1;
        }
    }
    for (int64_t i = 1; i < n; ++i) {
        const int64_t v = a[i];
        int64_t k = i;
        for (; k > 0 && a[k - 1] > v; --k) {
            a[k] = a[k - 1];
        }
        a[k] = v;
    }
}

/* One compression: the job's `arg`.  Class s's members are
 * members[ends[s - 1], ends[s]) (from 0 for s = 0), in ascending order,
 * and its row is written from slots[s], which leaves room for every arc
 * of its members. */
struct quotient {
    const int64_t *offsets;
    const int64_t *neighbors;
    const double *weights;
    const int64_t *labels;
    int64_t *members;
    int64_t *ends;
    int64_t *slots;
    int64_t num_members;
    int64_t *row_sizes;
    double *intra;
    int64_t *keys;
    double *sums;
    _Atomic int any_intra;
};

/* Builds the rows of classes [begin, end); returns their inter-class
 * arcs. */
static int64_t quotient_rows(
    const struct job *job, const struct scratch *own, int64_t begin,
    int64_t end)
{
    struct quotient *q = job->arg;
    const int64_t *offsets = q->offsets;
    const int64_t *neighbors = q->neighbors;
    const double *weights = q->weights;
    const int64_t *labels = q->labels;
    const int64_t *members = q->members;
    double *acc = own->acc;
    uint64_t *bits = own->bits;
    int64_t *touched = own->touched;
    int64_t arcs = 0;
    int any_intra = 0;
    for (int64_t s = begin; s < end; ++s) {
        double intra = 0.0;
        int64_t count = 0;
        int64_t lo = job->size;
        int64_t hi = -1;
        for (int64_t i = s > 0 ? q->ends[s - 1] : 0; i < q->ends[s]; ++i) {
            /* Members are far apart rows: fetch the next ones' early. */
            if (i + AHEAD_VERTEX < q->num_members) {
                __builtin_prefetch(&offsets[members[i + AHEAD_VERTEX]]);
            }
            if (i + AHEAD_ROW < q->num_members) {
                const int64_t u = members[i + AHEAD_ROW];
                __builtin_prefetch(&neighbors[offsets[u]]);
                __builtin_prefetch(&weights[offsets[u]]);
            }
            const int64_t v = members[i];
            for (int64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
                const int64_t d = labels[neighbors[e]];
                if (d == s) {
                    intra += weights[e];
                    any_intra = 1;
                    continue;
                }
                const uint64_t bit = (uint64_t)1 << (d & 63);
                if (!(bits[d >> 6] & bit)) {
                    bits[d >> 6] |= bit;
                    touched[count++] = d;
                    lo = d < lo ? d : lo;
                    hi = d > hi ? d : hi;
                }
                acc[d] += weights[e];
                ++arcs;
            }
        }
        q->intra[s] = intra;
        q->row_sizes[s] = count;
        /* The row in ascending class order: sort a short or sparse list,
         * else read the marks word by word. */
        int64_t *keys = q->keys + q->slots[s];
        double *sums = q->sums + q->slots[s];
        if (count <= 16 || count * 8 < (hi >> 6) - (lo >> 6) + 1) {
            sort_ids(touched, count);
            for (int64_t j = 0; j < count; ++j) {
                const int64_t d = touched[j];
                keys[j] = d;
                sums[j] = acc[d];
                acc[d] = 0.0;
                bits[d >> 6] = 0;
            }
        } else {
            int64_t j = 0;
            for (int64_t w = lo >> 6; w <= hi >> 6; ++w) {
                uint64_t word = bits[w];
                bits[w] = 0;
                for (; word != 0; word &= word - 1) {
                    const int64_t d = w * 64 + __builtin_ctzll(word);
                    keys[j] = d;
                    sums[j++] = acc[d];
                    acc[d] = 0.0;
                }
            }
        }
    }
    if (any_intra) {
        atomic_store_explicit(&q->any_intra, 1, memory_order_relaxed);
    }
    return arcs;
}

/* The body of repro_compress over allocated scratch; returns the number
 * of quotient edges. */
static int64_t build_quotient(
    struct quotient *q, int64_t num_vertices, int64_t num_super,
    const struct scratch *own, int threads, double *self_loops,
    int64_t *out_offsets, int64_t *inter)
{
    const int64_t *offsets = q->offsets;
    const int64_t *labels = q->labels;
    int64_t *members = q->members;
    int64_t *ends = q->ends;
    int64_t *slots = q->slots;

    /* Group: ends[s + 1] counts class s and slots[s + 1] its arcs; the
     * prefix sums make ends[s] class s's start and slots[s] its row's,
     * and placing the members advances ends[s] to the class's end. */
    for (int64_t v = 0; v < num_vertices; ++v) {
        ++ends[labels[v] + 1];
        slots[labels[v] + 1] += offsets[v + 1] - offsets[v];
    }
    for (int64_t c = 0; c < num_super; ++c) {
        ends[c + 1] += ends[c];
        slots[c + 1] += slots[c];
    }
    for (int64_t v = 0; v < num_vertices; ++v) {
        members[ends[labels[v]]++] = v;
    }

    struct job job = {
        .run = quotient_rows,
        .arg = q,
        .size = num_super,
        .ids = num_super,
    };
    *inter = run_job(
        &job, own, offsets[num_vertices] >= SPLIT_MIN_ARCS ? threads : 1,
        NULL);

    /* Close the gaps between rows, in order: each row moves down. */
    int64_t kept = 0;
    for (int64_t c = 0; c < num_super; ++c) {
        out_offsets[c] = kept;
        memmove(&q->keys[kept], &q->keys[slots[c]],
                (size_t)q->row_sizes[c] * sizeof(int64_t));
        memmove(&q->sums[kept], &q->sums[slots[c]],
                (size_t)q->row_sizes[c] * sizeof(double));
        kept += q->row_sizes[c];
    }
    out_offsets[num_super] = kept;
    if (atomic_load_explicit(&q->any_intra, memory_order_relaxed)) {
        for (int64_t c = 0; c < num_super; ++c) {
            self_loops[c] += q->intra[c] / 2.0;
        }
    }
    return kept;
}

/*
 * The edges of the quotient graph whose vertices are the `num_super`
 * classes of `labels`, as graphs/quotient.py builds them with
 * np.unique and np.bincount, without a comparison sort of the arcs:
 *
 *   - a counting sort groups the vertices by class, in ascending order
 *     within one, and gives each class room for its members' arcs;
 *   - each class's row is summed in the dense scratch `acc`, visiting
 *     its members' arcs in CSR order, so each (source, destination) sum
 *     runs from 0.0 in arc order, which is np.bincount's order, and each
 *     intra-class arc's weight is added to the class's own sum the same
 *     way; the row's destinations are then put in ascending order;
 *   - the rows, built on up to `threads` threads when there are at least
 *     SPLIT_MIN_ARCS arcs, are moved together into `keys` and `sums`,
 *     and their bounds written into `out_offsets`.
 *
 * `keys` and `sums` hold at least one entry per arc.  When an arc is
 * intra-class, `self_loops[c]` gains half its class's intra-class sum
 * for every class.  `*inter` receives the number of inter-class arcs.
 * Returns the number of quotient edges, which are the first entries of
 * `keys` and `sums`; -1 when a label is out of range (nothing written);
 * -2 when scratch cannot be allocated.
 */
int64_t repro_compress(
    const int64_t *offsets,
    const int64_t *neighbors,
    const double *weights,
    int64_t num_vertices,
    const int64_t *labels,
    int64_t num_super,
    double *self_loops,
    int threads,
    int64_t *out_offsets,
    int64_t *keys,
    double *sums,
    int64_t *inter)
{
    for (int64_t v = 0; v < num_vertices; ++v) {
        if (labels[v] < 0 || labels[v] >= num_super) {
            return -1;
        }
    }
    struct quotient q = {
        .offsets = offsets,
        .neighbors = neighbors,
        .weights = weights,
        .labels = labels,
        .members = malloc((size_t)(num_vertices + 1) * sizeof(int64_t)),
        .ends = calloc((size_t)num_super + 1, sizeof(int64_t)),
        .slots = calloc((size_t)num_super + 1, sizeof(int64_t)),
        .num_members = num_vertices,
        .row_sizes = malloc((size_t)(num_super + 1) * sizeof(int64_t)),
        .intra = malloc((size_t)(num_super + 1) * sizeof(double)),
        .keys = keys,
        .sums = sums,
    };
    struct scratch own = {0};
    int64_t kept = -2;
    if (q.members != NULL && q.ends != NULL && q.slots != NULL
        && q.row_sizes != NULL && q.intra != NULL
        && grow_scratch(&own, num_super)) {
        kept = build_quotient(
            &q, num_vertices, num_super, &own, threads, self_loops,
            out_offsets, inter);
    }
    free(q.members);
    free(q.ends);
    free(q.slots);
    free(q.row_sizes);
    free(q.intra);
    free_scratch(&own);
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

/* One splice: the job's `arg`.  The base has `base_vertices` rows, the
 * result `num_vertices`; the `count` staged arcs are ordered by
 * (src, dst). */
struct splice {
    const int64_t *offsets;
    const int64_t *neighbors;
    const double *weights;
    int64_t base_vertices;
    int64_t num_vertices;
    const int64_t *src;
    const int64_t *dst;
    const double *w;
    const int64_t *pos;
    const unsigned char *found;
    int64_t count;
    const int64_t *out_offsets;
    int64_t *out_neighbors;
    double *out_weights;
};

/* Rows per item of a splice job, so a 64-item chunk copies 1,024 rows. */
#define SPLICE_ROWS 16

/*
 * The serial first pass of a splice, O(num_vertices + count): writes
 * out_offsets, the arcs written before each row, and checks every staged
 * arc.  A row keeps its base degree, plus its live arcs not found, less
 * its found arcs that are not live.  Returns the number of arcs the
 * splice writes, or -1 on a staged arc out of order or off its row, or a
 * live one whose neighbor lies outside [0, num_vertices) or equals its
 * row.
 */
static int64_t splice_offsets(const struct splice *s, int64_t *out_offsets)
{
    const int64_t *offsets = s->offsets;
    const int64_t base_vertices = s->base_vertices;
    const int64_t num_vertices = s->num_vertices;
    const int64_t m = offsets[base_vertices];
    int64_t shift = 0; /* arcs written less base arcs read, so far */
    int64_t k = 0;
    int64_t v = 0;
    out_offsets[0] = 0;
    for (;;) {
        /* The rows before the next row with staged arcs keep their
         * degree. */
        const int64_t next = k < s->count ? s->src[k] : num_vertices;
        if (next < v || next > num_vertices) {
            return -1;
        }
        const int64_t base_next = next < base_vertices ? next : base_vertices;
        for (; v < base_next; ++v) {
            out_offsets[v + 1] = offsets[v + 1] + shift;
        }
        for (; v < next; ++v) {
            out_offsets[v + 1] = m + shift;
        }
        if (v == num_vertices) {
            return k == s->count ? m + shift : -1;
        }
        const int64_t hi = v < base_vertices ? offsets[v + 1] : m;
        /* The first base arc of the row not yet passed. */
        int64_t e = v < base_vertices ? offsets[v] : m;
        for (; k < s->count && s->src[k] == v; ++k) {
            const int64_t p = s->pos[k];
            if (p < e || p > hi || (s->found[k] && p == hi)
                || (s->w[k] != 0.0 && bad_arc(s->dst[k], v, num_vertices))) {
                return -1;
            }
            e = p + s->found[k];
            shift += (s->w[k] != 0.0) - s->found[k];
        }
        out_offsets[v + 1] = hi + shift;
        ++v;
    }
}

/* Copies and merges the rows of items [begin, end) of a splice job into
 * the slice of the outputs that out_offsets gives them; returns 0.  The
 * staged arcs' positions never decrease, so the base arcs between two of
 * them, in one row or across verbatim rows, are one run. */
static int64_t splice_rows(
    const struct job *job, const struct scratch *own, int64_t begin,
    int64_t end)
{
    (void)own;
    const struct splice *s = job->arg;
    const int64_t base_vertices = s->base_vertices;
    const int64_t first = begin * SPLICE_ROWS;
    const int64_t stop =
        end * SPLICE_ROWS < s->num_vertices ? end * SPLICE_ROWS : s->num_vertices;
    int64_t e = s->offsets[first < base_vertices ? first : base_vertices];
    int64_t out = s->out_offsets[first];
    for (int64_t k = lower_bound(s->src, 0, s->count, first);
         k < s->count && s->src[k] < stop; ++k) {
        const int64_t p = s->pos[k];
        copy_run(s->neighbors, s->weights, e, p, s->out_neighbors,
                 s->out_weights, out);
        out += p - e;
        e = p + s->found[k];
        if (s->w[k] != 0.0) {
            s->out_neighbors[out] = s->dst[k];
            s->out_weights[out++] = s->w[k];
        }
    }
    copy_run(s->neighbors, s->weights, e,
             s->offsets[stop < base_vertices ? stop : base_vertices],
             s->out_neighbors, s->out_weights, out);
    return 0;
}

/* The cores this thread may run on (sched_getaffinity), as
 * native.usable_cores() counts them; 1 when they cannot be read. */
static int affinity_cores(void)
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0) {
        return 1;
    }
    return CPU_COUNT(&set);
}

/*
 * Splices staged arcs into a CSR graph with sorted rows, writing the new
 * graph over `num_vertices >= base_vertices` vertices into out_offsets
 * (num_vertices + 1 entries), out_neighbors and out_weights (`capacity`
 * entries each).  The `count` staged arcs are ordered by (src, dst),
 * with pos and found from repro_find_arcs and a target weight w (0.0 for
 * an absent arc).  A row with staged arcs copies its base arcs in order,
 * and at each staged arc's position:
 *
 *   - a found arc with a live weight is rewritten with that weight;
 *   - a found arc with weight 0.0 is skipped;
 *   - an arc not found is placed there when its weight is live.
 *
 * Rows without staged arcs are copied verbatim, in runs that reach from
 * one row with staged arcs to the next, with one memcpy per array.
 *
 * A serial pass writes out_offsets and checks the staged arcs (see
 * splice_offsets); the rows are then copied and merged on up to every
 * core this thread may run on when the base has at least
 * SPLIT_MIN_ARCS arcs, each chunk of rows into its own slice of the
 * outputs, so any split writes the serial pass's arrays.  The base is
 * valid CSR (DeltaOverlayGraph validates it once, and every splice keeps
 * it valid), so its arcs are not checked again: a verbatim arc keeps its
 * row, and its neighbor stays below num_vertices, which only grows.
 * out_offsets starts at 0 and never decreases, because it counts the
 * arcs written.  Returns the number of arcs written, which is
 * out_offsets[num_vertices], or -1, with out_neighbors and out_weights
 * untouched, on a bad staged arc, a staged arc out of order or off its
 * row, or more arcs than `capacity`.
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
    struct splice s = {
        offsets, neighbors, weights, base_vertices, num_vertices, src, dst,
        w, pos, found, count, out_offsets, out_neighbors, out_weights,
    };
    const int64_t written = splice_offsets(&s, out_offsets);
    if (written < 0 || written > capacity) {
        return -1;
    }
    const struct scratch own = {0};
    struct job job = {
        .run = splice_rows,
        .arg = &s,
        .size = (num_vertices + SPLICE_ROWS - 1) / SPLICE_ROWS,
    };
    run_job(&job, &own,
            offsets[base_vertices] >= SPLIT_MIN_ARCS ? affinity_cores() : 1,
            &pool.splices);
    return written;
}
