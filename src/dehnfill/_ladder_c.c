/* Compiled ladder kernel.  It has one entry point, the bulk scan of
 * dehnfill._ladder_py, with the same state numbering and outputs, and one job:
 * counting the maximal carried paths of seeded ladders, and the violating
 * ones, by the path DP of dehnfill._ladder_py (_suffix_counts), with no
 * witness path:
 *
 *   scan_ladder(seed, cases, max_levels, max_rungs_per_gap, alternating,
 *               step_bound)
 *       draws the ladders that random.Random(seed), ..., Random(seed +
 *       cases - 1) give, word for word as dehnfill.ladders._draw does,
 *       builds each one's state graph as dehnfill._ladder_py._build_tables
 *       does, counts its paths, and sums the counts.  Its own MT19937s,
 *       seeded from the ints as CPython seeds one, hand out the words, so it
 *       calls no random.Random.  The seeds come in blocks of eight, and
 *       the seedings of a block run in lock-step: init_by_array is one long
 *       chain of dependent steps, and independent chains keep the CPU busy.
 *       A call whose seeds do not all fit in a long long goes to
 *       dehnfill._ladder_py.scan_ladder whole.
 *
 * A scan_ladder call of `cases` ladders runs on min(CPUs, cases / 16)
 * threads, where CPUs counts the CPUs in the calling thread's affinity mask,
 * less the pool threads still inside a job (at most MAX_THREADS): the calling
 * thread and the idle threads of a process-wide pool, which touch no Python
 * object.  The pool holds at most CPUs - 1 detached POSIX threads, each
 * started the first time a call needs it and bound to a CPU of its own (see
 * slot_start).  A call hands each thread it takes the job through one atomic
 * pointer.  After a job, a pool thread waits on the CPU, with the pause
 * instruction, for SPIN_NS (1 ms), as the next call of a loop usually comes
 * within microseconds, then sleeps on a condition variable until a call
 * wakes it.  A pool thread keeps its eight generators, its buffers and its
 * list of deferred ladders from call to call; it frees any of these above
 * KEEP_BYTES (256 KiB) at the end of a job, as a ladder at the size cap needs
 * about 190 MB a thread.  A call takes only the idle threads, down to the
 * calling thread alone: some may still be busy after an interrupted call, or
 * when a call starts in a signal handler or in fold_in during another.  A
 * forked child has none of its parent's pool threads, so a pthread_atfork
 * handler starts it on a pool of its own.  The threads take blocks in turn
 * from a shared counter, each with its own generators, buffers and counts;
 * the calling thread keeps the GIL, runs the signal handlers, and merges the
 * counts once every block is done.  Each thread keeps the lowest index of the
 * violating ladders it counted, and leaves out of its counts, by index, every
 * ladder that the DP cannot count or whose counts leave 64 bits; the calling
 * thread then has dehnfill._ladder_py.fold_in scan those, in Python ints.
 * Sums, maxima and minima do not depend on which thread counted which ladder,
 * so the result is the same on any number of threads.
 *
 * Arguments are positional.  The DP checks for signals every 2**16 steps, and
 * scan_ladder between ladders, so Ctrl-C stops a long call; the other threads
 * stop at their next check.  Only the public CPython API is used, and there
 * is no floating point.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

/* The largest max_levels and max_rungs_per_gap of a seeded ladder, as in
 * dehnfill.ladders.SIZE_CAP.  Up to it a ladder has fewer than 2**20 rungs,
 * 2**23 states and 2**22 rung slots, so every count fits in an int and every
 * draw takes at most 32 bits of a word. */
#define SIZE_CAP 1000

/* The most threads of one call. */
#define MAX_THREADS 64

/* The most paths, or violations, that one thread's tally counts, so that the
 * sums of the tallies of a call fit in a long long. */
#define TALLY_CAP (LLONG_MAX / MAX_THREADS)

typedef struct {
    int n_levels, n_sw, n_rungs, n_line_states, n_states;
    int *offsets;                                          /* n_levels + 1 */
    int *sw_rung, *sw_end;                                 /* n_sw */
    int *rung_level, *cusp_lo, *cusp_hi, *lo_idx, *hi_idx; /* n_rungs */
    int *seg_level; /* n_sw + n_levels: the level of each line segment */
} Track;

/* The number of ints of a track's arrays. */
static size_t
track_size(int n_levels, int n_sw, int n_rungs)
{
    return (size_t)(n_levels + 1) + 3 * (size_t)n_sw + 5 * (size_t)n_rungs + (size_t)n_levels;
}

/* Set the counts of `t` and lay its arrays out in `mem`, which holds
 * track_size() ints. */
static void
track_layout(Track *t, int *mem, int n_levels, int n_sw, int n_rungs)
{
    t->n_levels = n_levels;
    t->n_sw = n_sw;
    t->n_rungs = n_rungs;
    t->n_line_states = 2 * (n_sw + n_levels);
    t->n_states = t->n_line_states + 2 * n_rungs;
    t->offsets = mem;
    t->sw_rung = t->offsets + n_levels + 1;
    t->sw_end = t->sw_rung + n_sw;
    t->rung_level = t->sw_end + n_sw;
    t->cusp_lo = t->rung_level + n_rungs;
    t->cusp_hi = t->cusp_lo + n_rungs;
    t->lo_idx = t->cusp_hi + n_rungs;
    t->hi_idx = t->lo_idx + n_rungs;
    t->seg_level = t->hi_idx + n_rungs;
}

/* Fill seg_level from the offsets. */
static void
track_index_segments(Track *t)
{
    for (int level = 0; level < t->n_levels; level++) {
        for (int s = t->offsets[level]; s <= t->offsets[level + 1]; s++) {
            t->seg_level[s + level] = level;
        }
    }
}

static inline int
line_state(const Track *t, int level, int seg, int forward)
{
    return 2 * (t->offsets[level] + level + seg) + forward;
}

/* The 0, 1 or 2 follow-up states of `state`; the rung exit comes last. */
static int
successors(const Track *t, int state, int *s0, int *s1)
{
    int level, k, cusp;
    if (state < t->n_line_states) {
        int idx = state >> 1;
        int d = (state & 1) ? 1 : -1;
        level = t->seg_level[idx];
        int seg = idx - t->offsets[level] - level;
        k = d > 0 ? seg : seg - 1; /* switch ahead */
        if (k < 0 || k >= t->offsets[level + 1] - t->offsets[level]) {
            return 0; /* line end: maximal */
        }
        int sw = t->offsets[level] + k;
        int r = t->sw_rung[sw];
        cusp = t->sw_end[sw] == 0 ? t->cusp_lo[r] : t->cusp_hi[r];
        *s0 = line_state(t, level, seg + d, d > 0);
        if (d == cusp) {
            return 1;
        }
        /* Leaving from the lower end heads up. */
        *s1 = t->n_line_states + 2 * r + (t->sw_end[sw] == 0);
        return 2;
    }
    int r = (state - t->n_line_states) >> 1;
    if (state & 1) { /* heading to the upper end */
        level = t->rung_level[r] + 1;
        k = t->hi_idx[r];
        cusp = t->cusp_hi[r];
    }
    else {
        level = t->rung_level[r];
        k = t->lo_idx[r];
        cusp = t->cusp_lo[r];
    }
    *s0 = line_state(t, level, cusp > 0 ? k + 1 : k, cusp > 0);
    return 1;
}

/* The line end of `level` that maximal paths start from: its left end heading
 * right (side 0), or its right end heading left (side 1). */
static inline int
source(const Track *t, int level, int side)
{
    return side == 0 ? line_state(t, level, 0, 1) : line_state(t, level, t->offsets[level + 1] - t->offsets[level], 0);
}

/* A state on the DP's search stack and its successors, of which the first
 * `iter` are taken. */
typedef struct {
    int state, iter, n, s0, s1;
} Frame;

/* What the path DP knows of the maximal paths from one state, as
 * dehnfill._ladder_py._suffix_counts describes. */
typedef struct {
    uint64_t total;  /* the maximal paths from the state */
    uint64_t bad[2]; /* of those, the ones that make the whole path violate
                      * when the path up to and with the state has crossed
                      * 0 or 1 rungs */
    int longest;     /* the most states on one of them */
} Suffix;

/* Buffers that one thread reuses for every track it counts, each grown when a
 * track needs more, and the flag that stops the threads of a call. */
typedef struct {
    int *ints; /* the arrays of a drawn track */
    size_t n_ints;
    Frame *frames; /* the search stack */
    size_t n_frames;
    unsigned char *marks; /* all zero between counts */
    size_t n_marks;
    Suffix *dp; /* the path DP, per state */
    size_t n_dp;
    atomic_int *stop; /* set when a thread of the call fails */
    int caller;       /* 1 on the calling thread, which holds the GIL */
} Scratch;

/* `buf` when it holds `need` items of `size` bytes, else a new zeroed block
 * in its place, with the old one freed and `*cap` updated.  NULL, with `buf`
 * kept, when there is no memory; no exception is set, as worker threads call
 * it too. */
static void *
reserve(void *buf, size_t *cap, size_t need, size_t size)
{
    if (need <= *cap) {
        return buf;
    }
    void *grown = calloc(need, size);
    if (grown == NULL) {
        return NULL;
    }
    free(buf);
    *cap = need;
    return grown;
}

static void
scratch_free(Scratch *sc)
{
    free(sc->ints);
    free(sc->frames);
    free(sc->marks);
    free(sc->dp);
}

/* 1 when the thread should give up: on the calling thread a signal handler
 * raised, or some thread of the call failed. */
static int
stopping(Scratch *sc)
{
    if (sc->caller && PyErr_CheckSignals() < 0) {
        atomic_store(sc->stop, 1);
        return 1;
    }
    return atomic_load_explicit(sc->stop, memory_order_relaxed);
}

/* The path DP of dehnfill._ladder_py._suffix_counts: fill sc->dp for every
 * state that the sources reach, by one memoised search in postorder, and sum
 * over the sources the directed maximal paths into `*total` and the violating
 * ones into `*bad`, with the most states on one of them in `*longest`.  The
 * forward direction is +1: both kinds of seeded ladder orient level 0 by +1,
 * whether or not they are of leaf-trace type.  Returns 0; 1 when the DP cannot
 * give the counts of the enumeration in dehnfill._ladder_py, because the
 * states that the sources reach hold a cycle or a path of step_bound states
 * (where the enumeration truncates), or a count leaves uint64; or -1 when out
 * of memory, stopped or interrupted. */
static int
count_paths(const Track *t, long step_bound, Scratch *sc, uint64_t *total, uint64_t *bad, int *longest)
{
    size_t n_states = (size_t)t->n_states;
    if (step_bound <= 1) {
        return 1;
    }
    size_t max_depth = (size_t)step_bound < n_states ? (size_t)step_bound : n_states;
    Suffix *dp = reserve(sc->dp, &sc->n_dp, n_states + 1, sizeof(Suffix));
    if (dp == NULL) {
        return -1;
    }
    sc->dp = dp;
    Frame *st = reserve(sc->frames, &sc->n_frames, max_depth + 1, sizeof(Frame));
    if (st == NULL) {
        return -1;
    }
    sc->frames = st;
    unsigned char *mark = reserve(sc->marks, &sc->n_marks, n_states + 1, 1);
    if (mark == NULL) {
        return -1;
    }
    sc->marks = mark; /* 1 on the search path, 2 once counted */
    unsigned int steps = 0;
    int status = 0;
    *total = *bad = 0;
    *longest = 0;
    for (int level = 0; level < t->n_levels; level++) {
        for (int side = 0; side < 2; side++) {
            int src = source(t, level, side), depth = 0;
            if (mark[src] == 0) {
                st[0].state = src;
                st[0].iter = 0;
                st[0].n = successors(t, src, &st[0].s0, &st[0].s1);
                mark[src] = 1;
            }
            else {
                depth = -1;
            }
            while (depth >= 0) {
                if (++steps % 65536 == 0 && stopping(sc)) {
                    status = -1;
                    goto done;
                }
                Frame *f = &st[depth];
                if (f->iter < f->n) {
                    int next = f->iter++ == 0 ? f->s0 : f->s1;
                    /* A cycle, or a path of step_bound states. */
                    if (mark[next] == 1 || (mark[next] == 0 && depth + 2 >= step_bound)) {
                        status = 1;
                        goto done;
                    }
                    if (mark[next] == 0) {
                        f = &st[++depth];
                        f->state = next;
                        f->iter = 0;
                        f->n = successors(t, next, &f->s0, &f->s1);
                        mark[next] = 1;
                    }
                    continue;
                }
                /* Every successor is counted. */
                Suffix *d = &dp[f->state];
                if (f->n == 0) {
                    /* A sink, where a path that crossed one rung is judged:
                     * it holds when, read forward, it runs from an odd line
                     * to an even one. */
                    d->total = 1;
                    d->bad[0] = 0;
                    d->bad[1] = (f->state & 1) != (t->seg_level[f->state >> 1] % 2 == 0);
                    d->longest = 1;
                }
                else {
                    *d = dp[f->s0]; /* the line state ahead */
                    d->longest++;
                    if (f->n == 2) {
                        /* The rung exit: a second rung, or a rung that turns
                         * the direction, violates. */
                        const Suffix *e = &dp[f->s1];
                        int r = (f->s1 - t->n_line_states) >> 1;
                        uint64_t turned = t->cusp_lo[r] == t->cusp_hi[r] ? e->total : e->bad[1];
                        if (__builtin_add_overflow(d->total, e->total, &d->total)
                            || __builtin_add_overflow(d->bad[0], turned, &d->bad[0])
                            || __builtin_add_overflow(d->bad[1], e->total, &d->bad[1])) {
                            status = 1;
                            goto done;
                        }
                        if (e->longest >= d->longest) {
                            d->longest = e->longest + 1;
                        }
                    }
                }
                mark[f->state] = 2;
                depth--;
            }
            /* The DP gives up on a path of step_bound states on its stack,
             * but a memoised state can end a longer one. */
            if (dp[src].longest >= step_bound || __builtin_add_overflow(*total, dp[src].total, total)
                || __builtin_add_overflow(*bad, dp[src].bad[0], bad)) {
                status = 1;
                goto done;
            }
            if (dp[src].longest > *longest) {
                *longest = dp[src].longest;
            }
        }
    }
done:
    memset(mark, 0, n_states);
    return status;
}

/* The summed counts of the ladders that the threads of a call counted, the
 * longest path, the most paths of one ladder and the lowest index of a
 * violating one (the call's case count when none violates). */
typedef struct {
    long long paths, violations, max_paths;
    int max_len;
    Py_ssize_t first_bad;
} Tally;

/* Add to `tally` a ladder of the directed counts `total` and `bad` that
 * count_paths gives and the longest path `longest`.  No path is its own
 * reverse, and a path and its reverse get the same verdict, so the counts of
 * undirected paths are half those.  Returns 0, or 1, with nothing added, when
 * a sum would pass TALLY_CAP. */
static int
tally_add(Tally *tally, uint64_t total, uint64_t bad, int longest)
{
    long long n_paths = (long long)(total / 2), n_bad = (long long)(bad / 2);
    if (n_paths > TALLY_CAP - tally->paths || n_bad > TALLY_CAP - tally->violations) {
        return 1;
    }
    tally->paths += n_paths;
    tally->violations += n_bad;
    if (n_paths > tally->max_paths) {
        tally->max_paths = n_paths;
    }
    if (longest > tally->max_len) {
        tally->max_len = longest;
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * scan_ladder: the ladders that random.Random(seed), Random(seed + 1), ... draw
 * ------------------------------------------------------------------------ */

static int
as_long(PyObject *obj, long *out)
{
    *out = PyLong_AsLong(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* The function `name` of dehnfill._ladder_py. */
static PyObject *
python_kernel(const char *name)
{
    PyObject *module = PyImport_ImportModule("dehnfill._ladder_py");
    if (module == NULL) {
        return NULL;
    }
    PyObject *func = PyObject_GetAttrString(module, name);
    Py_DECREF(module);
    return func;
}

/* MT19937 (Matsumoto and Nishimura, ACM TOMACS 8, 1998), seeded as
 * random.Random(int) seeds it in CPython 3.11 to 3.13: init_by_array on the
 * 32-bit little-endian words of abs(seed), [0] for 0.  Word i of the stream
 * is the one that the i-th getrandbits(k <= 32) call shifts right by 32 - k. */
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int pos; /* the next word to twist and hand out */
} MT;

/* init_genrand(19650218), the start of every init_by_array; set at module
 * init. */
static uint32_t mt_base[MT_N];

static void
mt_init_base(void)
{
    mt_base[0] = 19650218U;
    for (uint32_t i = 1; i < MT_N; i++) {
        mt_base[i] = 1812433253U * (mt_base[i - 1] ^ (mt_base[i - 1] >> 30)) + i;
    }
}

/* The seeds of a call come in blocks of LANES, whose seedings run in
 * lock-step. */
#define LANES 8

#if defined(__GNUC__)
#define ALWAYS_INLINE __attribute__((always_inline))
#else
#define ALWAYS_INLINE
#endif

/* init_by_array on the two-word keys of `lanes` generators, in lock-step.
 * Each step waits on the one before in its own chain, about 1,250 steps per
 * seeding; the chains overlap.  `lanes` is a constant at each call (see
 * mt_seed), so the compiler keeps the chains' last words in registers. */
static inline ALWAYS_INLINE void
mt_seed_lanes(MT *g, uint32_t (*key)[2], int lanes)
{
    uint32_t prev[LANES];
    for (int l = 0; l < lanes; l++) {
        memcpy(g[l].mt, mt_base, sizeof(mt_base));
        prev[l] = mt_base[0];
    }
    size_t i = 1, j = 0;
    for (size_t k = MT_N; k; k--) {
        for (int l = 0; l < lanes; l++) {
            uint32_t p = prev[l];
            prev[l] = g[l].mt[i] = (g[l].mt[i] ^ ((p ^ (p >> 30)) * 1664525U)) + key[l][j] + (uint32_t)j;
        }
        i++;
        j ^= 1;
        if (i >= MT_N) {
            for (int l = 0; l < lanes; l++) {
                g[l].mt[0] = prev[l];
            }
            i = 1;
        }
    }
    for (size_t k = MT_N - 1; k; k--) {
        for (int l = 0; l < lanes; l++) {
            uint32_t p = prev[l];
            prev[l] = g[l].mt[i] = (g[l].mt[i] ^ ((p ^ (p >> 30)) * 1566083941U)) - (uint32_t)i;
        }
        i++;
        if (i >= MT_N) {
            for (int l = 0; l < lanes; l++) {
                g[l].mt[0] = prev[l];
            }
            i = 1;
        }
    }
    for (int l = 0; l < lanes; l++) {
        g[l].mt[0] = 0x80000000U;
        g[l].pos = 0;
    }
}

/* Seed the `lanes` generators g[0..lanes-1] (1 <= lanes <= LANES) from their
 * keys, seeding only those. */
static void
mt_seed(MT *g, uint32_t (*key)[2], int lanes)
{
    switch (lanes) {
    case 1: mt_seed_lanes(g, key, 1); break;
    case 2: mt_seed_lanes(g, key, 2); break;
    case 3: mt_seed_lanes(g, key, 3); break;
    case 4: mt_seed_lanes(g, key, 4); break;
    case 5: mt_seed_lanes(g, key, 5); break;
    case 6: mt_seed_lanes(g, key, 6); break;
    case 7: mt_seed_lanes(g, key, 7); break;
    default: mt_seed_lanes(g, key, LANES);
    }
}

/* The next word.  The generator twists all 624 words before the first one it
 * hands out after a seeding or a wrap; twisting one word at a time, in order,
 * just before it is handed out reads the same old and new words. */
static inline uint32_t
mt_next(MT *g)
{
    uint32_t *mt = g->mt;
    int k = g->pos, k1 = k + 1 == MT_N ? 0 : k + 1, km = k + MT_M < MT_N ? k + MT_M : k + MT_M - MT_N;
    uint32_t y = (mt[k] & 0x80000000U) | (mt[k1] & 0x7fffffffU);
    y = mt[k] = mt[km] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
    g->pos = k1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* A two-word init_by_array key of the seed `v` that seeds the same state as
 * CPython's key, the 32-bit little-endian words of abs(v), [0] for 0.  Below
 * 2^32 CPython's key is the one word w = abs(v); the key (w, w - 1 mod 2^32)
 * seeds the same state, because step j of init_by_array adds key[j] + j, which
 * is w at every step for both keys, and both keys run max(624, key length) =
 * 624 steps. */
static void
mt_key(long long v, uint32_t words[2])
{
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
    words[0] = (uint32_t)u;
    words[1] = u >> 32 ? (uint32_t)(u >> 32) : words[0] - 1U;
}

typedef struct Job Job;

/* What each thread of a call owns: its generators and buffers, which a pool
 * thread keeps from call to call, and its counts of the call. */
typedef struct {
    Job *job;
    MT g[LANES];
    Scratch sc;
    Tally tally;
    /* The indices of the ladders left out of the tally, which the calling
     * thread has dehnfill._ladder_py.fold_in scan: those that count_paths
     * cannot count or that would take the tally past TALLY_CAP. */
    Py_ssize_t *deferred;
    size_t n_deferred, deferred_cap;
} Worker;

/* One scan_ladder call, shared by its threads.  It is freed by the last
 * thread to let it go, so the calling thread need not wait for a pool thread
 * that the host has not run by the time every block is taken. */
struct Job {
    long long first; /* the first seed; every seed of the call fits */
    Py_ssize_t cases, n_blocks;
    int max_levels, max_rungs, alternating;
    long step_bound;
    atomic_llong next_block; /* the next block of LANES seeds to take */
    atomic_int stop;         /* set when a thread fails */
    atomic_int busy;         /* threads that may be inside a block */
    atomic_int refs;         /* threads that still use the job */
    Worker caller;           /* the calling thread's */
};

/* Seed g[0..n-1] for the seeds of the call at indices base, ..., base + n - 1,
 * in lock-step: every key has two words (mt_key). */
static void
seed_block(MT *g, const Job *job, Py_ssize_t base, int n)
{
    uint32_t key[LANES][2];
    for (int l = 0; l < n; l++) {
        mt_key(job->first + base + l, key[l]);
    }
    mt_seed(g, key, n);
}

/* A draw below n as Random._randbelow makes it: the top n.bit_length() bits
 * of one word after another, until one is below n. */
static inline int
below(MT *g, uint32_t n)
{
    int shift = 32;
    for (uint32_t m = n; m; m >>= 1) {
        shift--;
    }
    for (;;) {
        uint32_t r = mt_next(g) >> shift;
        if (r < n) {
            return (int)r;
        }
    }
}

/* The size below which Random.sample picks k items from a pool list rather
 * than by rejection against a set (dehnfill.ladders._sample_set_size). */
static long long
sample_set_size(long long k)
{
    long long size = 21;
    if (k > 5) {
        long long table = 1;
        while (table < 3 * k) {
            table *= 4;
        }
        size += table;
    }
    return size;
}

/* Draw the ladder from `g` and encode it in `t`, whose arrays lie in
 * sc->ints.  Returns 0, or -1 when there is no memory.  The draws are those
 * of dehnfill.ladders._draw, in its order. */
static int
draw_track(MT *g, int max_levels, int max_rungs, int alternating, Track *t, Scratch *sc)
{
    int gap_rungs[SIZE_CAP], cursor[SIZE_CAP];
    int n_levels = below(g, (uint32_t)max_levels - 1) + 2, n_rungs = 0;
    for (int k = 0; k < n_levels - 1; k++) {
        gap_rungs[k] = below(g, (uint32_t)max_rungs + 1);
        n_rungs += gap_rungs[k];
    }
    /* Positions are ints in units of 1/16: each rung has its own slot
     * j < n_slots, its low foot at 4 + 4j and its high foot 1/16 left, level
     * or right of that (see _draw). */
    int n_slots = 4 * n_rungs + 7;
    size_t n_track = track_size(n_levels, 2 * n_rungs, n_rungs);
    int *mem = reserve(sc->ints, &sc->n_ints, n_track + (size_t)n_rungs + (size_t)n_slots, sizeof(int));
    if (mem == NULL) {
        return -1;
    }
    sc->ints = mem;
    track_layout(t, mem, n_levels, 2 * n_rungs, n_rungs);
    int *low = t->seg_level + 2 * n_rungs + n_levels, *slot = low + n_rungs;
    int *level = t->rung_level;
    for (int k = 0, i = 0; k < n_levels - 1; k++) {
        for (int c = 0; c < gap_rungs[k]; c++) {
            level[i++] = k;
        }
    }
    /* sample(range(4, 16 * (n_rungs + 2), 4), n_rungs): pool or set branch. */
    if (n_slots <= sample_set_size(n_rungs)) {
        for (int i = 0; i < n_slots; i++) {
            slot[i] = 4 + 4 * i;
        }
        for (int i = 0; i < n_rungs; i++) {
            int size = n_slots - i, j = below(g, (uint32_t)size);
            low[i] = slot[j];
            slot[j] = slot[size - 1];
        }
    }
    else {
        memset(slot, 0, (size_t)n_slots * sizeof(int));
        for (int i = 0; i < n_rungs; i++) {
            int j;
            do {
                j = below(g, (uint32_t)n_slots);
            } while (slot[j]);
            slot[j] = 1;
            low[i] = 4 + 4 * j;
        }
    }
    for (int size = n_rungs; size > 1; size--) { /* shuffle */
        int j = below(g, (uint32_t)size), x = low[size - 1];
        low[size - 1] = low[j];
        low[j] = x;
    }
    /* The nudges of the high feet: they keep each foot inside its slot's
     * window 4 + 4j - 1 .. 4 + 4j + 1, so only their words count. */
    for (int i = 0; i < n_rungs; i++) {
        below(g, 3);
    }
    /* Cusps: alternating ladders agree with the standard orientations,
     * +1 on even levels; the control has +1 below and -1 above. */
    for (int i = 0; i < n_rungs; i++) {
        t->cusp_lo[i] = alternating && level[i] % 2 ? -1 : 1;
        t->cusp_hi[i] = alternating && level[i] % 2 ? 1 : -1;
    }

    /* Encode.  Slot windows are disjoint, so the feet on each level lie in
     * slot order, at distinct positions: one pass over the slots sorts every
     * level, and no two feet can collide. */
    memset(cursor, 0, (size_t)n_levels * sizeof(int));
    for (int i = 0; i < n_rungs; i++) {
        cursor[level[i]]++;
        cursor[level[i] + 1]++;
    }
    t->offsets[0] = 0;
    for (int k = 0; k < n_levels; k++) {
        t->offsets[k + 1] = t->offsets[k] + cursor[k];
        cursor[k] = t->offsets[k];
    }
    for (int i = 0; i < n_slots; i++) {
        slot[i] = -1;
    }
    for (int i = 0; i < n_rungs; i++) {
        slot[(low[i] >> 2) - 1] = i;
    }
    for (int s = 0; s < n_slots; s++) {
        int i = slot[s];
        if (i < 0) {
            continue;
        }
        for (int end = 0; end < 2; end++) {
            int k = level[i] + end, sw = cursor[k]++;
            t->sw_rung[sw] = i;
            t->sw_end[sw] = end;
            (end ? t->hi_idx : t->lo_idx)[i] = sw - t->offsets[k];
        }
    }
    track_index_segments(t);
    return 0;
}

/* Seed, draw and count the ladders of block `block` into the worker's tally,
 * or note them as deferred.  Returns 0, or -1 when out of memory, stopped or
 * interrupted. */
static int
scan_block(Worker *w, long long block)
{
    Job *job = w->job;
    Py_ssize_t base = (Py_ssize_t)block * LANES;
    int n = job->cases - base < LANES ? (int)(job->cases - base) : LANES;
    seed_block(w->g, job, base, n);
    for (int l = 0; l < n; l++) {
        Track t;
        uint64_t total, bad;
        int longest, status;
        if (stopping(&w->sc)
            || draw_track(&w->g[l], job->max_levels, job->max_rungs, job->alternating, &t, &w->sc) < 0
            || (status = count_paths(&t, job->step_bound, &w->sc, &total, &bad, &longest)) < 0) {
            return -1;
        }
        if (status == 0 && tally_add(&w->tally, total, bad, longest) == 0) {
            if (bad > 0 && base + l < w->tally.first_bad) {
                w->tally.first_bad = base + l;
            }
            continue;
        }
        if (w->n_deferred == w->deferred_cap) {
            size_t cap = w->deferred_cap ? 2 * w->deferred_cap : LANES;
            Py_ssize_t *grown = realloc(w->deferred, cap * sizeof(Py_ssize_t));
            if (grown == NULL) {
                return -1;
            }
            w->deferred = grown;
            w->deferred_cap = cap;
        }
        w->deferred[w->n_deferred++] = base + l;
    }
    return 0;
}

/* Take blocks in turn and scan them until none is left or the call stops; a
 * thread that fails stops the call.  A thread counts itself busy before it
 * takes a block and until the block is done, so the calling thread, once
 * every block is taken, sees every thread that can still write its tally. */
static void
run_blocks(Worker *w)
{
    Job *job = w->job;
    for (;;) {
        atomic_fetch_add(&job->busy, 1);
        long long block = atomic_fetch_add(&job->next_block, 1);
        int more = block < job->n_blocks && !atomic_load(&job->stop);
        if (more && scan_block(w, block) < 0) {
            atomic_store(&job->stop, 1);
        }
        atomic_fetch_sub(&job->busy, 1);
        if (!more || atomic_load(&job->stop)) {
            return;
        }
    }
}

static void
job_release(Job *job)
{
    if (atomic_fetch_sub(&job->refs, 1) == 1) {
        free(job);
    }
}

/* Ready `w` for `job`: a new tally and no deferred ladder.  Its generators and
 * buffers stay as they are. */
static void
worker_join(Worker *w, Job *job, int caller)
{
    w->job = job;
    w->sc.stop = &job->stop;
    w->sc.caller = caller;
    w->tally = (Tally){0, 0, 0, 0, job->cases};
    w->n_deferred = 0;
}

/* ------------------------------------------------------------------------
 * The pool: at most (usable CPUs - 1) threads, each started the first time a
 * call needs it, which keep their Worker from call to call.
 * ------------------------------------------------------------------------ */

/* The most bytes a buffer of a pool thread keeps between calls.  The ladders
 * of the size cap need about 190 MB a thread, so larger buffers are freed at
 * the end of each job. */
#define KEEP_BYTES ((size_t)1 << 18)

/* How long a pool thread waits for its next job on the CPU before it
 * sleeps. */
#define SPIN_NS 1000000LL

/* `buf`, or NULL, with `buf` freed and `*cap` zero, when it holds more than
 * KEEP_BYTES. */
static void *
shrink(void *buf, size_t *cap, size_t size)
{
    if (*cap * size <= KEEP_BYTES) {
        return buf;
    }
    free(buf);
    *cap = 0;
    return NULL;
}

static void
scratch_shrink(Scratch *sc)
{
    sc->ints = shrink(sc->ints, &sc->n_ints, sizeof(int));
    sc->frames = shrink(sc->frames, &sc->n_frames, sizeof(Frame));
    sc->marks = shrink(sc->marks, &sc->n_marks, 1);
    sc->dp = shrink(sc->dp, &sc->n_dp, sizeof(Suffix));
}

/* A pool thread and the Worker it keeps. */
typedef struct {
    Worker w;
    _Atomic(Job *) job; /* the job handed to the thread; NULL once it is done */
    /* 2 from a claim, one for the call and one for the thread, each let go
     * when done with w; 0 when the slot is idle. */
    atomic_int holders;
    atomic_int parked; /* 1 while the thread may sleep on `wake` */
    pthread_mutex_t lock;
    pthread_cond_t wake;
} Slot;

/* The slots started, each allocated when its thread starts. */
static Slot *pool[MAX_THREADS - 1];
static int pool_size;
static pthread_mutex_t pool_lock = PTHREAD_MUTEX_INITIALIZER;

/* Pool threads inside a job. */
static atomic_int busy_workers;

static inline void
cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

static long long
now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1000000000LL + t.tv_nsec;
}

/* The next job of `s`: a thread spins for SPIN_NS, since the next call of a
 * loop usually comes within microseconds, then sleeps until hand_over wakes
 * it. */
static Job *
await_job(Slot *s)
{
    Job *job;
    long long start = now_ns();
    for (unsigned int spins = 1; (job = atomic_load(&s->job)) == NULL; spins++) {
        cpu_relax();
        if (spins % 64 == 0 && now_ns() - start >= SPIN_NS) {
            break;
        }
    }
    if (job != NULL) {
        return job;
    }
    pthread_mutex_lock(&s->lock);
    atomic_store(&s->parked, 1);
    while ((job = atomic_load(&s->job)) == NULL) {
        pthread_cond_wait(&s->wake, &s->lock);
    }
    atomic_store(&s->parked, 0);
    pthread_mutex_unlock(&s->lock);
    return job;
}

static void *
slot_main(void *arg)
{
    Slot *s = arg;
    for (;;) {
        Job *job = await_job(s);
        run_blocks(&s->w);
        job_release(job);
        scratch_shrink(&s->w.sc);
        atomic_store(&s->job, NULL);
        atomic_fetch_sub(&busy_workers, 1);
        atomic_fetch_sub(&s->holders, 1);
    }
    return NULL;
}

/* Hand `job` to the claimed slot `s`.  The store of s->job and the load of
 * s->parked here, and the store of s->parked and the load of s->job in
 * await_job, are sequentially consistent, so either the thread sees the job
 * or this sees the thread parked and wakes it. */
static void
hand_over(Slot *s, Job *job)
{
    worker_join(&s->w, job, 0);
    atomic_fetch_add(&job->refs, 1);
    atomic_fetch_add(&busy_workers, 1);
    atomic_store(&s->job, job);
    if (atomic_load(&s->parked)) {
        pthread_mutex_lock(&s->lock);
        pthread_cond_signal(&s->wake);
        pthread_mutex_unlock(&s->lock);
    }
}

/* Let go of a slot once the call has read its counts. */
static void
slot_release(Slot *s)
{
    s->w.deferred = shrink(s->w.deferred, &s->w.deferred_cap, sizeof(Py_ssize_t));
    atomic_fetch_sub(&s->holders, 1);
}

/* A new slot, whose thread waits for its first job, or NULL.  The thread
 * starts with the asynchronous signals blocked, so that those go to threads
 * that run Python; a fault in it still reaches its handler.  With glibc, the
 * thread of slot `index` is bound to the index-th CPU of the mask other than
 * the calling thread's: a new thread starts on its creator's CPU, and on a
 * 2-vCPU VM the scheduler often left it there for the whole of a 50 ms
 * call. */
static Slot *
slot_start(int index)
{
    Slot *s = calloc(1, sizeof(Slot));
    if (s == NULL) {
        return NULL;
    }
    pthread_mutex_init(&s->lock, NULL);
    pthread_cond_init(&s->wake, NULL);
    pthread_attr_t attr;
    pthread_attr_init(&attr);
#ifdef __GLIBC__
    cpu_set_t mask;
    int here = sched_getcpu();
    if (here >= 0 && sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
            if (cpu != here && CPU_ISSET(cpu, &mask) && index-- == 0) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpu, &one);
                pthread_attr_setaffinity_np(&attr, sizeof(one), &one);
                break;
            }
        }
    }
#endif
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    sigset_t async, old;
    sigfillset(&async);
    sigdelset(&async, SIGSEGV);
    sigdelset(&async, SIGBUS);
    sigdelset(&async, SIGFPE);
    sigdelset(&async, SIGILL);
    pthread_sigmask(SIG_BLOCK, &async, &old);
    pthread_t thread;
    int failed = pthread_create(&thread, &attr, slot_main, s);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
    if (failed) {
        pthread_cond_destroy(&s->wake);
        pthread_mutex_destroy(&s->lock);
        free(s);
        return NULL;
    }
    return s;
}

/* Claim up to `want` idle slots into team[], starting threads while the pool
 * has fewer than `cap`.  Returns the count claimed: fewer where slots are
 * busy, as after an interrupted call or in a call made from fold_in or a
 * signal handler during another, or where a thread cannot start.  The blocks
 * are shared out as the threads come, so the call is the same with fewer. */
static int
claim_slots(Slot **team, long want, long cap)
{
    int got = 0;
    pthread_mutex_lock(&pool_lock);
    for (int i = 0; got < want && i < cap && i < MAX_THREADS - 1; i++) {
        if (i == pool_size) {
            if ((pool[i] = slot_start(i)) == NULL) {
                break;
            }
            pool_size++;
        }
        int idle = 0;
        if (atomic_compare_exchange_strong(&pool[i]->holders, &idle, 2)) {
            team[got++] = pool[i];
        }
    }
    pthread_mutex_unlock(&pool_lock);
    return got;
}

/* A forked child has only the thread that forked, so it starts a pool of its
 * own.  The old slots are not freed, as a call in progress on the forking
 * thread may still let go of them. */
static void
forget_pool(void)
{
    pool_size = 0;
    atomic_store(&busy_workers, 0);
    pthread_mutex_init(&pool_lock, NULL);
}

/* The CPUs that this process may run on. */
static long
usable_cpus(void)
{
#ifdef CPU_COUNT
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return CPU_COUNT(&set);
    }
#endif
    return sysconf(_SC_NPROCESSORS_ONLN);
}

/* The threads for a call of `cases` ladders on `cpus` CPUs: one per 16, so
 * that each has at least two blocks to take, up to the CPUs less the pool
 * threads still inside a job, and at least the calling thread. */
static int
thread_count(Py_ssize_t cases, long cpus)
{
    long n = cpus - atomic_load(&busy_workers);
    if (n > cases / (2 * LANES)) {
        n = cases / (2 * LANES);
    }
    return n < 1 ? 1 : n > MAX_THREADS ? MAX_THREADS : (int)n;
}

/* On the calling thread, once every block is taken or the call has stopped:
 * wait until no thread is inside a block, running the signal handlers
 * meanwhile.  The last ladders of a call usually end within microseconds, so
 * the wait spins for a while before it sleeps. */
static void
await_blocks(Job *job)
{
    struct timespec nap = {0, 1000000};
    for (unsigned int spins = 0; atomic_load(&job->busy) > 0; spins++) {
        if (!atomic_load(&job->stop)) {
            stopping(&job->caller.sc);
        }
        if (spins >= 1U << 16) {
            nanosleep(&nap, NULL);
        }
    }
}

/* Add the counts of `from` to `into`. */
static void
merge(Tally *into, const Tally *from)
{
    into->paths += from->paths;
    into->violations += from->violations;
    if (from->max_paths > into->max_paths) {
        into->max_paths = from->max_paths;
    }
    if (from->max_len > into->max_len) {
        into->max_len = from->max_len;
    }
    if (from->first_bad < into->first_bad) {
        into->first_bad = from->first_bad;
    }
}

/* Append to `seeds` the seeds of the ladders that `w` deferred.  Returns 0, or
 * -1 with an exception set. */
static int
add_deferred(PyObject *seeds, const Worker *w)
{
    for (size_t i = 0; i < w->n_deferred; i++) {
        PyObject *seed = PyLong_FromLongLong(w->job->first + w->deferred[i]);
        int failed = seed == NULL || PyList_Append(seeds, seed) < 0;
        Py_XDECREF(seed);
        if (failed) {
            return -1;
        }
    }
    return 0;
}

/* `result`, the result of the ladders that the threads of `job` counted, with
 * those of `seeds`, which they deferred, folded in by
 * dehnfill._ladder_py.fold_in, which scans them on the calling thread, counts
 * in Python ints and keeps the lowest violating seed.  Steals `result`;
 * returns the whole result, or NULL with an exception set. */
static PyObject *
fold_deferred(const Job *job, PyObject *result, PyObject *seeds)
{
    PyObject *func = python_kernel("fold_in"), *folded = NULL;
    if (func != NULL) {
        folded = PyObject_CallFunction(func, "OOiiOl", result, seeds, job->max_levels, job->max_rungs,
                                       job->alternating ? Py_True : Py_False, job->step_bound);
        Py_DECREF(func);
    }
    Py_DECREF(result);
    return folded;
}

static PyObject *
scan_ladder(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "scan_ladder takes 6 positional arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *seed = args[0];
    if (!PyLong_Check(seed)) {
        PyErr_Format(PyExc_TypeError, "seed must be an int, not %.100s", Py_TYPE(seed)->tp_name);
        return NULL;
    }
    Py_ssize_t cases = PyLong_AsSsize_t(args[1]);
    long max_levels, max_rungs, step_bound;
    int alternating;
    if ((cases == -1 && PyErr_Occurred()) || as_long(args[2], &max_levels) < 0 || as_long(args[3], &max_rungs) < 0
        || (alternating = PyObject_IsTrue(args[4])) < 0 || as_long(args[5], &step_bound) < 0) {
        return NULL;
    }
    if (cases < 0) {
        PyErr_Format(PyExc_ValueError, "cases must be a count >= 0, not %zd", cases);
        return NULL;
    }
    if (max_levels < 2 || max_levels > SIZE_CAP || max_rungs < 0 || max_rungs > SIZE_CAP) {
        PyErr_Format(PyExc_ValueError, "max_levels must lie in 2..%d and max_rungs_per_gap in 0..%d",
                     SIZE_CAP, SIZE_CAP);
        return NULL;
    }
    int overflow;
    long long first = PyLong_AsLongLongAndOverflow(seed, &overflow);
    if (overflow || (cases > 0 && first > LLONG_MAX - (cases - 1))) {
        /* dehnfill._ladder_py.scan_ladder takes the whole call. */
        PyObject *func = python_kernel("scan_ladder"), *whole = NULL;
        if (func != NULL) {
            whole = PyObject_Vectorcall(func, args, (size_t)nargs, NULL);
            Py_DECREF(func);
        }
        return whole;
    }
    Job *job = calloc(1, sizeof(Job));
    if (job == NULL) {
        return PyErr_NoMemory();
    }
    job->first = first;
    job->cases = cases;
    job->n_blocks = cases / LANES + (cases % LANES != 0);
    job->max_levels = (int)max_levels;
    job->max_rungs = (int)max_rungs;
    job->alternating = alternating;
    job->step_bound = step_bound;
    atomic_init(&job->refs, 1);
    worker_join(&job->caller, job, 1);
    Slot *team[MAX_THREADS - 1];
    int n_team = 0;
    if (cases >= 4 * LANES) {
        long cpus = usable_cpus();
        n_team = claim_slots(team, thread_count(cases, cpus) - 1, cpus - 1);
    }
    for (int k = 0; k < n_team; k++) {
        hand_over(team[k], job);
    }
    run_blocks(&job->caller);
    await_blocks(job);
    scratch_free(&job->caller.sc);
    PyObject *result = NULL, *seeds = NULL;
    Tally *all = &job->caller.tally;
    if (atomic_load(&job->stop)) {
        if (!PyErr_Occurred()) {
            PyErr_NoMemory();
        }
    }
    else {
        size_t n_deferred = job->caller.n_deferred;
        for (int k = 0; k < n_team; k++) {
            merge(all, &team[k]->w.tally);
            n_deferred += team[k]->w.n_deferred;
        }
        /* The C counts no truncated path. */
        PyObject *first_bad = all->first_bad < cases ? PyLong_FromLongLong(job->first + all->first_bad)
                                                     : Py_NewRef(Py_None);
        result = Py_BuildValue("(NLLiiL)", first_bad, all->paths, all->violations, 0, all->max_len, all->max_paths);
        if (result != NULL && n_deferred > 0) {
            int failed = (seeds = PyList_New(0)) == NULL || add_deferred(seeds, &job->caller) < 0;
            for (int k = 0; !failed && k < n_team; k++) {
                failed = add_deferred(seeds, &team[k]->w) < 0;
            }
            if (failed) {
                Py_CLEAR(result);
            }
        }
    }
    /* The slots are free again before fold_in runs Python, which may scan. */
    for (int k = 0; k < n_team; k++) {
        slot_release(team[k]);
    }
    free(job->caller.deferred);
    if (result != NULL && seeds != NULL) {
        result = fold_deferred(job, result, seeds);
    }
    Py_XDECREF(seeds);
    job_release(job);
    return result;
}

static PyMethodDef methods[] = {
    {"scan_ladder", (PyCFunction)(void (*)(void))scan_ladder, METH_FASTCALL,
     "scan_ladder(seed, cases, max_levels, max_rungs_per_gap, alternating, step_bound)\n\n"
     "Same contract as dehnfill._ladder_py.scan_ladder."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ladder_c", "Compiled ladder kernel; see dehnfill._ladder_py.", -1, methods,
};

PyMODINIT_FUNC
PyInit__ladder_c(void)
{
    mt_init_base();
    pthread_atfork(NULL, NULL, forget_pool);
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "c") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
