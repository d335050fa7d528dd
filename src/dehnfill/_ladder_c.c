/* Compiled ladder kernel.  It has the same two entry points as
 * dehnfill._ladder_py, with the same state encoding, traversal order and
 * outputs:
 *
 *   scan_track(offsets, sw_rung, sw_end, rung_level, cusp_lo, cusp_hi,
 *              lo_idx, hi_idx, forward_dir, step_bound, collect)
 *       scans a track given in the plain-int encoding of dehnfill._ladder_py;
 *
 *   scan_ladder(seed, cases, max_levels, max_rungs_per_gap, alternating,
 *               step_bound)
 *       draws the ladders that random.Random(seed), ..., Random(seed +
 *       cases - 1) give, word for word as dehnfill.ladders._draw does,
 *       encodes each as _encode_lists does, scans it, and sums the counts.
 *       Its own MT19937s, seeded from the ints as CPython seeds one, hand out
 *       the words, so it calls no random.Random.  The seeds come in blocks of
 *       eight, and the seedings of a block run in lock-step: init_by_array
 *       is one long chain of dependent steps, and independent chains keep
 *       the CPU busy.
 *
 * A scan_ladder call of `cases` ladders runs on min(CPUs, cases / 16)
 * threads, where CPUs counts the CPUs in the process's affinity mask, less
 * the worker threads still alive (at most MAX_THREADS): the calling thread
 * and detached POSIX threads that touch no Python object, each started on a
 * CPU of its own (see start_workers).  The threads take blocks in turn from a
 * shared counter, each with its own generators, buffers and counts; the
 * calling thread keeps the GIL, runs the signal handlers, and merges the
 * counts once every block is done.  Sums and maxima do not depend
 * on which thread scanned which ladder, and the witness is that of the
 * violating ladder of lowest index, so the result is the same on any number
 * of threads.  A call whose seeds do not all fit in a long long makes their
 * keys from Python ints, on the calling thread alone.
 *
 * Arguments are positional.  Both scans check for signals every 2**16 search
 * steps, and scan_ladder between ladders, so Ctrl-C stops a long call; the
 * other threads stop at their next check.  Only the public CPython API is
 * used, and there is no floating point.
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

typedef struct {
    int state, iter, n, s0, s1, truncated;
} Frame;

/* The two-line property with the one-way entry/exit discipline: 1 when the
 * path of the n states in `path` breaks it. */
static int
violates(const Track *t, const Frame *path, int n, int forward_dir)
{
    int first_dir = 0;
    for (int j = 0; j < n; j++) {
        int state = path[j].state;
        if (state < t->n_line_states) {
            int d = (state & 1) ? 1 : -1;
            if (first_dir == 0) {
                first_dir = d;
            }
            else if (d != first_dir) {
                return 1; /* direction-incoherent */
            }
        }
    }
    if (first_dir == 0) {
        return 0;
    }
    int backward = first_dir == -forward_dir;
    int seen[2] = {-1, -1}; /* the even and the odd level met */
    int last_tag = -1, runs = 0, bad = 0;
    for (int j = 0; j < n; j++) {
        int state = path[backward ? n - 1 - j : j].state;
        if (state >= t->n_line_states) {
            continue;
        }
        int level = t->seg_level[state >> 1];
        int tag = level % 2;
        if (seen[tag] == -1) {
            seen[tag] = level;
        }
        else if (seen[tag] != level) {
            return 1;
        }
        if (tag != last_tag) {
            runs++;
            /* Allowed run patterns: [0], [1] and [1, 0]. */
            if (runs > 2 || (runs == 2 && !(last_tag == 1 && tag == 0))) {
                bad = 1;
            }
            last_tag = tag;
        }
    }
    return bad;
}

static PyObject *
path_tuple(const Frame *path, int n)
{
    PyObject *out = PyTuple_New(n);
    if (out == NULL) {
        return NULL;
    }
    for (int j = 0; j < n; j++) {
        PyObject *s = PyLong_FromLong(path[j].state);
        if (s == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, j, s);
    }
    return out;
}

/* Buffers that one thread reuses for every track it scans, each grown when a
 * track needs more, and the flag that stops the threads of a call. */
typedef struct {
    int *ints; /* the arrays of a drawn track */
    size_t n_ints;
    Frame *frames; /* the search stack */
    size_t n_frames;
    unsigned char *on_path; /* all zero between scans */
    size_t n_marks;
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
    free(sc->on_path);
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

/* The counts of one or more scans: summed, the longest path, the most paths
 * of one ladder, and the first violating path with the index of its ladder
 * in the call. */
typedef struct {
    long long paths, violations, truncated, max_paths;
    int max_len, witness_len;
    Frame *witness; /* a copy of the search stack, or NULL */
    Py_ssize_t first_violation;
} Tally;

/* Enumerate every maximal carried path of `t`, check the two-line property
 * and add the counts to `tally`.  `paths` is a list to append (path,
 * truncated) pairs to, or NULL; only the calling thread passes one.  Returns
 * 0, or -1 when out of memory (a Python exception may be set), stopped or
 * interrupted (with the exception set on the calling thread). */
static int
scan(const Track *t, int forward_dir, long step_bound, Scratch *sc, Tally *tally, PyObject *paths)
{
    /* A path stops at step_bound states, and at the first repeated state. */
    long depth_cap = step_bound < 1 ? 1 : step_bound;
    if (depth_cap > (long)t->n_states + 1) {
        depth_cap = t->n_states + 1;
    }
    Frame *st = reserve(sc->frames, &sc->n_frames, (size_t)depth_cap + 1, sizeof(Frame));
    if (st == NULL) {
        return -1;
    }
    sc->frames = st;
    unsigned char *on_path = reserve(sc->on_path, &sc->n_marks, (size_t)t->n_states + 1, 1);
    if (on_path == NULL) {
        return -1;
    }
    sc->on_path = on_path;
    unsigned int steps = 0;
    /* Iterative DFS from each line end, in level order; the straight-through
     * continuation is explored before the rung exit. */
    for (int level = 0; level < t->n_levels; level++) {
        int n_here = t->offsets[level + 1] - t->offsets[level];
        for (int side = 0; side < 2; side++) {
            int depth = 0;
            st[0].state = side == 0 ? line_state(t, level, 0, 1) : line_state(t, level, n_here, 0);
            st[0].iter = -1;
            while (depth >= 0) {
                if (++steps % 65536 == 0 && stopping(sc)) {
                    return -1;
                }
                Frame *f = &st[depth];
                if (f->iter == -1) {
                    f->iter = 0;
                    f->truncated = depth + 1 >= step_bound || on_path[f->state];
                    f->n = f->truncated ? 0 : successors(t, f->state, &f->s0, &f->s1);
                    on_path[f->state]++;
                    if (f->n == 0) {
                        /* Maximal (or truncated) path; emit it once per
                         * undirected path, from its smaller direction. */
                        int emit = 1;
                        for (int j = 0; j <= depth; j++) {
                            int a = st[j].state, b = st[depth - j].state ^ 1;
                            if (a != b) {
                                emit = a < b;
                                break;
                            }
                        }
                        if (emit) {
                            tally->paths++;
                            tally->truncated += f->truncated;
                            if (depth + 1 > tally->max_len) {
                                tally->max_len = depth + 1;
                            }
                            if (violates(t, st, depth + 1, forward_dir)) {
                                tally->violations++;
                                if (tally->witness == NULL) {
                                    if ((tally->witness = malloc((size_t)(depth + 1) * sizeof(Frame))) == NULL) {
                                        return -1;
                                    }
                                    memcpy(tally->witness, st, (size_t)(depth + 1) * sizeof(Frame));
                                    tally->witness_len = depth + 1;
                                }
                            }
                            if (paths != NULL) {
                                PyObject *states = path_tuple(st, depth + 1);
                                if (states == NULL) {
                                    return -1;
                                }
                                PyObject *pair = PyTuple_Pack(2, states, f->truncated ? Py_True : Py_False);
                                Py_DECREF(states);
                                if (pair == NULL || PyList_Append(paths, pair) < 0) {
                                    Py_XDECREF(pair);
                                    return -1;
                                }
                                Py_DECREF(pair);
                            }
                        }
                    }
                }
                if (f->iter < f->n) {
                    int next = f->iter == 0 ? f->s0 : f->s1;
                    f->iter++;
                    depth++;
                    st[depth].state = next;
                    st[depth].iter = -1;
                }
                else {
                    on_path[f->state]--;
                    depth--;
                }
            }
        }
    }
    return 0;
}

/* The witness of `tally` as a tuple of states, or None. */
static PyObject *
witness_tuple(const Tally *tally)
{
    return tally->witness != NULL ? path_tuple(tally->witness, tally->witness_len) : Py_NewRef(Py_None);
}

/* ------------------------------------------------------------------------
 * scan_track: a track given in the plain-int encoding
 * ------------------------------------------------------------------------ */

static int
as_long(PyObject *obj, long *out)
{
    *out = PyLong_AsLong(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
as_int(PyObject *obj, int *out)
{
    long v;
    if (as_long(obj, &v) < 0) {
        return -1;
    }
    if (v < INT_MIN || v > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "track encoding value does not fit in a C int");
        return -1;
    }
    *out = (int)v;
    return 0;
}

/* Copy the n ints of sequence `seq` into `out`. */
static int
read_ints(PyObject *seq, int *out, Py_ssize_t n)
{
    PyObject *fast = PySequence_Fast(seq, "track encoding entries must be sequences of ints");
    if (fast == NULL) {
        return -1;
    }
    int ok = PySequence_Fast_GET_SIZE(fast) == n;
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "track encoding lists have inconsistent lengths");
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        ok = as_int(items[i], &out[i]) == 0;
    }
    Py_DECREF(fast);
    return ok ? 0 : -1;
}

/* Every index of the encoding in range, so the scan reads no memory outside
 * the arrays. */
static int
track_consistent(const Track *t)
{
    if (t->offsets[0] != 0 || t->offsets[t->n_levels] != t->n_sw) {
        return 0;
    }
    for (int k = 0; k < t->n_levels; k++) {
        if (t->offsets[k + 1] < t->offsets[k]) {
            return 0;
        }
    }
    for (int s = 0; s < t->n_sw; s++) {
        if (t->sw_rung[s] < 0 || t->sw_rung[s] >= t->n_rungs) {
            return 0;
        }
    }
    for (int r = 0; r < t->n_rungs; r++) {
        int g = t->rung_level[r];
        if (g < 0 || g > t->n_levels - 2 || t->lo_idx[r] < 0 || t->hi_idx[r] < 0
            || t->lo_idx[r] >= t->offsets[g + 1] - t->offsets[g]
            || t->hi_idx[r] >= t->offsets[g + 2] - t->offsets[g + 1]) {
            return 0;
        }
    }
    return 1;
}

static PyObject *
scan_track(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError, "scan_track takes 11 positional arguments (%zd given)", nargs);
        return NULL;
    }
    int forward_dir, collect;
    long step_bound;
    if (as_int(args[8], &forward_dir) < 0 || as_long(args[9], &step_bound) < 0
        || (collect = PyObject_IsTrue(args[10])) < 0) {
        return NULL;
    }
    Py_ssize_t n_offsets = PySequence_Length(args[0]);
    Py_ssize_t n_sw = PySequence_Length(args[1]), n_rungs = PySequence_Length(args[3]);
    if (n_offsets < 0 || n_sw < 0 || n_rungs < 0) {
        return NULL;
    }
    /* Every state number below 2**31. */
    if (n_offsets < 1 || n_offsets + n_sw + n_rungs > INT_MAX / 8) {
        PyErr_SetString(PyExc_ValueError, "track encoding empty or too large");
        return NULL;
    }
    atomic_int stop = 0;
    Scratch sc = {.stop = &stop, .caller = 1};
    Tally tally = {0};
    Track t;
    if ((sc.ints = reserve(NULL, &sc.n_ints, track_size((int)n_offsets - 1, (int)n_sw, (int)n_rungs),
                           sizeof(int))) == NULL) {
        return PyErr_NoMemory();
    }
    track_layout(&t, sc.ints, (int)n_offsets - 1, (int)n_sw, (int)n_rungs);
    int *dest[8] = {t.offsets, t.sw_rung, t.sw_end, t.rung_level, t.cusp_lo, t.cusp_hi, t.lo_idx, t.hi_idx};
    Py_ssize_t size[8] = {n_offsets, n_sw, n_sw, n_rungs, n_rungs, n_rungs, n_rungs, n_rungs};
    PyObject *paths = NULL, *witness = NULL, *result = NULL;
    for (int i = 0; i < 8; i++) {
        if (read_ints(args[i], dest[i], size[i]) < 0) {
            goto done;
        }
    }
    if (!track_consistent(&t)) {
        PyErr_SetString(PyExc_ValueError, "track encoding indices out of range");
        goto done;
    }
    track_index_segments(&t);
    if (collect && (paths = PyList_New(0)) == NULL) {
        goto done;
    }
    if (scan(&t, forward_dir, step_bound, &sc, &tally, paths) < 0) {
        if (!PyErr_Occurred()) {
            PyErr_NoMemory();
        }
        goto done;
    }
    if ((witness = witness_tuple(&tally)) != NULL) {
        result = Py_BuildValue("(OLLLiO)", paths != NULL ? paths : Py_None, tally.paths, tally.violations,
                               tally.truncated, tally.max_len, witness);
    }
done:
    Py_XDECREF(paths);
    Py_XDECREF(witness);
    free(tally.witness);
    scratch_free(&sc);
    return result;
}

/* ------------------------------------------------------------------------
 * scan_ladder: the ladders that random.Random(seed), Random(seed + 1), ... draw
 * ------------------------------------------------------------------------ */

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

/* init_by_array on the keys of `lanes` generators, each key_len words long,
 * in lock-step.  Each step waits on the one before in its own chain, about
 * 1,250 steps per seeding; the chains overlap.  `lanes` is a constant at each
 * call (see mt_seed), so the compiler keeps the chains' last words in
 * registers. */
static inline ALWAYS_INLINE void
mt_seed_lanes(MT *const *g, const uint32_t *const *key, size_t key_len, int lanes)
{
    uint32_t prev[LANES];
    for (int l = 0; l < lanes; l++) {
        memcpy(g[l]->mt, mt_base, sizeof(mt_base));
        prev[l] = mt_base[0];
    }
    size_t i = 1, j = 0;
    for (size_t k = MT_N > key_len ? MT_N : key_len; k; k--) {
        for (int l = 0; l < lanes; l++) {
            uint32_t p = prev[l];
            prev[l] = g[l]->mt[i] = (g[l]->mt[i] ^ ((p ^ (p >> 30)) * 1664525U)) + key[l][j] + (uint32_t)j;
        }
        i++;
        j++;
        if (i >= MT_N) {
            for (int l = 0; l < lanes; l++) {
                g[l]->mt[0] = prev[l];
            }
            i = 1;
        }
        if (j >= key_len) {
            j = 0;
        }
    }
    for (size_t k = MT_N - 1; k; k--) {
        for (int l = 0; l < lanes; l++) {
            uint32_t p = prev[l];
            prev[l] = g[l]->mt[i] = (g[l]->mt[i] ^ ((p ^ (p >> 30)) * 1566083941U)) - (uint32_t)i;
        }
        i++;
        if (i >= MT_N) {
            for (int l = 0; l < lanes; l++) {
                g[l]->mt[0] = prev[l];
            }
            i = 1;
        }
    }
    for (int l = 0; l < lanes; l++) {
        g[l]->mt[0] = 0x80000000U;
        g[l]->pos = 0;
    }
}

/* Seed the `lanes` generators g[0..lanes-1] (1 <= lanes <= LANES) from their
 * keys, all key_len words long, seeding only those. */
static void
mt_seed(MT *const *g, const uint32_t *const *key, size_t key_len, int lanes)
{
    switch (lanes) {
    case 1: mt_seed_lanes(g, key, key_len, 1); break;
    case 2: mt_seed_lanes(g, key, key_len, 2); break;
    case 3: mt_seed_lanes(g, key, key_len, 3); break;
    case 4: mt_seed_lanes(g, key, key_len, 4); break;
    case 5: mt_seed_lanes(g, key, key_len, 5); break;
    case 6: mt_seed_lanes(g, key, key_len, 6); break;
    case 7: mt_seed_lanes(g, key, key_len, 7); break;
    default: mt_seed_lanes(g, key, key_len, LANES);
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

/* The init_by_array key of the seed `v`: the 32-bit little-endian words of
 * abs(v), [0] for 0, written to `words`, and their count in `*len`. */
static const uint32_t *
small_key(long long v, uint32_t words[2], size_t *len)
{
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
    words[0] = (uint32_t)u;
    words[1] = (uint32_t)(u >> 32);
    *len = words[1] ? 2 : 1;
    return words;
}

/* The init_by_array key of the int `seed`, as small_key gives it.  A key of
 * more than two words goes to a new block in `*big`, which the caller frees.
 * Returns the key, or NULL with an exception set. */
static const uint32_t *
seed_key(PyObject *seed, uint32_t words[2], uint32_t **big, size_t *len)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(seed, &overflow);
    if (v == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (!overflow) {
        return small_key(v, words, len);
    }
    /* abs(seed).to_bytes(4 * words, "little"). */
    PyObject *n = PyNumber_Absolute(seed), *bits = NULL, *bytes = NULL;
    const uint32_t *key = NULL;
    if (n == NULL || (bits = PyObject_CallMethod(n, "bit_length", NULL)) == NULL) {
        goto done;
    }
    Py_ssize_t n_bits = PyLong_AsSsize_t(bits);
    if (n_bits == -1 && PyErr_Occurred()) {
        goto done;
    }
    Py_ssize_t n_words = (n_bits + 31) / 32;
    bytes = PyObject_CallMethod(n, "to_bytes", "ns", 4 * n_words, "little");
    if (bytes == NULL) {
        goto done;
    }
    if ((*big = malloc((size_t)n_words * sizeof(uint32_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const unsigned char *b = (const unsigned char *)PyBytes_AS_STRING(bytes);
    for (Py_ssize_t i = 0; i < n_words; i++, b += 4) {
        (*big)[i] = (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
    }
    *len = (size_t)n_words;
    key = *big;
done:
    Py_XDECREF(n);
    Py_XDECREF(bits);
    Py_XDECREF(bytes);
    return key;
}

typedef struct Job Job;

/* What each thread of a call owns. */
typedef struct {
    Job *job;
    MT g[LANES];
    Scratch sc;
    Tally tally;
} Worker;

/* One scan_ladder call, shared by its threads.  It is freed by the last
 * thread to let it go, so the calling thread need not wait for a worker
 * thread that has not started by the time every block is taken. */
struct Job {
    long long first; /* the first seed, when every seed of the call fits */
    PyObject *start; /* else NULL; otherwise the first seed as an int */
    Py_ssize_t cases, n_blocks;
    int max_levels, max_rungs, alternating;
    long step_bound;
    atomic_llong next_block; /* the next block of LANES seeds to take */
    atomic_int stop;         /* set when a thread fails */
    atomic_int busy;         /* threads that may be inside a block */
    atomic_int refs;         /* threads that still use the job */
    int n_threads;
    Worker w[]; /* w[0] is the calling thread's */
};

/* Seed g[0..n-1] for the seeds of the call at indices base, ..., base + n - 1.
 * Lanes whose keys have the same length are seeded together.  Returns 0, or
 * -1 with an exception set; only a call whose seeds leave long long, which
 * runs on the calling thread alone, can fail. */
static int
seed_block(MT *g, const Job *job, Py_ssize_t base, int n)
{
    uint32_t words[LANES][2], *big[LANES] = {NULL};
    const uint32_t *key[LANES];
    size_t len[LANES];
    int status = -1;
    for (int l = 0; l < n; l++) {
        if (job->start == NULL) {
            key[l] = small_key(job->first + base + l, words[l], &len[l]);
            continue;
        }
        PyObject *offset = PyLong_FromSsize_t(base + l), *seed = NULL;
        if (offset != NULL) {
            seed = PyNumber_Add(job->start, offset);
            Py_DECREF(offset);
        }
        key[l] = seed != NULL ? seed_key(seed, words[l], &big[l], &len[l]) : NULL;
        Py_XDECREF(seed);
        if (key[l] == NULL) {
            goto done;
        }
    }
    unsigned int seeded = 0; /* a bit per lane */
    for (int l = 0; l < n; l++) {
        if (seeded >> l & 1) {
            continue;
        }
        MT *group[LANES];
        const uint32_t *group_key[LANES];
        int m = 0;
        for (int o = l; o < n; o++) {
            if (!(seeded >> o & 1) && len[o] == len[l]) {
                group[m] = &g[o];
                group_key[m++] = key[o];
                seeded |= 1U << o;
            }
        }
        mt_seed(group, group_key, len[l], m);
    }
    status = 0;
done:
    for (int l = 0; l < n; l++) {
        free(big[l]);
    }
    return status;
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

/* Seed, draw and scan the ladders of block `block` into the worker's tally.
 * Returns 0, or -1 when out of memory, stopped or interrupted. */
static int
scan_block(Worker *w, long long block)
{
    Job *job = w->job;
    Py_ssize_t base = (Py_ssize_t)block * LANES;
    int n = job->cases - base < LANES ? (int)(job->cases - base) : LANES;
    if (seed_block(w->g, job, base, n) < 0) {
        return -1;
    }
    for (int l = 0; l < n; l++) {
        Track t;
        long long paths = w->tally.paths;
        if (stopping(&w->sc)
            || draw_track(&w->g[l], job->max_levels, job->max_rungs, job->alternating, &t, &w->sc) < 0
            /* Orientation +1 on level 0 in both kinds of seeded ladder, so
             * the forward direction is +1 whether or not it is of leaf-trace
             * type. */
            || scan(&t, 1, job->step_bound, &w->sc, &w->tally, NULL) < 0) {
            return -1;
        }
        if (w->tally.paths - paths > w->tally.max_paths) {
            w->tally.max_paths = w->tally.paths - paths;
        }
        /* A thread takes its blocks in order, so its first violation is its
         * lowest-index one. */
        if (w->tally.witness != NULL && w->tally.first_violation < 0) {
            w->tally.first_violation = base + l;
        }
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
    if (atomic_fetch_sub(&job->refs, 1) > 1) {
        return;
    }
    for (int k = 0; k < job->n_threads; k++) {
        free(job->w[k].tally.witness);
        scratch_free(&job->w[k].sc);
    }
    free(job);
}

/* Worker threads alive in the process.  A call starts no more of them than
 * the CPUs allow beside those still alive, so threads that the host has not
 * yet run do not pile up over calls. */
static atomic_int live_workers;

static void *
worker_main(void *arg)
{
    Worker *w = arg;
    run_blocks(w);
    job_release(w->job);
    atomic_fetch_sub(&live_workers, 1);
    return NULL;
}

/* A forked child has only the thread that forked. */
static void
forget_workers(void)
{
    atomic_store(&live_workers, 0);
}

/* The most threads of one call. */
#define MAX_THREADS 64

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

/* The threads for a call of `cases` ladders: one per 16, so that each has at
 * least two blocks to take, up to the usable CPUs less the worker threads
 * still alive, and at least the calling thread. */
static int
thread_count(Py_ssize_t cases)
{
    if (cases < 4 * LANES) {
        return 1;
    }
    long n = usable_cpus() - atomic_load(&live_workers);
    if (n > cases / (2 * LANES)) {
        n = cases / (2 * LANES);
    }
    return n < 1 ? 1 : n > MAX_THREADS ? MAX_THREADS : (int)n;
}

/* Start detached worker threads for w[1], ..., w[n - 1], with the
 * asynchronous signals blocked, so that those go to threads that run Python;
 * a fault in a worker still reaches its handler.  Stops at the first thread
 * that the system refuses; the blocks are shared out as the threads come, so
 * the call is the same with fewer.  With glibc, each worker is bound to its
 * own CPU of the mask other than the calling thread's: a new thread starts on
 * its creator's CPU, and on a 2-vCPU VM the scheduler often left it there for
 * the whole of a 50 ms call. */
static void
start_workers(Job *job, int n)
{
    sigset_t async, old;
    sigfillset(&async);
    sigdelset(&async, SIGSEGV);
    sigdelset(&async, SIGBUS);
    sigdelset(&async, SIGFPE);
    sigdelset(&async, SIGILL);
    pthread_sigmask(SIG_BLOCK, &async, &old);
#ifdef __GLIBC__
    cpu_set_t mask, one;
    int cpu = -1, here = sched_getcpu();
    int place = here >= 0 && sched_getaffinity(0, sizeof(mask), &mask) == 0;
#endif
    for (int k = 1; k < n; k++) {
        pthread_t thread;
        pthread_attr_t attr;
        pthread_attr_init(&attr);
#ifdef __GLIBC__
        if (place) {
            do {
                cpu++;
            } while (cpu < CPU_SETSIZE && (cpu == here || !CPU_ISSET(cpu, &mask)));
            if (cpu < CPU_SETSIZE) {
                CPU_ZERO(&one);
                CPU_SET(cpu, &one);
                pthread_attr_setaffinity_np(&attr, sizeof(one), &one);
            }
        }
#endif
        atomic_fetch_add(&job->refs, 1);
        atomic_fetch_add(&live_workers, 1);
        int failed = pthread_create(&thread, &attr, worker_main, &job->w[k]);
        pthread_attr_destroy(&attr);
        if (failed) {
            atomic_fetch_sub(&job->refs, 1);
            atomic_fetch_sub(&live_workers, 1);
            break;
        }
        pthread_detach(thread);
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
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
            stopping(&job->w[0].sc);
        }
        if (spins >= 1U << 16) {
            nanosleep(&nap, NULL);
        }
    }
}

/* Add the counts of `from` to `into`; the witness kept is the one of lower
 * ladder index. */
static void
merge(Tally *into, Tally *from)
{
    into->paths += from->paths;
    into->violations += from->violations;
    into->truncated += from->truncated;
    if (from->max_paths > into->max_paths) {
        into->max_paths = from->max_paths;
    }
    if (from->max_len > into->max_len) {
        into->max_len = from->max_len;
    }
    if (from->witness != NULL && (into->witness == NULL || from->first_violation < into->first_violation)) {
        Frame *kept = into->witness;
        into->witness = from->witness;
        into->witness_len = from->witness_len;
        into->first_violation = from->first_violation;
        from->witness = kept; /* freed with `from` */
    }
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
    /* The seeds are plain ints even when `seed` is a bool or an int
     * subclass, as the ints of range(seed, ...) are. */
    PyObject *start = PyNumber_Index(seed);
    if (start == NULL) {
        return NULL;
    }
    int overflow;
    long long first = PyLong_AsLongLongAndOverflow(start, &overflow);
    int big = overflow || (cases > 0 && first > LLONG_MAX - (cases - 1));
    int n_threads = big ? 1 : thread_count(cases);
    Job *job = calloc(1, sizeof(Job) + (size_t)n_threads * sizeof(Worker));
    if (job == NULL) {
        Py_DECREF(start);
        return PyErr_NoMemory();
    }
    job->first = first;
    job->start = big ? start : NULL;
    job->cases = cases;
    job->n_blocks = cases / LANES + (cases % LANES != 0);
    job->max_levels = (int)max_levels;
    job->max_rungs = (int)max_rungs;
    job->alternating = alternating;
    job->step_bound = step_bound;
    atomic_init(&job->refs, 1);
    job->n_threads = n_threads;
    for (int k = 0; k < n_threads; k++) {
        job->w[k].job = job;
        job->w[k].sc.stop = &job->stop;
        job->w[k].sc.caller = k == 0;
        job->w[k].tally.first_violation = -1;
    }
    start_workers(job, n_threads);
    run_blocks(job->w);
    await_blocks(job);
    PyObject *witness = NULL, *first_seed = NULL, *result = NULL;
    Tally *all = &job->w[0].tally;
    if (atomic_load(&job->stop)) {
        if (!PyErr_Occurred()) {
            PyErr_NoMemory();
        }
        goto done;
    }
    for (int k = 1; k < n_threads; k++) {
        merge(all, &job->w[k].tally);
    }
    if (all->witness == NULL) {
        first_seed = Py_NewRef(Py_None);
    }
    else if (!big) {
        first_seed = PyLong_FromLongLong(first + all->first_violation);
    }
    else {
        PyObject *offset = PyLong_FromSsize_t(all->first_violation);
        if (offset != NULL) {
            first_seed = PyNumber_Add(start, offset);
            Py_DECREF(offset);
        }
    }
    if (first_seed != NULL && (witness = witness_tuple(all)) != NULL) {
        result = Py_BuildValue("(OLLLiOLO)", Py_None, all->paths, all->violations, all->truncated, all->max_len,
                               witness, all->max_paths, first_seed);
    }
done:
    Py_XDECREF(witness);
    Py_XDECREF(first_seed);
    job_release(job);
    Py_DECREF(start);
    return result;
}

static PyMethodDef methods[] = {
    {"scan_track", (PyCFunction)(void (*)(void))scan_track, METH_FASTCALL,
     "scan_track(offsets, sw_rung, sw_end, rung_level, cusp_lo, cusp_hi, lo_idx, hi_idx,\n"
     "           forward_dir, step_bound, collect)\n\n"
     "Same contract as dehnfill._ladder_py.scan_track."},
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
    pthread_atfork(NULL, NULL, forget_workers);
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "c") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
