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
 *       the words, so it calls no random.Random.  The seedings run eight at
 *       a time in lock-step: init_by_array is one long chain of dependent
 *       steps, and eight independent chains keep the CPU busy.  The buffers
 *       of the draw and the scan are allocated once per call.
 *
 * Arguments are positional.  Both scans check for signals every 2**16 search
 * steps, and scan_ladder between ladders, so Ctrl-C stops a long call.  Only
 * the public CPython API is used, and there is no floating point.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

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

/* Buffers that one call reuses for every track it scans, each grown when a
 * track needs more. */
typedef struct {
    int *ints; /* the arrays of a drawn track */
    size_t n_ints;
    Frame *frames; /* the search stack */
    size_t n_frames;
    unsigned char *on_path; /* all zero between scans */
    size_t n_marks;
} Scratch;

/* `buf` when it holds `need` items of `size` bytes, else a new zeroed block
 * in its place, with the old one freed and `*cap` updated.  NULL with
 * MemoryError set, and `buf` kept, when there is no memory. */
static void *
reserve(void *buf, size_t *cap, size_t need, size_t size)
{
    if (need <= *cap) {
        return buf;
    }
    void *grown = PyMem_RawCalloc(need, size);
    if (grown == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    PyMem_RawFree(buf);
    *cap = need;
    return grown;
}

static void
scratch_free(Scratch *sc)
{
    PyMem_RawFree(sc->ints);
    PyMem_RawFree(sc->frames);
    PyMem_RawFree(sc->on_path);
}

/* The counts of one or more scans: summed, the longest path, and the first
 * violating path as a tuple. */
typedef struct {
    long long paths, violations, truncated;
    int max_len;
    PyObject *witness;
} Tally;

/* Enumerate every maximal carried path of `t`, check the two-line property
 * and add the counts to `tally`.  `paths` is a list to append (path,
 * truncated) pairs to, or NULL.  Returns 0, or -1 with an exception set. */
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
                if (++steps % 65536 == 0 && PyErr_CheckSignals() < 0) {
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
                                if (tally->witness == NULL
                                    && (tally->witness = path_tuple(st, depth + 1)) == NULL) {
                                    return -1;
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
    Scratch sc = {0};
    Tally tally = {0};
    Track t;
    if ((sc.ints = reserve(NULL, &sc.n_ints, track_size((int)n_offsets - 1, (int)n_sw, (int)n_rungs),
                           sizeof(int))) == NULL) {
        return NULL;
    }
    track_layout(&t, sc.ints, (int)n_offsets - 1, (int)n_sw, (int)n_rungs);
    int *dest[8] = {t.offsets, t.sw_rung, t.sw_end, t.rung_level, t.cusp_lo, t.cusp_hi, t.lo_idx, t.hi_idx};
    Py_ssize_t size[8] = {n_offsets, n_sw, n_sw, n_rungs, n_rungs, n_rungs, n_rungs, n_rungs};
    PyObject *paths = NULL, *result = NULL;
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
    if (scan(&t, forward_dir, step_bound, &sc, &tally, paths) == 0) {
        result = Py_BuildValue("(OLLLiO)", paths != NULL ? paths : Py_None, tally.paths, tally.violations,
                               tally.truncated, tally.max_len, tally.witness != NULL ? tally.witness : Py_None);
    }
done:
    Py_XDECREF(paths);
    Py_XDECREF(tally.witness);
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

/* The seeding of random.Random(int) runs eight at a time.  The count is
 * fixed, so the compiler keeps the eight chains' last words in registers;
 * unused lanes seed spare generators. */
#define LANES 8

/* init_by_array on the keys of LANES generators, each key_len words long,
 * in lock-step.  Each step waits on the one before in its own chain, about
 * 1,250 steps per seeding; the eight chains overlap. */
static void
mt_seed_lanes(MT *const g[LANES], const uint32_t *const key[LANES], size_t key_len)
{
    uint32_t prev[LANES];
    for (int l = 0; l < LANES; l++) {
        memcpy(g[l]->mt, mt_base, sizeof(mt_base));
        prev[l] = mt_base[0];
    }
    size_t i = 1, j = 0;
    for (size_t k = MT_N > key_len ? MT_N : key_len; k; k--) {
        for (int l = 0; l < LANES; l++) {
            uint32_t p = prev[l];
            prev[l] = g[l]->mt[i] = (g[l]->mt[i] ^ ((p ^ (p >> 30)) * 1664525U)) + key[l][j] + (uint32_t)j;
        }
        i++;
        j++;
        if (i >= MT_N) {
            for (int l = 0; l < LANES; l++) {
                g[l]->mt[0] = prev[l];
            }
            i = 1;
        }
        if (j >= key_len) {
            j = 0;
        }
    }
    for (size_t k = MT_N - 1; k; k--) {
        for (int l = 0; l < LANES; l++) {
            uint32_t p = prev[l];
            prev[l] = g[l]->mt[i] = (g[l]->mt[i] ^ ((p ^ (p >> 30)) * 1566083941U)) - (uint32_t)i;
        }
        i++;
        if (i >= MT_N) {
            for (int l = 0; l < LANES; l++) {
                g[l]->mt[0] = prev[l];
            }
            i = 1;
        }
    }
    for (int l = 0; l < LANES; l++) {
        g[l]->mt[0] = 0x80000000U;
        g[l]->pos = 0;
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

/* The init_by_array key of the int `seed`: the 32-bit little-endian words
 * of abs(seed), [0] for 0, and their count in `*len`.  A key of one or two
 * words is written to `words`; a longer one goes to a new block in `*big`,
 * which the caller frees.  Returns the key, or NULL with an exception set. */
static const uint32_t *
seed_key(PyObject *seed, uint32_t words[2], uint32_t **big, size_t *len)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(seed, &overflow);
    if (v == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (!overflow) {
        unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
        words[0] = (uint32_t)u;
        words[1] = (uint32_t)(u >> 32);
        *len = words[1] ? 2 : 1;
        return words;
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
    if ((*big = PyMem_RawMalloc((size_t)n_words * sizeof(uint32_t))) == NULL) {
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

/* Seed g[0..n-1] for the ints seed + base, ..., seed + base + n - 1, stored
 * in seeds[] as new references.  Lanes whose keys have the same length are
 * seeded together, with spare generators from `spare` in the other lanes.
 * Returns 0, or -1 with an exception set. */
static int
seed_block(MT *g, MT *spare, PyObject *seed, Py_ssize_t base, int n, PyObject **seeds)
{
    uint32_t words[LANES][2], *big[LANES] = {NULL};
    const uint32_t *key[LANES];
    size_t len[LANES];
    int status = -1;
    for (int l = 0; l < n; l++) {
        PyObject *offset = PyLong_FromSsize_t(base + l);
        if (offset == NULL) {
            goto done;
        }
        seeds[l] = PyNumber_Add(seed, offset);
        Py_DECREF(offset);
        if (seeds[l] == NULL || (key[l] = seed_key(seeds[l], words[l], &big[l], &len[l])) == NULL) {
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
        for (; m < LANES; m++) {
            group[m] = &spare[m];
            group_key[m] = key[l];
        }
        mt_seed_lanes(group, group_key, len[l]);
    }
    status = 0;
done:
    for (int l = 0; l < n; l++) {
        PyMem_RawFree(big[l]);
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
 * sc->ints.  Returns 0, or -1 with MemoryError set.  The draws are those of
 * dehnfill.ladders._draw, in its order. */
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
    /* The generators of one block of lanes, then the spares. */
    MT *g = PyMem_RawMalloc(2 * LANES * sizeof(MT));
    if (g == NULL) {
        Py_DECREF(start);
        return PyErr_NoMemory();
    }
    Scratch sc = {0};
    Tally tally = {0};
    long long max_paths = 0;
    PyObject *seeds[LANES] = {NULL}, *first_seed = NULL, *result = NULL;
    for (Py_ssize_t base = 0; base < cases; base += LANES) {
        int n = cases - base < LANES ? (int)(cases - base) : LANES;
        if (seed_block(g, g + LANES, start, base, n, seeds) < 0) {
            goto done;
        }
        for (int l = 0; l < n; l++) {
            Track t;
            long long paths = tally.paths, violations = tally.violations;
            if (PyErr_CheckSignals() < 0 || draw_track(&g[l], (int)max_levels, (int)max_rungs, alternating, &t, &sc) < 0) {
                goto done;
            }
            /* Orientation +1 on level 0 in both kinds of seeded ladder, so
             * the forward direction is +1 whether or not it is of leaf-trace
             * type. */
            if (scan(&t, 1, step_bound, &sc, &tally, NULL) < 0) {
                goto done;
            }
            if (tally.paths - paths > max_paths) {
                max_paths = tally.paths - paths;
            }
            if (first_seed == NULL && tally.violations > violations) {
                first_seed = Py_NewRef(seeds[l]);
            }
        }
        for (int l = 0; l < n; l++) {
            Py_CLEAR(seeds[l]);
        }
    }
    result = Py_BuildValue("(OLLLiOLO)", Py_None, tally.paths, tally.violations, tally.truncated, tally.max_len,
                           tally.witness != NULL ? tally.witness : Py_None, max_paths,
                           first_seed != NULL ? first_seed : Py_None);
done:
    for (int l = 0; l < LANES; l++) {
        Py_XDECREF(seeds[l]);
    }
    Py_XDECREF(first_seed);
    Py_XDECREF(tally.witness);
    scratch_free(&sc);
    PyMem_RawFree(g);
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
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "c") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
