/* Compiled ladder kernel.  It has the same two entry points as
 * dehnfill._ladder_py, with the same state encoding, traversal order and
 * outputs:
 *
 *   scan_track(offsets, sw_rung, sw_end, rung_level, cusp_lo, cusp_hi,
 *              lo_idx, hi_idx, forward_dir, step_bound, collect)
 *       scans a track given in the plain-int encoding of dehnfill._ladder_py;
 *
 *   scan_ladder(seed, max_levels, max_rungs_per_gap, alternating, step_bound)
 *       draws the ladder that random.Random(seed) gives, word for word as
 *       dehnfill.ladders._draw does, encodes it as _encode_lists does and
 *       scans it.  Its own MT19937, seeded from the int as CPython seeds
 *       one, hands out the words, so it calls no random.Random.
 *
 * Arguments are positional.  Only the public CPython API is used, and there
 * is no floating point.
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

/* One block of ints for every array of a track, with `extra` more ints after
 * them; sets the counts and the array pointers.  Returns the block. */
static int *
track_alloc(Track *t, int n_levels, int n_sw, int n_rungs, Py_ssize_t extra)
{
    Py_ssize_t n = (n_levels + 1) + 3 * (Py_ssize_t)n_sw + 5 * (Py_ssize_t)n_rungs + n_levels;
    int *mem = PyMem_Malloc((size_t)(n + extra) * sizeof(int));
    if (mem == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
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
    return mem;
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

/* Enumerate every maximal carried path of `t` and check the two-line
 * property; returns the 6-tuple of dehnfill._ladder_py.scan_track.  `paths`
 * is a list to append (path, truncated) pairs to, or NULL. */
static PyObject *
scan(const Track *t, int forward_dir, long step_bound, PyObject *paths)
{
    long long n_paths = 0, n_violations = 0, n_truncated = 0;
    int max_len = 0;
    PyObject *witness = NULL, *result = NULL;
    /* A path stops at step_bound states, and at the first repeated state. */
    long depth_cap = step_bound < 1 ? 1 : step_bound;
    if (depth_cap > (long)t->n_states + 1) {
        depth_cap = t->n_states + 1;
    }
    Frame *st = PyMem_Malloc((size_t)(depth_cap + 1) * sizeof(Frame));
    unsigned char *on_path = PyMem_Calloc((size_t)t->n_states + 1, 1);
    if (st == NULL || on_path == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Iterative DFS from each line end, in level order; the straight-through
     * continuation is explored before the rung exit. */
    for (int level = 0; level < t->n_levels; level++) {
        int n_here = t->offsets[level + 1] - t->offsets[level];
        for (int side = 0; side < 2; side++) {
            int depth = 0;
            st[0].state = side == 0 ? line_state(t, level, 0, 1) : line_state(t, level, n_here, 0);
            st[0].iter = -1;
            while (depth >= 0) {
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
                            n_paths++;
                            n_truncated += f->truncated;
                            if (depth + 1 > max_len) {
                                max_len = depth + 1;
                            }
                            if (violates(t, st, depth + 1, forward_dir)) {
                                n_violations++;
                                if (witness == NULL && (witness = path_tuple(st, depth + 1)) == NULL) {
                                    goto done;
                                }
                            }
                            if (paths != NULL) {
                                PyObject *states = path_tuple(st, depth + 1);
                                if (states == NULL) {
                                    goto done;
                                }
                                PyObject *pair = PyTuple_Pack(2, states, f->truncated ? Py_True : Py_False);
                                Py_DECREF(states);
                                if (pair == NULL || PyList_Append(paths, pair) < 0) {
                                    Py_XDECREF(pair);
                                    goto done;
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
    result = Py_BuildValue("(OLLLiO)", paths != NULL ? paths : Py_None, n_paths, n_violations,
                           n_truncated, max_len, witness != NULL ? witness : Py_None);
done:
    PyMem_Free(st);
    PyMem_Free(on_path);
    Py_XDECREF(witness);
    return result;
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
    Track t;
    int *mem = track_alloc(&t, (int)n_offsets - 1, (int)n_sw, (int)n_rungs, 0);
    if (mem == NULL) {
        return NULL;
    }
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
    result = scan(&t, forward_dir, step_bound, paths);
done:
    Py_XDECREF(paths);
    PyMem_Free(mem);
    return result;
}

/* ------------------------------------------------------------------------
 * scan_ladder: the ladder that random.Random(seed) draws
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

/* init_by_array on the key words.  `prev` is mt[i - 1], held in a register:
 * each step waits on the one before, so the seeding costs the latency of
 * that chain, about 1,250 steps. */
static void
mt_seed(MT *g, const uint32_t *key, size_t key_len)
{
    uint32_t *mt = g->mt, prev = mt_base[0];
    size_t i = 1, j = 0;
    memcpy(mt, mt_base, sizeof(mt_base));
    for (size_t k = MT_N > key_len ? MT_N : key_len; k; k--) {
        prev = mt[i] = (mt[i] ^ ((prev ^ (prev >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = prev;
            i = 1;
        }
        if (j >= key_len) {
            j = 0;
        }
    }
    for (size_t k = MT_N - 1; k; k--) {
        prev = mt[i] = (mt[i] ^ ((prev ^ (prev >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = prev;
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    g->pos = 0;
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

/* Seed `g` from the int `seed`; -1 with TypeError when it is not an int. */
static int
mt_seed_int(MT *g, PyObject *seed)
{
    if (!PyLong_Check(seed)) {
        PyErr_Format(PyExc_TypeError, "seed must be an int, not %.100s", Py_TYPE(seed)->tp_name);
        return -1;
    }
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(seed, &overflow);
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (!overflow) {
        unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
        uint32_t key[2] = {(uint32_t)u, (uint32_t)(u >> 32)};
        mt_seed(g, key, key[1] ? 2 : 1);
        return 0;
    }
    /* abs(seed).to_bytes(4 * words, "little"), on a plain int. */
    PyObject *index = PyNumber_Index(seed), *n = NULL, *bits = NULL, *bytes = NULL;
    int status = -1;
    if (index == NULL || (n = PyNumber_Absolute(index)) == NULL
        || (bits = PyObject_CallMethod(n, "bit_length", NULL)) == NULL) {
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
    uint32_t *key = PyMem_Malloc((size_t)n_words * sizeof(uint32_t));
    if (key == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const unsigned char *b = (const unsigned char *)PyBytes_AS_STRING(bytes);
    for (Py_ssize_t i = 0; i < n_words; i++, b += 4) {
        key[i] = (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
    }
    mt_seed(g, key, (size_t)n_words);
    PyMem_Free(key);
    status = 0;
done:
    Py_XDECREF(index);
    Py_XDECREF(n);
    Py_XDECREF(bits);
    Py_XDECREF(bytes);
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

/* Draw the ladder from `g` and encode it in `t`.  Returns the block to free,
 * or NULL with MemoryError set.  The draws are those of
 * dehnfill.ladders._draw, in its order. */
static int *
draw_track(MT *g, int max_levels, int max_rungs, int alternating, Track *t)
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
    int *mem = track_alloc(t, n_levels, 2 * n_rungs, n_rungs, (Py_ssize_t)n_rungs + n_slots);
    if (mem == NULL) {
        return NULL;
    }
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
    return mem;
}

static PyObject *
scan_ladder(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "scan_ladder takes 5 positional arguments (%zd given)", nargs);
        return NULL;
    }
    MT g;
    long max_levels, max_rungs, step_bound;
    int alternating;
    if (mt_seed_int(&g, args[0]) < 0 || as_long(args[1], &max_levels) < 0 || as_long(args[2], &max_rungs) < 0
        || (alternating = PyObject_IsTrue(args[3])) < 0 || as_long(args[4], &step_bound) < 0) {
        return NULL;
    }
    if (max_levels < 2 || max_levels > SIZE_CAP || max_rungs < 0 || max_rungs > SIZE_CAP) {
        PyErr_Format(PyExc_ValueError, "max_levels must lie in 2..%d and max_rungs_per_gap in 0..%d",
                     SIZE_CAP, SIZE_CAP);
        return NULL;
    }
    Track t;
    int *mem = draw_track(&g, (int)max_levels, (int)max_rungs, alternating, &t);
    if (mem == NULL) {
        return NULL;
    }
    /* Orientation +1 on level 0 in both kinds of seeded ladder, so the
     * forward direction is +1 whether or not it is of leaf-trace type. */
    PyObject *result = scan(&t, 1, step_bound, NULL);
    PyMem_Free(mem);
    return result;
}

static PyMethodDef methods[] = {
    {"scan_track", (PyCFunction)(void (*)(void))scan_track, METH_FASTCALL,
     "scan_track(offsets, sw_rung, sw_end, rung_level, cusp_lo, cusp_hi, lo_idx, hi_idx,\n"
     "           forward_dir, step_bound, collect)\n\n"
     "Same contract as dehnfill._ladder_py.scan_track."},
    {"scan_ladder", (PyCFunction)(void (*)(void))scan_ladder, METH_FASTCALL,
     "scan_ladder(seed, max_levels, max_rungs_per_gap, alternating, step_bound)\n\n"
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
