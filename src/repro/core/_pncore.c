/* Algorithm 1's per-node round in one pass: the per-node synchronous
 * engines' hot path (repro.core.synchronous.pernode_round).
 *
 * The numpy passes this replaces stay the oracle and the fallback: the
 * self-skip shift of the raw contact draws, four gathers,
 * pernode_update and state_tally.  Each of them reads and writes
 * n-sized temporaries.  Here each node is one iteration: shift its two
 * draws, read both contacts' (gen, col) and its own, apply the rule,
 * store the new state and count it in the (gen, col) tally.
 *
 * The rule is pernode_update's integer arithmetic, b + mask * (a - b),
 * with no branch on the data: the masks are random, so a branchy loop
 * mispredicts about as often as numpy's passes cost.  The contacts are
 * random reads over the whole population while the rule takes a few
 * cycles, so their state is prefetched PREFETCH_AHEAD nodes ahead.
 * Every value is computed in long long and fits the state dtype when
 * stored: state_dtype keeps generations below rows - 1 and colors
 * below k, so the results are the numpy passes' integers exactly.
 */
#include "_fastcore.h"

#define PREFETCH_AHEAD 32

#ifdef __GNUC__
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)0)
#endif

/* Why a round stopped early: a contact outside [0, n), or a new state
 * outside the tally.  Both mean the caller's arrays disagree. */
enum { ROUND_OK, ROUND_BAD_CONTACT, ROUND_BAD_STATE };

typedef struct {
    const long long *first, *second; /* raw draws, m each */
    const void *gens, *cols;         /* the full state, n each */
    const char *active;              /* m flags, or NULL when all act */
    void *out_gens, *out_cols;       /* the slice's new state, m each */
    long long *tally;                /* size counts, zeroed here */
    Py_ssize_t n, m, start, size;
    long long k, two_choices, skip_self;
} Round;

/* One round over state of element type T; ACT(i) is node i's active
 * flag (a constant 1 when every node acts, which spares the loop a
 * load and a test per node). */
#define DEFINE_ROUND(NAME, T, ACT)                                            \
    static int NAME(const Round *r)                                           \
    {                                                                         \
        const T *gens = r->gens, *cols = r->cols;                             \
        T *out_gens = r->out_gens, *out_cols = r->out_cols;                   \
        const long long *first = r->first, *second = r->second;               \
        const char *active = r->active;                                       \
        (void)active; /* read by ACT alone */                                 \
        long long *tally = r->tally;                                          \
        const long long start = r->start;                                     \
        const unsigned long long n = (unsigned long long)r->n;                \
        const unsigned long long size = (unsigned long long)r->size;          \
        const long long k = r->k, two = r->two_choices, skip = r->skip_self;  \
        const Py_ssize_t m = r->m, ahead = m - PREFETCH_AHEAD;                \
        memset(tally, 0, (size_t)size * sizeof(long long));                   \
        for (Py_ssize_t i = 0; i < m; i++) {                                  \
            if (i < ahead) {                                                  \
                long long fa = first[i + PREFETCH_AHEAD];                     \
                long long fb = second[i + PREFETCH_AHEAD];                    \
                PREFETCH(gens + fa);                                          \
                PREFETCH(cols + fa);                                          \
                PREFETCH(gens + fb);                                          \
                PREFETCH(cols + fb);                                          \
            }                                                                 \
            long long self = start + i;                                       \
            long long a = first[i], b = second[i];                            \
            a += skip & (a >= self);                                          \
            b += skip & (b >= self);                                          \
            if ((unsigned long long)a >= n || (unsigned long long)b >= n)     \
                return ROUND_BAD_CONTACT;                                     \
            long long ga = gens[a], ca = cols[a], gb = gens[b], cb = cols[b]; \
            long long own_g = gens[self], own_c = cols[self];                 \
            long long act = ACT(i);                                           \
            long long up = gb > ga;                                           \
            long long hi = ga + up * (gb - ga);                               \
            long long col_hi = ca + up * (cb - ca);                           \
            hi += two & (ga == gb) & (ca == cb) & (own_g <= hi) & act;        \
            long long adopt = (hi > own_g) & act;                             \
            long long g = own_g + adopt * (hi - own_g);                       \
            long long c = own_c + adopt * (col_hi - own_c);                   \
            unsigned long long key = (unsigned long long)(g * k + c);         \
            if (key >= size)                                                  \
                return ROUND_BAD_STATE;                                       \
            out_gens[i] = (T)g;                                               \
            out_cols[i] = (T)c;                                               \
            tally[key]++;                                                     \
        }                                                                     \
        return ROUND_OK;                                                      \
    }

#define ALL_ACT(i) 1
#define MASK_ACT(i) (active[i] != 0)
DEFINE_ROUND(round_int8, signed char, ALL_ACT)
DEFINE_ROUND(round_int64, long long, ALL_ACT)
DEFINE_ROUND(masked_round_int8, signed char, MASK_ACT)
DEFINE_ROUND(masked_round_int64, long long, MASK_ACT)

/* The buffer's single format character, or 0 for any other format. */
static char format_of(const Py_buffer *v)
{
    const char *f = v->format ? v->format : "B";
    if (f[0] == '@')
        f++;
    return f[0] && !f[1] ? f[0] : 0;
}

static int is_int64(const Py_buffer *v)
{
    char f = format_of(v);
    return v->itemsize == 8 && (f == 'q' || (f == 'l' && sizeof(long) == 8));
}

/* int8 or int64 state; returns its item size, or 0. */
static Py_ssize_t state_kind(const Py_buffer *v)
{
    if (v->itemsize == 1 && format_of(v) == 'b')
        return 1;
    return is_int64(v) ? 8 : 0;
}

static int overlap(const Py_buffer *x, const Py_buffer *y)
{
    const char *a = x->buf, *b = y->buf;
    return x->len && y->len && a < b + y->len && b < a + x->len;
}

const char pn_round_doc[] =
"pernode_round(first, second, gens, cols, start, k, two_choices, active,\n"
"              skip_self, out_gens, out_cols, tally) -> None\n\n"
"One round of Algorithm 1 for the nodes start .. start + m of the full\n"
"state arrays gens and cols (int8 or int64, n each); first and second\n"
"are the m nodes' raw int64 contact draws.  With skip_self each draw\n"
"is shifted up by one at or above the node's own index, as the numpy\n"
"passes do for draws from n - 1.  active is None or m bools (nodes\n"
"that learn nothing this round).  Writes the new state to out_gens and\n"
"out_cols (m each, the state's dtype, not overlapping it) and the\n"
"(gen, col) counts of the new state, at gen * k + col, to tally.";

PyObject *pn_round(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *first, *second, *gens, *cols, *active, *out_gens, *out_cols, *tally;
    Py_ssize_t start, k;
    int two_choices, skip_self;
    if (!PyArg_ParseTuple(args, "OOOOnnpOpOOO:pernode_round", &first, &second, &gens,
                          &cols, &start, &k, &two_choices, &active, &skip_self,
                          &out_gens, &out_cols, &tally))
        return NULL;
    enum { FIRST, SECOND, GENS, COLS, OUT_GENS, OUT_COLS, TALLY, ACTIVE, NVIEWS };
    PyObject *objs[NVIEWS] = {first, second, gens, cols, out_gens, out_cols, tally, active};
    Py_buffer v[NVIEWS];
    int held = 0, nviews = active == Py_None ? ACTIVE : NVIEWS;
    PyObject *result = NULL;
    for (; held < nviews; held++) {
        int writable = held == OUT_GENS || held == OUT_COLS || held == TALLY;
        int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(objs[held], &v[held], flags) < 0)
            goto done;
    }
    Py_ssize_t width = state_kind(&v[GENS]);
    Py_ssize_t m = v[FIRST].len / 8, n = width ? v[GENS].len / width : 0;
    if (!is_int64(&v[FIRST]) || !is_int64(&v[SECOND]) || !is_int64(&v[TALLY])) {
        PyErr_SetString(PyExc_TypeError, "draws and tally must be int64");
        goto done;
    }
    if (!width || state_kind(&v[COLS]) != width || state_kind(&v[OUT_GENS]) != width ||
        state_kind(&v[OUT_COLS]) != width) {
        PyErr_SetString(PyExc_TypeError, "state arrays must share one dtype, int8 or int64");
        goto done;
    }
    if (nviews == NVIEWS && (v[ACTIVE].itemsize != 1 || format_of(&v[ACTIVE]) != '?')) {
        PyErr_SetString(PyExc_TypeError, "active must be None or a bool array");
        goto done;
    }
    if (v[SECOND].len != v[FIRST].len || v[COLS].len != v[GENS].len ||
        v[OUT_GENS].len != m * width || v[OUT_COLS].len != m * width ||
        (nviews == NVIEWS && v[ACTIVE].len != m)) {
        PyErr_SetString(PyExc_ValueError, "draws, active and outputs must have one length");
        goto done;
    }
    if (start < 0 || start > n - m || k < 1) {
        PyErr_SetString(PyExc_ValueError, "need 0 <= start <= n - m and k >= 1");
        goto done;
    }
    if (overlap(&v[OUT_GENS], &v[GENS]) || overlap(&v[OUT_GENS], &v[COLS]) ||
        overlap(&v[OUT_COLS], &v[GENS]) || overlap(&v[OUT_COLS], &v[COLS]) ||
        overlap(&v[OUT_GENS], &v[OUT_COLS])) {
        PyErr_SetString(PyExc_ValueError, "outputs must not overlap the state");
        goto done;
    }
    Round r = {
        v[FIRST].buf, v[SECOND].buf, v[GENS].buf, v[COLS].buf,
        nviews == NVIEWS ? v[ACTIVE].buf : NULL,
        v[OUT_GENS].buf, v[OUT_COLS].buf, v[TALLY].buf,
        n, m, start, v[TALLY].len / 8, k, two_choices, skip_self,
    };
    int rc;
    Py_BEGIN_ALLOW_THREADS
    if (r.active)
        rc = width == 1 ? masked_round_int8(&r) : masked_round_int64(&r);
    else
        rc = width == 1 ? round_int8(&r) : round_int64(&r);
    Py_END_ALLOW_THREADS
    if (rc == ROUND_BAD_CONTACT)
        PyErr_SetString(PyExc_IndexError, "contact index out of range");
    else if (rc == ROUND_BAD_STATE)
        PyErr_SetString(PyExc_ValueError, "new state outside the tally");
    else {
        Py_INCREF(Py_None);
        result = Py_None;
    }
done:
    while (held > 0)
        PyBuffer_Release(&v[--held]);
    return result;
}
