/* Shared parts of the compiled cores (_slcore.c, _mlcore.c, _clcore.c).
 *
 * The event heap, the draw-pool view of a DrawPool's numpy block, the
 * fault seam, and the helpers that load Python attributes into C and
 * store them back.
 * The hot-path pieces (heap push/pop, pool draws) are static inline so
 * each core's loop compiles them in; the rest lives in _fastcore.c,
 * which also defines the extension module.  See repro.core.fastcore.
 */
#ifndef REPRO_FASTCORE_H
#define REPRO_FASTCORE_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Deliveries between two PyErr_CheckSignals() calls. */
#define SIGNAL_CHECK_EVERY 4096

/* One scheduled event.  key is the queue's sequence number shifted
 * left by KIND_BITS with the event's kind in the low bits: sequence
 * numbers are unique, so ordering by key orders by sequence number.
 * The core that files an event gives kind and a, b, c, d their
 * meaning. */
typedef struct {
    double time;
    long long key;
    int a, b, c, d;
} Event;

#define KIND_BITS 3
#define MAX_SEQ (LLONG_MAX >> KIND_BITS)

static inline long long ev_seq(const Event *e)
{
    return e->key >> KIND_BITS;
}

static inline int ev_kind(const Event *e)
{
    return (int)(e->key & ((1 << KIND_BITS) - 1));
}

typedef struct {
    Event *v;
    Py_ssize_t len, cap;
} EventHeap;

static inline int ev_less(const Event *x, const Event *y)
{
    return x->time < y->time || (x->time == y->time && x->key < y->key);
}

static inline int ev_push(EventHeap *h, const Event *e)
{
    if (h->len == h->cap) {
        Py_ssize_t cap = h->cap ? 2 * h->cap : 1024;
        Event *v = realloc(h->v, (size_t)cap * sizeof(Event));
        if (!v) {
            PyErr_NoMemory();
            return -1;
        }
        h->v = v;
        h->cap = cap;
    }
    Py_ssize_t i = h->len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!ev_less(e, &h->v[parent]))
            break;
        h->v[i] = h->v[parent];
        i = parent;
    }
    h->v[i] = *e;
    return 0;
}

static inline void ev_pop(EventHeap *h)
{
    Event last = h->v[--h->len];
    Py_ssize_t n = h->len, i = 0;
    if (!n)
        return;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ev_less(&h->v[child + 1], &h->v[child]))
            child++;
        if (!ev_less(&h->v[child], &last))
            break;
        h->v[i] = h->v[child];
        i = child;
    }
    h->v[i] = last;
}

/* A DrawPool seen through its current numpy block. */
typedef struct {
    PyObject *obj;     /* the pool (borrowed for the call) */
    PyObject *arr;     /* current block (owned) or NULL */
    Py_buffer view;
    int has_view;
    int integer;       /* int64 block (IntegerPool) rather than float64 */
    int fresh;         /* a refill replaced the block during the call */
    Py_ssize_t len, pos;
} Pool;

/* Take the block and position of obj's pool attribute name (obj keeps
 * the pool alive for the call); 1 = ok, 0 = unsupported. */
int pool_open_attr(Pool *p, PyObject *obj, const char *name, int integer);
/* DrawPool._refill_array() and a view of the new block. */
int pool_refill(Pool *p);
/* Hand the block and position back (a refilled block as _arr/_buf). */
int pool_store(Pool *p);
void pool_free(Pool *p);

/* DrawPool.__call__ */
static inline int pool_next(Pool *p, double *out)
{
    if (p->pos >= p->len && pool_refill(p) < 0)
        return -1;
    *out = ((const double *)p->view.buf)[p->pos++];
    return 0;
}

static inline int pool_next_int(Pool *p, long long *out)
{
    if (p->pos >= p->len && pool_refill(p) < 0)
        return -1;
    *out = (long long)((const int64_t *)p->view.buf)[p->pos++];
    return 0;
}

/* DrawPool.take: lazy refills, whole blocks in order. */
static inline int pool_take(Pool *p, int count, double *out)
{
    int got = 0;
    while (got < count) {
        if (p->pos >= p->len && pool_refill(p) < 0)
            return -1;
        Py_ssize_t m = p->len - p->pos;
        if (m > count - got)
            m = count - got;
        memcpy(out + got, (const double *)p->view.buf + p->pos, (size_t)m * sizeof(double));
        p->pos += m;
        got += (int)m;
    }
    return 0;
}

/* The fault models a FaultInjection may hold, numbered as the cores
 * expect them (the kinds argument). */
enum { FAULT_IID, FAULT_BURSTY, FAULT_STRAGGLERS };

typedef struct {
    PyObject *obj;
    int kind;
    /* IidDrop: rate; GilbertElliottDrop: the rest */
    double rate, drop_good, drop_bad, to_bad, to_good;
    int bad;
    long long dropped, bursts;
    /* Stragglers */
    signed char *slow;
    double slowdown;
    Pool pool;
} Fault;

/* The scheduling seam of a run: wiring is NULL on a simulator of the
 * protocol's own, or the repro.scenarios.faults.FaultInjection that
 * wraps it (no churn), whose drop and straggler models the core runs. */
typedef struct {
    PyObject *wiring;
    int nfaults;
    Fault *faults;
    long long dropped_messages, dropped_exchanges;
} Seam;

/* Load wiring (None or a FaultInjection) and its fault models, numbered
 * by the tuple kinds, over n nodes; 1 ok, 0 unsupported, -1 error. */
int seam_load(Seam *s, PyObject *wiring, PyObject *kinds, int n);
/* Write the counters, channel states and fault pools back. */
int seam_store(Seam *s);
void seam_free(Seam *s);
/* FaultInjection._schedule_in's transform chain over one message
 * (node < 0) or one exchange of node: 1 = file after *delay, 0 =
 * dropped (counted in the model; the caller counts the seam's drop),
 * -1 = error. */
int seam_transform(Seam *s, int node, double *delay);

/* The ε-target of a run (the protocol's _eps_target/_eps_stop/_eps_time). */
typedef struct {
    int has, stop, hit;
    long long target;
    double time;
} EpsTarget;

int load_eps(PyObject *proto, EpsTarget *eps);
int store_eps(PyObject *proto, const EpsTarget *eps);

/* Attribute helpers: 0 ok, -1 error. */
int get_ll(PyObject *obj, const char *name, long long *out);
int get_int(PyObject *obj, const char *name, int *out);
int get_double(PyObject *obj, const char *name, double *out);
int get_flag(PyObject *obj, const char *name, int *out);
int set_obj(PyObject *obj, const char *name, PyObject *value); /* steals value */
int set_ll(PyObject *obj, const char *name, long long v);
int set_flag(PyObject *obj, const char *name, int v);
/* A new reference to a list attribute of exactly n items (any length
 * when n < 0), or NULL (with *ok = 0 when it has another shape). */
PyObject *get_list(PyObject *obj, const char *name, Py_ssize_t n, int *ok);
/* Fill an array from a list attribute; 1 ok, 0 unsupported, -1 error. */
int load_ints(PyObject *obj, const char *name, int n, int *out);
int load_flags(PyObject *obj, const char *name, int n, signed char *out);
/* Overwrite a list attribute's items in place. */
int store_ints(PyObject *obj, const char *name, int n, const int *src);
int store_flags(PyObject *obj, const char *name, int n, const signed char *src);
/* A list-of-lists count matrix: load into rows*k (rows = its length,
 * which must exceed min_rows), store back in place. */
int load_matrix(PyObject *obj, const char *name, int k, Py_ssize_t min_rows,
                long long **out, Py_ssize_t *rows);
int store_matrix(PyObject *obj, const char *name, int k, Py_ssize_t rows, const long long *src);
int load_lls(PyObject *obj, const char *name, int n, long long *out);
int store_lls(PyObject *obj, const char *name, int n, const long long *src);
/* A new list of n ints (a count-matrix row). */
PyObject *ll_list(const long long *src, int n);

/* An int payload in [0, bound): 1 ok, 0 unsupported, -1 error. */
int int_arg(PyObject *v, int bound, int *out);

/* The event queue.  funcs is the tuple of handler functions whose
 * bound methods (on proto) the core files; an entry's kind is its
 * handler's index there.  A core parses and builds the payloads. */
typedef int (*PayloadLoader)(void *core, int kind, PyObject *payload, Event *e);
typedef PyObject *(*PayloadBuilder)(void *core, const Event *e);
/* Load EventQueue._heap and _next_seq; 1 ok, 0 unsupported (a foreign
 * event, a cancellation), -1 error. */
int load_queue(PyObject *queue, PyObject *proto, PyObject *funcs, EventHeap *heap,
               long long *next_seq, PayloadLoader parse, void *core);
int store_queue(PyObject *queue, PyObject *proto, PyObject *funcs, const EventHeap *heap,
                long long next_seq, PayloadBuilder build, void *core);

/* The simulator's clock and counters after a run (now, executed
 * events added, stop flag). */
int store_clock(PyObject *sim, double now, long long executed, int stop);

/* Finish a run: write the state back with store(core) whatever the
 * loop's outcome rc, keep the loop's own error, and return True or
 * NULL. */
PyObject *finish_run(int rc, int (*store)(void *), void *core);

/* The three cores' entry points. */
PyObject *sl_run(PyObject *module, PyObject *args);
PyObject *ml_run(PyObject *module, PyObject *args);
PyObject *cl_run(PyObject *module, PyObject *args);
extern const char sl_run_doc[];
extern const char ml_run_doc[];
extern const char cl_run_doc[];

#define LOAD(expr)              \
    do {                        \
        int rc_ = (expr);       \
        if (rc_ != 1)           \
            return rc_;         \
    } while (0)

#define CHECK(expr)             \
    do {                        \
        if ((expr) < 0)         \
            return -1;          \
    } while (0)

#endif
