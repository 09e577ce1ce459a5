/* The shared half of the compiled cores (_slcore.c, _mlcore.c, _clcore.c).
 *
 * The paper's three protocols (the single leader, clustering and
 * multi-leader consensus) run in one asynchronous model: Poisson
 * clocks, channel delays and uniform contacts on K_n.  Each compiled
 * core is one protocol half (its state, handlers, payload codecs and a
 * dispatch function) on top of the simulator half declared here: the
 * Sim struct (clock, event heap, tally stream and trigger, draw pools,
 * tick counters and the fault seam), schedule and the seam-aware send,
 * the event loop (Simulator._run_free), and one entry body, sim_main,
 * that loads both halves, runs the loop and writes everything back.
 *
 * Byte identity with the Python engines rests on four rules:
 *
 *   - Events pop in (time, seq) order and tally arrivals in time
 *     order, with the event first at equal times, exactly as in
 *     Simulator._run_free (nextafter horizon, trigger stop, stop()
 *     after the current event).
 *   - A core never draws randomness itself.  When a pool block runs
 *     out it calls that pool's _refill_array() and reads the new block
 *     through the buffer protocol, following DrawPool.__call__ and
 *     DrawPool.take, so the generator is consumed in the same order.
 *   - The handlers repeat the Python arithmetic operation for
 *     operation in IEEE double (build with -ffp-contract=off).
 *   - Every piece of state is written back, so the Python engine can
 *     inspect the result or continue the run exactly.
 *
 * Both heaps pop with Floyd's bottom-up pop, which moves the smaller
 * child up without a branch on the comparison and prefetches the
 * grandchildren; a sift-down's "which child, and stop here?" branch
 * mispredicts at every level.  Pops stay byte-identical: events pop in their unique
 * (time, seq) order, the tally is a multiset of doubles, and both arrays
 * stay binary heaps, so the lists written back are valid heapq heaps.
 *
 * The hot-path pieces (heap push/pop, pool draws, schedule, the send,
 * the loop) are static inline so each core's loop compiles them in;
 * the rest lives in _fastcore.c, which also defines the extension
 * module.  See repro.core.fastcore.
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

/* (time, seq) order, evaluated without a branch. */
static inline int ev_less(const Event *x, const Event *y)
{
    return (x->time < y->time) | ((x->time == y->time) & (x->key < y->key));
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

/* The steps of heapq.heappop (Floyd's bottom-up pop): walk the hole at
 * the root down to a leaf, moving up the smaller child (the right one
 * unless the left is less) with no branch on the comparison, then sift
 * the old last element up from there.  With no branch to speculate on,
 * the CPU no longer loads the next level ahead of the comparison, so
 * the walk prefetches the four grandchildren itself: 128 bytes over up
 * to three cache lines (a prefetch never faults, also past the end).
 * Without it, a heap that outgrows the cache (multi-leader runs at
 * n=10^4) pops slower than with a branching sift-down. */
static inline void ev_pop(EventHeap *h)
{
    Event *v = h->v;
    Py_ssize_t n = --h->len, i = 0, child;
    if (!n)
        return;
    while ((child = 2 * i + 2) < n) {
        __builtin_prefetch(&v[2 * child - 1]);
        __builtin_prefetch(&v[2 * child]);
        __builtin_prefetch(&v[2 * child + 2]);
        child -= ev_less(&v[child - 1], &v[child]);
        v[i] = v[child];
        i = child;
    }
    if (child == n) {
        v[i] = v[n - 1];
        i = n - 1;
    }
    Event last = v[n];
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!ev_less(&last, &v[parent]))
            break;
        v[i] = v[parent];
        i = parent;
    }
    v[i] = last;
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

/* DrawPool._refill_array() and a view of the new block. */
int pool_refill(Pool *p);

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

/* ------------------------------------------------------------------ */
/* the simulator half                                                 */
/* ------------------------------------------------------------------ */

/* Simulator._tally: a min-heap of arrival times. */
typedef struct {
    double *v;
    Py_ssize_t len, cap;
} TallyHeap;

static inline int tally_push(TallyHeap *h, double t)
{
    if (h->len == h->cap) {
        Py_ssize_t cap = h->cap ? 2 * h->cap : 4096;
        double *v = realloc(h->v, (size_t)cap * sizeof(double));
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
        if (!(t < h->v[parent]))
            break;
        h->v[i] = h->v[parent];
        i = parent;
    }
    h->v[i] = t;
    return 0;
}

/* ev_pop's Floyd pop over arrival times, whose four grandchildren (32
 * bytes) span at most two cache lines. */
static inline void tally_pop(TallyHeap *h)
{
    double *v = h->v;
    Py_ssize_t n = --h->len, i = 0, child;
    if (!n)
        return;
    while ((child = 2 * i + 2) < n) {
        __builtin_prefetch(&v[2 * child - 1]);
        __builtin_prefetch(&v[2 * child + 2]);
        child -= v[child - 1] < v[child];
        v[i] = v[child];
        i = child;
    }
    if (child == n) {
        v[i] = v[n - 1];
        i = n - 1;
    }
    double last = v[n];
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!(last < v[parent]))
            break;
        v[i] = v[parent];
        i = parent;
    }
    v[i] = last;
}

/* The simulator half of a run.  Each core's struct embeds one as its
 * first member, so a Sim * is also a pointer to its core. */
typedef struct {
    PyObject *proto, *sim, *funcs;
    PyObject *f_trigger; /* the tally trigger's handler, or NULL */
    int n;               /* nodes (the core's load sets it) */
    double now;
    long long next_seq, executed, flushes, flushed_events;
    int stop;
    EventHeap heap;
    TallyHeap tally;
    long long tallied, trigger_at;
    Pool tick_wait, latency, channel, neighbor;
    Seam seam;
    long long good_ticks, total_ticks;
} Sim;

/* Every core's funcs start with its _tick. */
enum { EV_TICK };

/* Simulator.schedule: file an event of kind with fields a, b, c, d. */
static inline int schedule(Sim *s, double time, int kind, int a, int b, int c, int d)
{
    Event e = {time, s->next_seq++ << KIND_BITS | kind, a, b, c, d};
    return ev_push(&s->heap, &e);
}

/* FaultInjection._schedule_in: file an event delay from now through the
 * fault seam, as an exchange of node (node >= 0, which stragglers slow)
 * or as a message (node < 0).  1 = filed, 0 = dropped (counted, its
 * sequence number reserved; a dropped exchange's sender is the core's
 * to unlock), -1 = error. */
static inline int sim_send(Sim *s, int node, double delay, int kind, int a, int b, int c, int d)
{
    if (s->seam.wiring) {
        int rc = seam_transform(&s->seam, node, &delay);
        if (rc <= 0) {
            if (rc < 0)
                return -1;
            /* _note_drop, then Simulator.reserve_seq */
            if (node < 0)
                s->seam.dropped_messages++;
            else
                s->seam.dropped_exchanges++;
            s->next_seq++;
            return 0;
        }
    }
    return schedule(s, s->now + delay, kind, a, b, c, d) < 0 ? -1 : 1;
}

/* schedule_tick_window's filing for node (w >= 2): ticks[j] = now +
 * (waits[0] + ... + waits[j]), the first tick at now + waits[0] and the
 * rest as one schedule_many_at block. */
int sim_tick_block(Sim *s, int node, int w, const double *waits, double *ticks);

/* Simulator._run_free.  dispatch(s, e) runs event e's handler and
 * trigger(s) the tally trigger's action; a core without a trigger
 * (NULL) files no tally arrivals.  Both are the core's constants, so
 * its handlers are called directly. */
static inline int run_loop(Sim *s, double horizon, int (*dispatch)(Sim *, const Event *),
                           int (*trigger)(Sim *))
{
    double past = nextafter(horizon, INFINITY);
    long long budget = SIGNAL_CHECK_EVERY;
    for (;;) {
        double due;
        if (s->heap.len)
            due = s->heap.v[0].time;
        else if (s->tally.len)
            due = INFINITY;
        else
            return 0;
        if (s->tally.len && s->tally.v[0] < due) {
            double time = s->tally.v[0];
            if (time > horizon) {
                s->now = horizon;
                return 0;
            }
            double limit = due < past ? due : past;
            long long count = s->tallied, start = count, fire = s->trigger_at;
            for (;;) {
                tally_pop(&s->tally);
                count++;
                if (count == fire || !s->tally.len || s->tally.v[0] >= limit)
                    break;
                time = s->tally.v[0];
            }
            s->tallied = count;
            s->executed += count - start;
            budget -= count - start;
            s->now = time;
            if (trigger && count == fire) {
                s->trigger_at = -1; /* Simulator._fire_trigger */
                if (trigger(s) < 0)
                    return -1;
                if (s->stop)
                    return 0;
            }
        }
        else {
            if (due > horizon) {
                s->now = horizon;
                return 0;
            }
            Event e = s->heap.v[0];
            ev_pop(&s->heap);
            s->now = due;
            if (dispatch(s, &e) < 0)
                return -1;
            s->executed++;
            budget--;
            if (s->stop)
                return 0;
        }
        if (budget <= 0) {
            budget = SIGNAL_CHECK_EVERY;
            if (PyErr_CheckSignals() < 0)
                return -1;
        }
    }
}

/* A core's protocol half.  load reads the protocol's state (1 ready,
 * 0 unsupported, -1 error) before the simulator half is loaded; parse
 * and build convert one queue payload (parse: 1 ok, 0 unsupported,
 * -1 error); run is run_loop over the core's dispatch; store writes
 * the protocol's state back and release frees what load took. */
typedef struct {
    size_t size;      /* of the core's struct */
    int nfuncs;       /* handler functions in funcs */
    int has_trigger;  /* funcs' last is the tally trigger's handler */
    int (*load)(Sim *s);
    int (*parse)(Sim *s, int kind, PyObject *payload, Event *e);
    PyObject *(*build)(Sim *s, const Event *e);
    int (*run)(Sim *s, double horizon);
    int (*store)(Sim *s);
    void (*release)(Sim *s);
} CoreSpec;

/* Every core's entry body: parse (proto, horizon, funcs, wiring,
 * kinds), load both halves, run the loop and write everything back.
 * Returns True, NULL on error, or False, having changed nothing, when
 * the state is not one the core models (a foreign event or trigger, a
 * state the protocol half declines). */
PyObject *sim_main(PyObject *args, const CoreSpec *spec);

/* The three cores' entry points, and the synchronous per-node round
 * (_pncore.c), which uses none of the simulator half. */
PyObject *sl_run(PyObject *module, PyObject *args);
PyObject *ml_run(PyObject *module, PyObject *args);
PyObject *cl_run(PyObject *module, PyObject *args);
PyObject *pn_round(PyObject *module, PyObject *args);
extern const char sl_run_doc[];
extern const char ml_run_doc[];
extern const char cl_run_doc[];
extern const char pn_round_doc[];

#endif
