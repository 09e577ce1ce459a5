/* Compiled single-leader core: SingleLeaderSim.run on K_n, in C.
 *
 * One call, run(proto, horizon, funcs), replaces
 * proto.sim.run(until=horizon) for an eligible SingleLeaderSim (see
 * repro.core.fastcore and SingleLeaderSim._core_eligible).  It loads
 * the protocol's state out of the Python objects, runs the unpolled
 * event loop (Simulator._run_free) with the single-leader handlers
 * inlined, and writes every piece of state back, so the Python engine
 * can inspect the result or continue the run exactly.
 *
 * Byte identity with the Python engine rests on four rules:
 *
 *   - Events pop in (time, seq) order and tally arrivals in time
 *     order, with the event first at equal times, exactly as in
 *     Simulator._run_free (nextafter horizon, trigger stop, stop()
 *     after the current event).
 *   - The core never draws randomness itself.  When a pool block runs
 *     out it calls that pool's _refill_array() and reads the new block
 *     through the buffer protocol, following DrawPool.__call__ and
 *     DrawPool.take, so the generator is consumed in the same order.
 *   - The handlers repeat the Python arithmetic operation for
 *     operation in IEEE double (build with -ffp-contract=off).
 *   - Leader transitions call back into Python
 *     (proto._core_phase_change), which records the same
 *     LeaderPhaseChange and GenerationBirth the Python engine would.
 *
 * A state the core does not model (a foreign event or trigger, a
 * cancelled event, a chain longer than one window) makes run() return
 * False before anything is consumed; the caller then runs Python.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Deliveries between two PyErr_CheckSignals() calls. */
#define SIGNAL_CHECK_EVERY 4096

enum { EV_TICK, EV_EXCHANGE, EV_SIGNAL };

/* One scheduled event: tick(a), exchange((a, b, c)) or leader_signal(a). */
typedef struct {
    double time;
    long long seq;
    int kind;
    int a, b, c;
} Event;

typedef struct {
    Event *v;
    Py_ssize_t len, cap;
} EventHeap;

typedef struct {
    double *v;
    Py_ssize_t len, cap;
} TallyHeap;

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

typedef struct {
    PyObject *proto, *sim, *queue, *leader;
    PyObject *f_tick, *f_exchange, *f_signal, *f_trigger;
    int n, k, window, plurality;
    Py_ssize_t rows;
    /* per-node state */
    int *cols, *gens, *seen_gen, *seen_prop;
    signed char *locked, *pending;
    double *chain;     /* window entries per node */
    int *clen, *cptr;  /* entries in the node's window, next unconsumed */
    long long *matrix, *counts;
    double *waits, *lats;
    /* protocol counters */
    long long good, total, skipped, refills;
    /* leader */
    long long lgen, gen_size, gen_signals, max_gen, gen_thr, prop_thr, tally_base;
    int lprop;
    /* epsilon target */
    int has_eps, eps_stop, eps_hit;
    long long eps_target;
    double eps_time;
    /* simulator */
    double now;
    long long tallied, trigger_at, next_seq, executed;
    int stop;
    EventHeap heap;
    TallyHeap tally;
    Pool tick_wait, latency, channel, neighbor;
} Core;

static PyObject *str_generation, *str_propagation;

/* ------------------------------------------------------------------ */
/* heaps                                                              */
/* ------------------------------------------------------------------ */

static inline int ev_less(const Event *x, const Event *y)
{
    return x->time < y->time || (x->time == y->time && x->seq < y->seq);
}

static int ev_push(EventHeap *h, const Event *e)
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

static void ev_pop(EventHeap *h)
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

static int tally_push(TallyHeap *h, double t)
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

static void tally_pop(TallyHeap *h)
{
    double last = h->v[--h->len];
    Py_ssize_t n = h->len, i = 0;
    if (!n)
        return;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && h->v[child + 1] < h->v[child])
            child++;
        if (!(h->v[child] < last))
            break;
        h->v[i] = h->v[child];
        i = child;
    }
    h->v[i] = last;
}

/* ------------------------------------------------------------------ */
/* draw pools                                                         */
/* ------------------------------------------------------------------ */

static void pool_release(Pool *p)
{
    if (p->has_view) {
        PyBuffer_Release(&p->view);
        p->has_view = 0;
    }
}

/* Map the current block; 1 = ok, 0 = not an 8-byte block of the
 * expected kind. */
static int pool_view(Pool *p)
{
    if (PyObject_GetBuffer(p->arr, &p->view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    p->has_view = 1;
    const char *fmt = p->view.format ? p->view.format : "B";
    while (*fmt == '@' || *fmt == '=' || *fmt == '<')
        fmt++;
    int ok = p->view.itemsize == 8 && fmt[1] == '\0'
             && (p->integer ? (fmt[0] == 'l' || fmt[0] == 'q') : fmt[0] == 'd');
    p->len = ok ? p->view.len / 8 : 0;
    return ok;
}

/* Take the pool's block and position; 1 = ok, 0 = unsupported. */
static int pool_open(Pool *p, PyObject *obj, int integer)
{
    p->obj = obj;
    p->integer = integer;
    PyObject *pos = PyObject_GetAttrString(obj, "_pos");
    if (!pos)
        return -1;
    p->pos = PyLong_AsSsize_t(pos);
    Py_DECREF(pos);
    if (p->pos == -1 && PyErr_Occurred())
        return -1;
    PyObject *buf = PyObject_GetAttrString(obj, "_buf");
    if (!buf)
        return -1;
    Py_ssize_t blen = PyObject_Length(buf);
    Py_DECREF(buf);
    if (blen < 0)
        return -1;
    PyObject *arr = PyObject_GetAttrString(obj, "_arr");
    if (!arr)
        return -1;
    if (arr == Py_None) {
        Py_DECREF(arr);
        p->len = 0;
        return blen == 0 && p->pos == 0;
    }
    p->arr = arr;
    int ok = pool_view(p);
    if (ok <= 0)
        return ok;
    return p->len == blen && p->pos >= 0 && p->pos <= p->len;
}

static int pool_refill(Pool *p)
{
    PyObject *arr = PyObject_CallMethod(p->obj, "_refill_array", NULL);
    if (!arr)
        return -1;
    pool_release(p);
    Py_XDECREF(p->arr);
    p->arr = arr;
    p->fresh = 1;
    p->pos = 0;
    int ok = pool_view(p);
    if (ok < 0)
        return -1;
    if (!ok || p->len == 0) {
        PyErr_SetString(PyExc_RuntimeError, "draw pool refilled an unexpected block");
        return -1;
    }
    return 0;
}

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
static int pool_take(Pool *p, int count, double *out)
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

/* Hand the block and position back (a refilled block as _arr/_buf). */
static int pool_store(Pool *p)
{
    if (!p->obj)
        return 0;
    if (p->fresh) {
        PyObject *list = PyObject_CallMethod(p->arr, "tolist", NULL);
        if (!list)
            return -1;
        int rc = PyObject_SetAttrString(p->obj, "_arr", p->arr);
        if (rc == 0)
            rc = PyObject_SetAttrString(p->obj, "_buf", list);
        Py_DECREF(list);
        if (rc < 0)
            return -1;
    }
    PyObject *pos = PyLong_FromSsize_t(p->pos);
    if (!pos)
        return -1;
    int rc = PyObject_SetAttrString(p->obj, "_pos", pos);
    Py_DECREF(pos);
    return rc;
}

static void pool_free(Pool *p)
{
    pool_release(p);
    Py_CLEAR(p->arr);
}

/* ------------------------------------------------------------------ */
/* handlers (SingleLeaderSim, skip-tick mode)                         */
/* ------------------------------------------------------------------ */

static inline int schedule(Core *c, double time, int kind, int a, int b, int d)
{
    Event e = {time, c->next_seq++, kind, a, b, d};
    return ev_push(&c->heap, &e);
}

static int phase_change(Core *c, PyObject *kind, int with_row)
{
    PyObject *row = Py_None;
    Py_INCREF(row);
    if (with_row) {
        Py_DECREF(row);
        row = PyList_New(c->k);
        if (!row)
            return -1;
        const long long *src = c->matrix + c->lgen * c->k;
        for (int j = 0; j < c->k; j++) {
            PyObject *v = PyLong_FromLongLong(src[j]);
            if (!v) {
                Py_DECREF(row);
                return -1;
            }
            PyList_SET_ITEM(row, j, v);
        }
    }
    PyObject *res = PyObject_CallMethod(c->proto, "_core_phase_change", "OdLO",
                                        kind, c->now, c->lgen, row);
    Py_DECREF(row);
    if (!res)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* _extend_chain */
static int extend_chain(Core *c, int node)
{
    int w = c->window;
    c->refills++;
    if (pool_take(&c->tick_wait, w, c->waits) < 0 || pool_take(&c->latency, w, c->lats) < 0)
        return -1;
    double *chain = c->chain + (size_t)node * w;
    double t = chain[c->clen[node] - 1];
    double now = c->now;
    for (int j = 0; j < w; j++) {
        t += c->waits[j];
        chain[j] = t;
        double arrival = t + c->lats[j];
        if (tally_push(&c->tally, arrival > now ? arrival : now) < 0)
            return -1;
    }
    c->clen[node] = w;
    c->cptr[node] = 0;
    return 0;
}

/* _set_state */
static void set_state(Core *c, int node, int gen, int col)
{
    int old_gen = c->gens[node], old_col = c->cols[node];
    c->matrix[(Py_ssize_t)old_gen * c->k + old_col] -= 1;
    c->matrix[(Py_ssize_t)gen * c->k + col] += 1;
    if (col != old_col) {
        c->counts[old_col] -= 1;
        long long count = ++c->counts[col];
        if (c->has_eps && !c->eps_hit && col == c->plurality && count >= c->eps_target) {
            c->eps_hit = 1;
            c->eps_time = c->now;
            if (c->eps_stop)
                c->stop = 1;
        }
        if (count == c->n)
            c->stop = 1;
    }
    c->gens[node] = gen;
    c->cols[node] = col;
}

/* _send_signal */
static inline int send_signal(Core *c, int gen)
{
    double delay;
    if (pool_next(&c->latency, &delay) < 0)
        return -1;
    return schedule(c, c->now + delay, EV_SIGNAL, gen, 0, 0);
}

/* _tick */
static int tick(Core *c, int node)
{
    c->total++;
    if (++c->cptr[node] >= c->clen[node] && extend_chain(c, node) < 0)
        return -1;
    c->pending[node] = 0;
    if (c->locked[node])
        return 0;
    c->locked[node] = 1;
    c->good++;
    long long first, second;
    double delay;
    if (pool_next_int(&c->neighbor, &first) < 0)
        return -1;
    if (first >= node)
        first++;
    if (pool_next_int(&c->neighbor, &second) < 0)
        return -1;
    if (second >= node)
        second++;
    if (pool_next(&c->channel, &delay) < 0)
        return -1;
    return schedule(c, c->now + delay, EV_EXCHANGE, node, (int)first, (int)second);
}

/* _unlock */
static int unlock(Core *c, int node)
{
    c->locked[node] = 0;
    const double *chain = c->chain + (size_t)node * c->window;
    int ptr = c->cptr[node];
    long long skipped = 0;
    for (;;) {
        if (ptr >= c->clen[node]) {
            c->cptr[node] = ptr;
            if (extend_chain(c, node) < 0)
                return -1;
            ptr = c->cptr[node];
        }
        if (chain[ptr] > c->now)
            break;
        ptr++;
        skipped++;
    }
    c->cptr[node] = ptr;
    c->total += skipped;
    c->skipped += skipped;
    if (!c->pending[node]) {
        c->pending[node] = 1;
        return schedule(c, chain[ptr], EV_TICK, node, 0, 0);
    }
    return 0;
}

/* _exchange */
static int exchange(Core *c, int node, int first, int second)
{
    int leader_gen = (int)c->lgen, leader_prop = c->lprop;
    if (c->seen_gen[node] == leader_gen && c->seen_prop[node] == leader_prop) {
        int gen_a = c->gens[first], col_a = c->cols[first];
        int gen_b = c->gens[second], col_b = c->cols[second];
        int old_gen = c->gens[node];
        if (!leader_prop && gen_a == leader_gen - 1 && gen_b == leader_gen - 1
            && col_a == col_b) {
            set_state(c, node, leader_gen, col_a);
            if (leader_gen > old_gen && send_signal(c, leader_gen) < 0)
                return -1;
        }
        else {
            int cand_gen = -1, cand_col = -1;
            if (old_gen < gen_a && (gen_a < leader_gen || leader_prop) && gen_a > cand_gen) {
                cand_gen = gen_a;
                cand_col = col_a;
            }
            if (old_gen < gen_b && (gen_b < leader_gen || leader_prop) && gen_b > cand_gen) {
                cand_gen = gen_b;
                cand_col = col_b;
            }
            if (cand_gen >= 0) {
                set_state(c, node, cand_gen, cand_col);
                if (send_signal(c, cand_gen) < 0)
                    return -1;
            }
        }
    }
    else {
        c->seen_gen[node] = leader_gen;
        c->seen_prop[node] = leader_prop;
    }
    return unlock(c, node);
}

/* _leader_signal through Leader.on_signal's generation rule */
static int leader_signal(Core *c, int gen)
{
    if (gen != c->lgen)
        return 0;
    c->gen_signals++;
    c->gen_size++;
    if (c->gen_size >= c->gen_thr && c->lgen < c->max_gen) {
        c->lgen++;
        c->gen_size = 0;
        c->lprop = 0;
        /* A birth restarts the leader's 0-signal count. */
        c->tally_base = c->tallied;
        c->trigger_at = c->tally_base + c->prop_thr;
        return phase_change(c, str_generation, 0);
    }
    return 0;
}

/* Simulator._fire_trigger -> _propagation_trigger */
static int fire_trigger(Core *c)
{
    c->trigger_at = -1;
    if (c->lprop)
        return 0;
    c->lprop = 1;
    return phase_change(c, str_propagation, 1);
}

/* Simulator._run_free */
static int run_loop(Core *c, double horizon)
{
    double past = nextafter(horizon, INFINITY);
    long long budget = SIGNAL_CHECK_EVERY;
    for (;;) {
        double due;
        if (c->heap.len)
            due = c->heap.v[0].time;
        else if (c->tally.len)
            due = INFINITY;
        else
            return 0;
        if (c->tally.len && c->tally.v[0] < due) {
            double time = c->tally.v[0];
            if (time > horizon) {
                c->now = horizon;
                return 0;
            }
            double limit = due < past ? due : past;
            long long count = c->tallied, start = count, fire = c->trigger_at;
            for (;;) {
                tally_pop(&c->tally);
                count++;
                if (count == fire || !c->tally.len || c->tally.v[0] >= limit)
                    break;
                time = c->tally.v[0];
            }
            c->tallied = count;
            c->executed += count - start;
            budget -= count - start;
            c->now = time;
            if (count == fire) {
                if (fire_trigger(c) < 0)
                    return -1;
                if (c->stop)
                    return 0;
            }
        }
        else {
            if (due > horizon) {
                c->now = horizon;
                return 0;
            }
            Event e = c->heap.v[0];
            ev_pop(&c->heap);
            c->now = due;
            int rc;
            switch (e.kind) {
            case EV_TICK:
                rc = tick(c, e.a);
                break;
            case EV_EXCHANGE:
                rc = exchange(c, e.a, e.b, e.c);
                break;
            default:
                rc = leader_signal(c, e.a);
                break;
            }
            if (rc < 0)
                return -1;
            c->executed++;
            budget--;
            if (c->stop)
                return 0;
        }
        if (budget <= 0) {
            budget = SIGNAL_CHECK_EVERY;
            if (PyErr_CheckSignals() < 0)
                return -1;
        }
    }
}

/* ------------------------------------------------------------------ */
/* loading and storing the Python state                               */
/* ------------------------------------------------------------------ */

static int get_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (!v)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int get_int(PyObject *obj, const char *name, int *out)
{
    long long v;
    if (get_ll(obj, name, &v) < 0)
        return -1;
    *out = (int)v;
    return 0;
}

static int set_obj(PyObject *obj, const char *name, PyObject *value)
{
    if (!value)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, value);
    Py_DECREF(value);
    return rc;
}

static int set_ll(PyObject *obj, const char *name, long long v)
{
    return set_obj(obj, name, PyLong_FromLongLong(v));
}

/* A borrowed-then-owned list attribute of exactly n items, or NULL
 * (with *ok = 0 when it exists but has another shape). */
static PyObject *get_list(PyObject *obj, const char *name, Py_ssize_t n, int *ok)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (!v)
        return NULL;
    if (!PyList_Check(v) || (n >= 0 && PyList_GET_SIZE(v) != n)) {
        Py_DECREF(v);
        *ok = 0;
        return NULL;
    }
    return v;
}

/* Fill int array from a list attribute; 1 ok, 0 unsupported, -1 error. */
static int load_ints(PyObject *obj, const char *name, int n, int *out)
{
    int ok = 1;
    PyObject *list = get_list(obj, name, n, &ok);
    if (!list)
        return ok ? -1 : 0;
    for (int i = 0; i < n; i++) {
        long v = PyLong_AsLong(PyList_GET_ITEM(list, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(list);
            return -1;
        }
        out[i] = (int)v;
    }
    Py_DECREF(list);
    return 1;
}

static int load_flags(PyObject *obj, const char *name, int n, signed char *out)
{
    int ok = 1;
    PyObject *list = get_list(obj, name, n, &ok);
    if (!list)
        return ok ? -1 : 0;
    for (int i = 0; i < n; i++) {
        int v = PyObject_IsTrue(PyList_GET_ITEM(list, i));
        if (v < 0) {
            Py_DECREF(list);
            return -1;
        }
        out[i] = (signed char)v;
    }
    Py_DECREF(list);
    return 1;
}

/* Overwrite a list attribute's items in place (callers hold it). */
static int store_ints(PyObject *obj, const char *name, int n, const int *src)
{
    PyObject *list = PyObject_GetAttrString(obj, name);
    if (!list)
        return -1;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(src[i]);
        if (!v || PyList_SetItem(list, i, v) < 0) {
            Py_DECREF(list);
            return -1;
        }
    }
    Py_DECREF(list);
    return 0;
}

static int store_flags(PyObject *obj, const char *name, int n, const signed char *src)
{
    PyObject *list = PyObject_GetAttrString(obj, name);
    if (!list)
        return -1;
    for (int i = 0; i < n; i++) {
        PyObject *v = src[i] ? Py_True : Py_False;
        Py_INCREF(v);
        if (PyList_SetItem(list, i, v) < 0) {
            Py_DECREF(list);
            return -1;
        }
    }
    Py_DECREF(list);
    return 0;
}

/* Which handler an event's bound method is, or -1. */
static int event_kind(Core *c, PyObject *action)
{
    if (!PyMethod_Check(action) || PyMethod_GET_SELF(action) != c->proto)
        return -1;
    PyObject *f = PyMethod_GET_FUNCTION(action);
    if (f == c->f_tick)
        return EV_TICK;
    if (f == c->f_exchange)
        return EV_EXCHANGE;
    if (f == c->f_signal)
        return EV_SIGNAL;
    return -1;
}

static int node_arg(PyObject *v, int n, int *out)
{
    if (!PyLong_Check(v))
        return 0;
    long x = PyLong_AsLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int)x;
    return x >= 0 && x < n;
}

static int load_queue(Core *c)
{
    PyObject *live = PyObject_GetAttrString(c->queue, "_live");
    if (!live)
        return -1;
    int plain = live == Py_None;
    Py_DECREF(live);
    if (!plain)
        return 0; /* a cancellation happened: tombstones are Python's */
    if (get_ll(c->queue, "_next_seq", &c->next_seq) < 0)
        return -1;
    int ok = 1;
    PyObject *heap = get_list(c->queue, "_heap", -1, &ok);
    if (!heap)
        return ok ? -1 : 0;
    int rc = 1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(heap) && rc == 1; i++) {
        PyObject *entry = PyList_GET_ITEM(heap, i);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4) {
            rc = 0;
            break;
        }
        Event e = {0.0, 0, 0, 0, 0, 0};
        e.time = PyFloat_AsDouble(PyTuple_GET_ITEM(entry, 0));
        e.seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
        if (PyErr_Occurred()) {
            rc = -1;
            break;
        }
        e.kind = event_kind(c, PyTuple_GET_ITEM(entry, 2));
        PyObject *payload = PyTuple_GET_ITEM(entry, 3);
        if (e.kind == EV_TICK) {
            rc = node_arg(payload, c->n, &e.a);
        }
        else if (e.kind == EV_EXCHANGE) {
            if (!PyTuple_Check(payload) || PyTuple_GET_SIZE(payload) != 3) {
                rc = 0;
                break;
            }
            rc = node_arg(PyTuple_GET_ITEM(payload, 0), c->n, &e.a);
            if (rc == 1)
                rc = node_arg(PyTuple_GET_ITEM(payload, 1), c->n, &e.b);
            if (rc == 1)
                rc = node_arg(PyTuple_GET_ITEM(payload, 2), c->n, &e.c);
        }
        else if (e.kind == EV_SIGNAL) {
            rc = node_arg(payload, INT_MAX, &e.a);
        }
        else {
            rc = 0;
        }
        if (rc == 1 && ev_push(&c->heap, &e) < 0)
            rc = -1;
    }
    Py_DECREF(heap);
    return rc;
}

static int load_tally(Core *c)
{
    int ok = 1;
    PyObject *tally = get_list(c->sim, "_tally", -1, &ok);
    if (!tally)
        return ok ? -1 : 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(tally); i++) {
        double t = PyFloat_AsDouble(PyList_GET_ITEM(tally, i));
        if ((t == -1.0 && PyErr_Occurred()) || tally_push(&c->tally, t) < 0) {
            Py_DECREF(tally);
            return -1;
        }
    }
    Py_DECREF(tally);
    /* The armed trigger must be this protocol's propagation trigger. */
    if (get_ll(c->sim, "_tallied", &c->tallied) < 0
        || get_ll(c->sim, "_trigger_at", &c->trigger_at) < 0)
        return -1;
    PyObject *action = PyObject_GetAttrString(c->sim, "_trigger_action");
    if (!action)
        return -1;
    int known = action == Py_None
                    ? c->trigger_at == -1
                    : PyMethod_Check(action) && PyMethod_GET_SELF(action) == c->proto
                          && PyMethod_GET_FUNCTION(action) == c->f_trigger;
    Py_DECREF(action);
    return known;
}

static int load_chains(Core *c)
{
    int ok = 1, w = c->window;
    PyObject *chains = get_list(c->proto, "_chain", c->n, &ok);
    if (!chains)
        return ok ? -1 : 0;
    PyObject *cptrs = get_list(c->proto, "_cptr", c->n, &ok);
    if (!cptrs) {
        Py_DECREF(chains);
        return ok ? -1 : 0;
    }
    int rc = 1;
    for (int node = 0; node < c->n && rc == 1; node++) {
        PyObject *chain = PyList_GET_ITEM(chains, node);
        Py_ssize_t ptr = PyLong_AsSsize_t(PyList_GET_ITEM(cptrs, node));
        if (ptr == -1 && PyErr_Occurred()) {
            rc = -1;
            break;
        }
        if (!PyList_Check(chain) || PyList_GET_SIZE(chain) < 1 || ptr < 0
            || ptr > PyList_GET_SIZE(chain)) {
            rc = 0;
            break;
        }
        Py_ssize_t len = PyList_GET_SIZE(chain);
        /* Keep the unconsumed entries, or the newest one as the base. */
        Py_ssize_t from = ptr < len ? ptr : len - 1;
        if (len - from > w) {
            rc = 0;
            break;
        }
        double *dst = c->chain + (size_t)node * w;
        for (Py_ssize_t j = from; j < len; j++) {
            dst[j - from] = PyFloat_AsDouble(PyList_GET_ITEM(chain, j));
            if (dst[j - from] == -1.0 && PyErr_Occurred()) {
                rc = -1;
                break;
            }
        }
        c->clen[node] = (int)(len - from);
        c->cptr[node] = (int)(ptr - from);
    }
    Py_DECREF(chains);
    Py_DECREF(cptrs);
    return rc;
}

static int load_matrix(Core *c)
{
    int ok = 1;
    PyObject *matrix = get_list(c->proto, "_matrix", -1, &ok);
    if (!matrix)
        return ok ? -1 : 0;
    c->rows = PyList_GET_SIZE(matrix);
    int rc = 1;
    if (c->rows <= c->max_gen) {
        Py_DECREF(matrix);
        return 0;
    }
    c->matrix = calloc((size_t)c->rows * c->k, sizeof(long long));
    if (!c->matrix) {
        Py_DECREF(matrix);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t g = 0; g < c->rows && rc == 1; g++) {
        PyObject *row = PyList_GET_ITEM(matrix, g);
        if (!PyList_Check(row) || PyList_GET_SIZE(row) != c->k) {
            rc = 0;
            break;
        }
        for (int j = 0; j < c->k; j++) {
            long long v = PyLong_AsLongLong(PyList_GET_ITEM(row, j));
            if (v == -1 && PyErr_Occurred()) {
                rc = -1;
                break;
            }
            c->matrix[g * c->k + j] = v;
        }
    }
    Py_DECREF(matrix);
    if (rc != 1)
        return rc;
    PyObject *counts = get_list(c->proto, "_color_counts", c->k, &ok);
    if (!counts)
        return ok ? -1 : 0;
    for (int j = 0; j < c->k; j++) {
        c->counts[j] = PyLong_AsLongLong(PyList_GET_ITEM(counts, j));
        if (c->counts[j] == -1 && PyErr_Occurred()) {
            rc = -1;
            break;
        }
    }
    Py_DECREF(counts);
    return rc;
}

static int load_eps(Core *c)
{
    PyObject *target = PyObject_GetAttrString(c->proto, "_eps_target");
    if (!target)
        return -1;
    c->has_eps = target != Py_None;
    c->eps_target = c->has_eps ? PyLong_AsLongLong(target) : 0;
    Py_DECREF(target);
    if (c->eps_target == -1 && PyErr_Occurred())
        return -1;
    PyObject *stop = PyObject_GetAttrString(c->proto, "_eps_stop");
    if (!stop)
        return -1;
    c->eps_stop = PyObject_IsTrue(stop);
    Py_DECREF(stop);
    PyObject *time = PyObject_GetAttrString(c->proto, "_eps_time");
    if (!time)
        return -1;
    c->eps_hit = time != Py_None;
    c->eps_time = c->eps_hit ? PyFloat_AsDouble(time) : 0.0;
    Py_DECREF(time);
    return (c->eps_stop < 0 || PyErr_Occurred()) ? -1 : 1;
}

static int load_pools(Core *c)
{
    static const char *names[] = {"_tick_wait", "_latency", "_channel_delay"};
    Pool *pools[] = {&c->tick_wait, &c->latency, &c->channel};
    for (int i = 0; i < 3; i++) {
        PyObject *obj = PyObject_GetAttrString(c->proto, names[i]);
        if (!obj)
            return -1;
        Py_DECREF(obj); /* the protocol keeps it alive for the call */
        int rc = pool_open(pools[i], obj, 0);
        if (rc != 1)
            return rc;
    }
    PyObject *neighbors = PyObject_GetAttrString(c->proto, "_neighbors");
    if (!neighbors)
        return -1;
    PyObject *obj = PyObject_GetAttrString(neighbors, "_pool");
    Py_DECREF(neighbors);
    if (!obj)
        return -1;
    Py_DECREF(obj); /* kept alive by the neighbor sampler */
    return pool_open(&c->neighbor, obj, 1);
}

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

/* Load everything; 1 = ready, 0 = unsupported state, -1 = error. */
static int core_load(Core *c)
{
    PyObject *params;
    long long n, k;
    CHECK(get_ll(c->proto, "n", &n));
    CHECK(get_ll(c->proto, "k", &k));
    CHECK(get_int(c->proto, "_window", &c->window));
    CHECK(get_int(c->proto, "plurality", &c->plurality));
    if (n < 2 || n > INT_MAX / 2 || k < 1 || k > INT_MAX || c->window < 2)
        return 0;
    c->n = (int)n;
    c->k = (int)k;
    params = PyObject_GetAttrString(c->proto, "params");
    if (!params)
        return -1;
    int rc = get_ll(params, "prop_signal_threshold", &c->prop_thr);
    if (rc == 0)
        rc = get_ll(params, "gen_size_threshold", &c->gen_thr);
    if (rc == 0)
        rc = get_ll(params, "max_generation", &c->max_gen);
    Py_DECREF(params);
    CHECK(rc);

    size_t nn = (size_t)c->n;
    c->cols = malloc(nn * sizeof(int));
    c->gens = malloc(nn * sizeof(int));
    c->seen_gen = malloc(nn * sizeof(int));
    c->seen_prop = malloc(nn * sizeof(int));
    c->locked = malloc(nn);
    c->pending = malloc(nn);
    c->chain = malloc(nn * (size_t)c->window * sizeof(double));
    c->clen = malloc(nn * sizeof(int));
    c->cptr = malloc(nn * sizeof(int));
    c->counts = malloc((size_t)c->k * sizeof(long long));
    c->waits = malloc((size_t)c->window * sizeof(double));
    c->lats = malloc((size_t)c->window * sizeof(double));
    if (!c->cols || !c->gens || !c->seen_gen || !c->seen_prop || !c->locked || !c->pending
        || !c->chain || !c->clen || !c->cptr || !c->counts || !c->waits || !c->lats) {
        PyErr_NoMemory();
        return -1;
    }
    LOAD(load_ints(c->proto, "_cols", c->n, c->cols));
    LOAD(load_ints(c->proto, "_gens", c->n, c->gens));
    LOAD(load_ints(c->proto, "_seen_gen", c->n, c->seen_gen));
    LOAD(load_ints(c->proto, "_seen_prop", c->n, c->seen_prop));
    LOAD(load_flags(c->proto, "_locked", c->n, c->locked));
    LOAD(load_flags(c->proto, "_tick_pending", c->n, c->pending));
    LOAD(load_chains(c));
    LOAD(load_matrix(c));
    for (int i = 0; i < c->n; i++) {
        if (c->cols[i] < 0 || c->cols[i] >= c->k || c->gens[i] < 0 || c->gens[i] >= c->rows)
            return 0;
    }
    LOAD(load_eps(c));
    CHECK(get_ll(c->proto, "good_ticks", &c->good));
    CHECK(get_ll(c->proto, "total_ticks", &c->total));
    CHECK(get_ll(c->proto, "skipped_ticks", &c->skipped));
    CHECK(get_ll(c->proto, "refills", &c->refills));
    CHECK(get_ll(c->proto, "_tally_base", &c->tally_base));

    c->leader = PyObject_GetAttrString(c->proto, "leader");
    if (!c->leader)
        return -1;
    long long prop;
    CHECK(get_ll(c->leader, "gen", &c->lgen));
    CHECK(get_ll(c->leader, "prop", &prop));
    CHECK(get_ll(c->leader, "gen_size", &c->gen_size));
    CHECK(get_ll(c->leader, "gen_signals", &c->gen_signals));
    c->lprop = prop != 0;
    if (c->lgen < 0 || c->lgen >= c->rows)
        return 0;

    c->sim = PyObject_GetAttrString(c->proto, "sim");
    if (!c->sim)
        return -1;
    c->queue = PyObject_GetAttrString(c->sim, "queue");
    if (!c->queue)
        return -1;
    PyObject *now = PyObject_GetAttrString(c->sim, "now");
    if (!now)
        return -1;
    c->now = PyFloat_AsDouble(now);
    Py_DECREF(now);
    if (PyErr_Occurred())
        return -1;
    LOAD(load_queue(c));
    LOAD(load_tally(c));
    return load_pools(c);
}

static int store_queue(Core *c)
{
    PyObject *methods[3] = {PyMethod_New(c->f_tick, c->proto),
                            PyMethod_New(c->f_exchange, c->proto),
                            PyMethod_New(c->f_signal, c->proto)};
    PyObject *list = NULL;
    int rc = -1;
    if (!methods[0] || !methods[1] || !methods[2])
        goto done;
    list = PyList_New(c->heap.len);
    if (!list)
        goto done;
    /* The C heap is ordered like the tuples, so it is a valid heapq. */
    for (Py_ssize_t i = 0; i < c->heap.len; i++) {
        const Event *e = &c->heap.v[i];
        PyObject *payload = e->kind == EV_EXCHANGE ? Py_BuildValue("(iii)", e->a, e->b, e->c)
                                                   : PyLong_FromLong(e->a);
        if (!payload)
            goto done;
        PyObject *entry = Py_BuildValue("(dLON)", e->time, e->seq, methods[e->kind], payload);
        if (!entry)
            goto done;
        PyList_SET_ITEM(list, i, entry);
    }
    PyObject *heap = PyObject_GetAttrString(c->queue, "_heap");
    if (!heap)
        goto done;
    rc = PyList_SetSlice(heap, 0, PY_SSIZE_T_MAX, list);
    Py_DECREF(heap);
    if (rc == 0)
        rc = set_ll(c->queue, "_next_seq", c->next_seq);
done:
    Py_XDECREF(list);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(methods[i]);
    return rc;
}

static int store_sim(Core *c)
{
    PyObject *list = PyList_New(c->tally.len);
    if (!list)
        return -1;
    for (Py_ssize_t i = 0; i < c->tally.len; i++) {
        PyObject *v = PyFloat_FromDouble(c->tally.v[i]);
        if (!v) {
            Py_DECREF(list);
            return -1;
        }
        PyList_SET_ITEM(list, i, v);
    }
    PyObject *tally = PyObject_GetAttrString(c->sim, "_tally");
    int rc = tally ? PyList_SetSlice(tally, 0, PY_SSIZE_T_MAX, list) : -1;
    Py_XDECREF(tally);
    Py_DECREF(list);
    CHECK(rc);
    PyObject *action = Py_None;
    Py_INCREF(action);
    if (c->trigger_at != -1) {
        Py_DECREF(action);
        action = PyMethod_New(c->f_trigger, c->proto);
    }
    CHECK(set_obj(c->sim, "_trigger_action", action));
    CHECK(set_ll(c->sim, "_trigger_at", c->trigger_at));
    CHECK(set_ll(c->sim, "_tallied", c->tallied));
    long long executed;
    CHECK(get_ll(c->sim, "_events_executed", &executed));
    CHECK(set_ll(c->sim, "_events_executed", executed + c->executed));
    CHECK(set_obj(c->sim, "now", PyFloat_FromDouble(c->now)));
    PyObject *stop = c->stop ? Py_True : Py_False;
    Py_INCREF(stop);
    CHECK(set_obj(c->sim, "_stop_requested", stop));
    return store_queue(c);
}

static int store_proto(Core *c)
{
    CHECK(store_ints(c->proto, "_cols", c->n, c->cols));
    CHECK(store_ints(c->proto, "_gens", c->n, c->gens));
    CHECK(store_ints(c->proto, "_seen_gen", c->n, c->seen_gen));
    CHECK(store_ints(c->proto, "_seen_prop", c->n, c->seen_prop));
    CHECK(store_flags(c->proto, "_locked", c->n, c->locked));
    CHECK(store_flags(c->proto, "_tick_pending", c->n, c->pending));
    CHECK(store_ints(c->proto, "_cptr", c->n, c->cptr));
    PyObject *chains = PyObject_GetAttrString(c->proto, "_chain");
    if (!chains)
        return -1;
    for (int node = 0; node < c->n; node++) {
        const double *src = c->chain + (size_t)node * c->window;
        PyObject *chain = PyList_New(c->clen[node]);
        for (int j = 0; chain && j < c->clen[node]; j++) {
            PyObject *v = PyFloat_FromDouble(src[j]);
            if (!v)
                Py_CLEAR(chain);
            else
                PyList_SET_ITEM(chain, j, v);
        }
        if (!chain || PyList_SetItem(chains, node, chain) < 0) {
            Py_DECREF(chains);
            return -1;
        }
    }
    Py_DECREF(chains);
    PyObject *matrix = PyObject_GetAttrString(c->proto, "_matrix");
    if (!matrix)
        return -1;
    for (Py_ssize_t g = 0; g < c->rows; g++) {
        PyObject *row = PyList_GET_ITEM(matrix, g);
        for (int j = 0; j < c->k; j++) {
            PyObject *v = PyLong_FromLongLong(c->matrix[g * c->k + j]);
            if (!v || PyList_SetItem(row, j, v) < 0) {
                Py_DECREF(matrix);
                return -1;
            }
        }
    }
    Py_DECREF(matrix);
    PyObject *counts = PyObject_GetAttrString(c->proto, "_color_counts");
    if (!counts)
        return -1;
    for (int j = 0; j < c->k; j++) {
        PyObject *v = PyLong_FromLongLong(c->counts[j]);
        if (!v || PyList_SetItem(counts, j, v) < 0) {
            Py_DECREF(counts);
            return -1;
        }
    }
    Py_DECREF(counts);
    CHECK(set_ll(c->proto, "good_ticks", c->good));
    CHECK(set_ll(c->proto, "total_ticks", c->total));
    CHECK(set_ll(c->proto, "skipped_ticks", c->skipped));
    CHECK(set_ll(c->proto, "refills", c->refills));
    CHECK(set_ll(c->proto, "_tally_base", c->tally_base));
    if (c->eps_hit)
        CHECK(set_obj(c->proto, "_eps_time", PyFloat_FromDouble(c->eps_time)));
    CHECK(set_ll(c->leader, "gen", c->lgen));
    PyObject *prop = c->lprop ? Py_True : Py_False;
    Py_INCREF(prop);
    CHECK(set_obj(c->leader, "prop", prop));
    CHECK(set_ll(c->leader, "gen_size", c->gen_size));
    CHECK(set_ll(c->leader, "gen_signals", c->gen_signals));
    return 0;
}

static int core_store(Core *c)
{
    CHECK(store_proto(c));
    CHECK(store_sim(c));
    CHECK(pool_store(&c->tick_wait));
    CHECK(pool_store(&c->latency));
    CHECK(pool_store(&c->channel));
    return pool_store(&c->neighbor);
}

static void core_free(Core *c)
{
    free(c->cols);
    free(c->gens);
    free(c->seen_gen);
    free(c->seen_prop);
    free(c->locked);
    free(c->pending);
    free(c->chain);
    free(c->clen);
    free(c->cptr);
    free(c->matrix);
    free(c->counts);
    free(c->waits);
    free(c->lats);
    free(c->heap.v);
    free(c->tally.v);
    pool_free(&c->tick_wait);
    pool_free(&c->latency);
    pool_free(&c->channel);
    pool_free(&c->neighbor);
    Py_XDECREF(c->leader);
    Py_XDECREF(c->queue);
    Py_XDECREF(c->sim);
}

PyDoc_STRVAR(run_doc,
"run(proto, horizon, funcs) -> bool\n\n"
"Run an eligible SingleLeaderSim's event loop up to ``horizon``, as\n"
"``proto.sim.run(until=horizon)`` would, and write the state back.\n"
"``funcs`` is ``(_tick, _exchange, _leader_signal, _propagation_trigger)``\n"
"of SingleLeaderSim.  Returns False, having changed nothing, when the\n"
"protocol's state is not one the core models.");

static PyObject *slcore_run(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *proto, *funcs;
    double horizon;
    if (!PyArg_ParseTuple(args, "OdO!", &proto, &horizon, &PyTuple_Type, &funcs))
        return NULL;
    if (PyTuple_GET_SIZE(funcs) != 4) {
        PyErr_SetString(PyExc_TypeError, "funcs must hold four handler functions");
        return NULL;
    }
    Core c;
    memset(&c, 0, sizeof c);
    c.proto = proto;
    c.f_tick = PyTuple_GET_ITEM(funcs, 0);
    c.f_exchange = PyTuple_GET_ITEM(funcs, 1);
    c.f_signal = PyTuple_GET_ITEM(funcs, 2);
    c.f_trigger = PyTuple_GET_ITEM(funcs, 3);
    c.trigger_at = -1;
    int ready = core_load(&c);
    if (ready != 1) {
        core_free(&c);
        if (ready < 0)
            return NULL;
        Py_RETURN_FALSE;
    }
    int rc = run_loop(&c, horizon);
    /* Simulator.run: an exhausted schedule advances the clock to until. */
    if (rc == 0 && !c.heap.len && !c.tally.len && c.now < horizon)
        c.now = horizon;
#if PY_VERSION_HEX >= 0x030C0000
    PyObject *exc = rc < 0 ? PyErr_GetRaisedException() : NULL;
#else
    PyObject *et = NULL, *ev = NULL, *tb = NULL;
    if (rc < 0)
        PyErr_Fetch(&et, &ev, &tb);
#endif
    int stored = core_store(&c);
    core_free(&c);
    if (rc < 0) {
        /* The run's own error wins over a failed write-back. */
        if (stored < 0)
            PyErr_Clear();
#if PY_VERSION_HEX >= 0x030C0000
        PyErr_SetRaisedException(exc);
#else
        PyErr_Restore(et, ev, tb);
#endif
        return NULL;
    }
    if (stored < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyMethodDef slcore_methods[] = {
    {"run", slcore_run, METH_VARARGS, run_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef slcore_module = {
    PyModuleDef_HEAD_INIT,
    "_slcore",
    "Compiled hot path of SingleLeaderSim on K_n (see repro.core.fastcore).",
    -1,
    slcore_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__slcore(void)
{
    str_generation = PyUnicode_InternFromString("generation");
    str_propagation = PyUnicode_InternFromString("propagation");
    if (!str_generation || !str_propagation)
        return NULL;
    return PyModule_Create(&slcore_module);
}
