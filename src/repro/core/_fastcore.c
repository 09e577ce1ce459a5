/* The compiled-core extension module, the simulator half and the
 * helpers the cores share.
 *
 * run() is the single-leader core (_slcore.c), run_multileader() the
 * multi-leader consensus one (_mlcore.c) and run_clustering() the
 * clustering phase's (_clcore.c); each is sim_main over its CoreSpec.
 * pernode_round() (_pncore.c) is the synchronous per-node round, a
 * plain pass over numpy buffers that shares none of the rest.
 * Everything here but the fault seam's transform chain is off the event
 * loop's hot path: loading the simulator half (clock, queue, tally
 * stream, draw pools, tick counters, fault seam) into C and storing it
 * back, opening, refilling and storing draw pools, and the attribute
 * helpers the protocol halves load and store their state with.
 */
#include "_fastcore.h"

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

static int pool_open_attr(Pool *p, PyObject *obj, const char *name, int integer)
{
    PyObject *pool = PyObject_GetAttrString(obj, name);
    if (!pool)
        return -1;
    Py_DECREF(pool);
    return pool_open(p, pool, integer);
}

int pool_refill(Pool *p)
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
/* attributes                                                         */
/* ------------------------------------------------------------------ */

int get_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (!v)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

int get_int(PyObject *obj, const char *name, int *out)
{
    long long v;
    if (get_ll(obj, name, &v) < 0)
        return -1;
    *out = (int)v;
    return 0;
}

int get_double(PyObject *obj, const char *name, double *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (!v)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

int get_flag(PyObject *obj, const char *name, int *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (!v)
        return -1;
    *out = PyObject_IsTrue(v);
    Py_DECREF(v);
    return *out < 0 ? -1 : 0;
}

int set_obj(PyObject *obj, const char *name, PyObject *value)
{
    if (!value)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, value);
    Py_DECREF(value);
    return rc;
}

int set_ll(PyObject *obj, const char *name, long long v)
{
    return set_obj(obj, name, PyLong_FromLongLong(v));
}

int set_flag(PyObject *obj, const char *name, int v)
{
    return set_obj(obj, name, PyBool_FromLong(v));
}

PyObject *get_list(PyObject *obj, const char *name, Py_ssize_t n, int *ok)
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

int load_ints(PyObject *obj, const char *name, int n, int *out)
{
    int ok = 1;
    PyObject *list = get_list(obj, name, n, &ok);
    if (!list)
        return ok ? -1 : 0;
    int rc = 1;
    for (int i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (!PyLong_Check(item)) {
            rc = 0;
            break;
        }
        long v = PyLong_AsLong(item);
        if (v == -1 && PyErr_Occurred()) {
            rc = -1;
            break;
        }
        if (v < INT_MIN || v > INT_MAX) {
            rc = 0;
            break;
        }
        out[i] = (int)v;
    }
    Py_DECREF(list);
    return rc;
}

int load_lls(PyObject *obj, const char *name, int n, long long *out)
{
    int ok = 1;
    PyObject *list = get_list(obj, name, n, &ok);
    if (!list)
        return ok ? -1 : 0;
    int rc = 1;
    for (int i = 0; i < n; i++) {
        out[i] = PyLong_AsLongLong(PyList_GET_ITEM(list, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            rc = -1;
            break;
        }
    }
    Py_DECREF(list);
    return rc;
}

int load_flags(PyObject *obj, const char *name, int n, signed char *out)
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

int store_ints(PyObject *obj, const char *name, int n, const int *src)
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

int store_lls(PyObject *obj, const char *name, int n, const long long *src)
{
    PyObject *list = PyObject_GetAttrString(obj, name);
    if (!list)
        return -1;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLongLong(src[i]);
        if (!v || PyList_SetItem(list, i, v) < 0) {
            Py_DECREF(list);
            return -1;
        }
    }
    Py_DECREF(list);
    return 0;
}

int store_flags(PyObject *obj, const char *name, int n, const signed char *src)
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

int load_matrix(PyObject *obj, const char *name, int k, Py_ssize_t min_rows,
                long long **out, Py_ssize_t *rows)
{
    int ok = 1;
    PyObject *matrix = get_list(obj, name, -1, &ok);
    if (!matrix)
        return ok ? -1 : 0;
    *rows = PyList_GET_SIZE(matrix);
    int rc = 1;
    if (*rows <= min_rows) {
        Py_DECREF(matrix);
        return 0;
    }
    *out = calloc((size_t)*rows * k, sizeof(long long));
    if (!*out) {
        Py_DECREF(matrix);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t g = 0; g < *rows && rc == 1; g++) {
        PyObject *row = PyList_GET_ITEM(matrix, g);
        if (!PyList_Check(row) || PyList_GET_SIZE(row) != k) {
            rc = 0;
            break;
        }
        for (int j = 0; j < k; j++) {
            long long v = PyLong_AsLongLong(PyList_GET_ITEM(row, j));
            if (v == -1 && PyErr_Occurred()) {
                rc = -1;
                break;
            }
            (*out)[g * k + j] = v;
        }
    }
    Py_DECREF(matrix);
    return rc;
}

int store_matrix(PyObject *obj, const char *name, int k, Py_ssize_t rows, const long long *src)
{
    PyObject *matrix = PyObject_GetAttrString(obj, name);
    if (!matrix)
        return -1;
    for (Py_ssize_t g = 0; g < rows; g++) {
        PyObject *row = PyList_GET_ITEM(matrix, g);
        for (int j = 0; j < k; j++) {
            PyObject *v = PyLong_FromLongLong(src[g * k + j]);
            if (!v || PyList_SetItem(row, j, v) < 0) {
                Py_DECREF(matrix);
                return -1;
            }
        }
    }
    Py_DECREF(matrix);
    return 0;
}

PyObject *ll_list(const long long *src, int n)
{
    PyObject *list = PyList_New(n);
    if (!list)
        return NULL;
    for (int j = 0; j < n; j++) {
        PyObject *v = PyLong_FromLongLong(src[j]);
        if (!v) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, j, v);
    }
    return list;
}

int load_eps(PyObject *proto, EpsTarget *eps)
{
    PyObject *target = PyObject_GetAttrString(proto, "_eps_target");
    if (!target)
        return -1;
    eps->has = target != Py_None;
    eps->target = eps->has ? PyLong_AsLongLong(target) : 0;
    Py_DECREF(target);
    if (eps->target == -1 && PyErr_Occurred())
        return -1;
    CHECK(get_flag(proto, "_eps_stop", &eps->stop));
    PyObject *time = PyObject_GetAttrString(proto, "_eps_time");
    if (!time)
        return -1;
    eps->hit = time != Py_None;
    eps->time = eps->hit ? PyFloat_AsDouble(time) : 0.0;
    Py_DECREF(time);
    return PyErr_Occurred() ? -1 : 1;
}

int store_eps(PyObject *proto, const EpsTarget *eps)
{
    if (!eps->hit)
        return 0;
    return set_obj(proto, "_eps_time", PyFloat_FromDouble(eps->time));
}

int int_arg(PyObject *v, int bound, int *out)
{
    if (!PyLong_Check(v))
        return 0;
    long x = PyLong_AsLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = (int)x;
    return x >= 0 && x < bound;
}

/* ------------------------------------------------------------------ */
/* the fault seam                                                     */
/* ------------------------------------------------------------------ */

int seam_transform(Seam *s, int node, double *delay)
{
    for (int i = 0; i < s->nfaults; i++) {
        Fault *f = &s->faults[i];
        double u;
        switch (f->kind) {
        case FAULT_IID:
            if (f->rate != 0.0) {
                if (pool_next(&f->pool, &u) < 0)
                    return -1;
                if (u < f->rate) {
                    f->dropped++;
                    return 0;
                }
            }
            break;
        case FAULT_BURSTY:
            if (pool_next(&f->pool, &u) < 0)
                return -1;
            if (f->bad) {
                if (u < f->to_good)
                    f->bad = 0;
            }
            else if (u < f->to_bad) {
                f->bad = 1;
                f->bursts++;
            }
            if (pool_next(&f->pool, &u) < 0)
                return -1;
            if (u < (f->bad ? f->drop_bad : f->drop_good)) {
                f->dropped++;
                return 0;
            }
            break;
        default:
            if (node >= 0 && f->slow[node])
                *delay = *delay * f->slowdown;
            break;
        }
    }
    return 1;
}

static int seam_load(Seam *s, PyObject *wiring, PyObject *kinds, int n)
{
    if (wiring == Py_None)
        return 1;
    s->wiring = wiring;
    CHECK(get_ll(wiring, "dropped_messages", &s->dropped_messages));
    CHECK(get_ll(wiring, "dropped_exchanges", &s->dropped_exchanges));
    int ok = 1;
    PyObject *faults = get_list(wiring, "faults", -1, &ok);
    if (!faults)
        return ok ? -1 : 0;
    Py_DECREF(faults); /* the wiring keeps it alive for the call */
    Py_ssize_t nfaults = PyList_GET_SIZE(faults);
    if (!PyTuple_Check(kinds) || PyTuple_GET_SIZE(kinds) != nfaults)
        return 0;
    s->nfaults = (int)nfaults;
    s->faults = calloc((size_t)nfaults + 1, sizeof(Fault));
    if (!s->faults) {
        PyErr_NoMemory();
        return -1;
    }
    for (int i = 0; i < s->nfaults; i++) {
        Fault *f = &s->faults[i];
        PyObject *obj = f->obj = PyList_GET_ITEM(faults, i);
        long kind = PyLong_AsLong(PyTuple_GET_ITEM(kinds, i));
        if (kind == -1 && PyErr_Occurred())
            return -1;
        f->kind = (int)kind;
        if (kind == FAULT_IID) {
            CHECK(get_double(obj, "rate", &f->rate));
            CHECK(get_ll(obj, "dropped", &f->dropped));
            LOAD(pool_open_attr(&f->pool, obj, "_pool", 0));
        }
        else if (kind == FAULT_BURSTY) {
            CHECK(get_double(obj, "drop_good", &f->drop_good));
            CHECK(get_double(obj, "drop_bad", &f->drop_bad));
            CHECK(get_double(obj, "to_bad", &f->to_bad));
            CHECK(get_double(obj, "to_good", &f->to_good));
            CHECK(get_flag(obj, "bad", &f->bad));
            CHECK(get_ll(obj, "dropped", &f->dropped));
            CHECK(get_ll(obj, "bursts", &f->bursts));
            LOAD(pool_open_attr(&f->pool, obj, "_pool", 0));
        }
        else if (kind == FAULT_STRAGGLERS) {
            CHECK(get_double(obj, "slowdown", &f->slowdown));
            f->slow = malloc((size_t)n);
            if (!f->slow) {
                PyErr_NoMemory();
                return -1;
            }
            LOAD(load_flags(obj, "_slow", n, f->slow));
        }
        else {
            return 0;
        }
    }
    return 1;
}

static int seam_store(Seam *s)
{
    if (!s->wiring)
        return 0;
    CHECK(set_ll(s->wiring, "dropped_messages", s->dropped_messages));
    CHECK(set_ll(s->wiring, "dropped_exchanges", s->dropped_exchanges));
    for (int i = 0; i < s->nfaults; i++) {
        Fault *f = &s->faults[i];
        if (f->kind == FAULT_STRAGGLERS)
            continue;
        CHECK(set_ll(f->obj, "dropped", f->dropped));
        if (f->kind == FAULT_BURSTY) {
            CHECK(set_flag(f->obj, "bad", f->bad));
            CHECK(set_ll(f->obj, "bursts", f->bursts));
        }
        CHECK(pool_store(&f->pool));
    }
    return 0;
}

static void seam_free(Seam *s)
{
    for (int i = 0; s->faults && i < s->nfaults; i++) {
        free(s->faults[i].slow);
        pool_free(&s->faults[i].pool);
    }
    free(s->faults);
}

/* ------------------------------------------------------------------ */
/* the simulator half                                                 */
/* ------------------------------------------------------------------ */

int sim_tick_block(Sim *s, int node, int w, const double *waits, double *ticks)
{
    double now = s->now, total = 0.0;
    for (int j = 0; j < w; j++) {
        total += waits[j];
        ticks[j] = total + now;
    }
    CHECK(schedule(s, now + waits[0], EV_TICK, node, 0, 0, 0));
    /* With a fault seam, FaultInjection._schedule_many_at files each
     * time t of the block as now + (t - now).  That is t again, so t is
     * filed as it is.  Write +' and -' for the rounded operations: t =
     * now +' s with now >= 0 and s >= 0 (the running sum), and then
     * now +' (t -' now) = t.  If s <= now, Fast2Sum makes t -' now exact.
     * If s > now, t - now lies in t's binade or the one below, so t -'
     * now is off by at most half an ulp of t, and so is the sum from t.
     * A tie there needs now to be an odd multiple of half that ulp; then
     * now + s was a tie as well, t is the even neighbour, and the tie
     * rounds to t again.  test_fault_block_seam.py checks the identity,
     * tie cases included. */
    for (int j = 1; j < w; j++)
        CHECK(schedule(s, ticks[j], EV_TICK, node, 0, 0, 0));
    s->flushes++;
    s->flushed_events += w - 1;
    return 0;
}

/* Which handler an event's bound method is, or -1. */
static int handler_kind(const Sim *s, PyObject *action)
{
    if (!PyMethod_Check(action) || PyMethod_GET_SELF(action) != s->proto)
        return -1;
    PyObject *f = PyMethod_GET_FUNCTION(action);
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(s->funcs) && i < (1 << KIND_BITS); i++) {
        if (f == PyTuple_GET_ITEM(s->funcs, i))
            return (int)i;
    }
    return -1;
}

/* EventQueue._heap and _next_seq; 1 ok, 0 unsupported (a foreign
 * event, a cancellation), -1 error. */
static int load_queue(Sim *s, const CoreSpec *spec)
{
    PyObject *live = PyObject_GetAttrString(s->queue, "_live");
    if (!live)
        return -1;
    int plain = live == Py_None;
    Py_DECREF(live);
    if (!plain)
        return 0; /* a cancellation happened: tombstones are Python's */
    CHECK(get_ll(s->queue, "_next_seq", &s->next_seq));
    if (s->next_seq < 0 || s->next_seq > MAX_SEQ / 2)
        return 0;
    int ok = 1;
    PyObject *entries = get_list(s->queue, "_heap", -1, &ok);
    if (!entries)
        return ok ? -1 : 0;
    int rc = 1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(entries) && rc == 1; i++) {
        PyObject *entry = PyList_GET_ITEM(entries, i);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4) {
            rc = 0;
            break;
        }
        Event e = {0.0, 0, 0, 0, 0, 0};
        e.time = PyFloat_AsDouble(PyTuple_GET_ITEM(entry, 0));
        long long seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
        if (PyErr_Occurred()) {
            rc = -1;
            break;
        }
        int kind = handler_kind(s, PyTuple_GET_ITEM(entry, 2));
        if (kind < 0 || seq < 0 || seq > MAX_SEQ) {
            rc = 0;
            break;
        }
        e.key = seq << KIND_BITS | kind;
        rc = spec->parse(s, kind, PyTuple_GET_ITEM(entry, 3), &e);
        if (rc == 1 && ev_push(&s->heap, &e) < 0)
            rc = -1;
    }
    Py_DECREF(entries);
    return rc;
}

static int store_queue(Sim *s, const CoreSpec *spec)
{
    Py_ssize_t nfuncs = PyTuple_GET_SIZE(s->funcs);
    PyObject *methods = PyTuple_New(nfuncs);
    PyObject *list = NULL;
    int rc = -1;
    if (!methods)
        return -1;
    for (Py_ssize_t i = 0; i < nfuncs; i++) {
        PyObject *method = PyMethod_New(PyTuple_GET_ITEM(s->funcs, i), s->proto);
        if (!method)
            goto done;
        PyTuple_SET_ITEM(methods, i, method);
    }
    list = PyList_New(s->heap.len);
    if (!list)
        goto done;
    /* The C heap is ordered like the tuples, so it is a valid heapq. */
    for (Py_ssize_t i = 0; i < s->heap.len; i++) {
        const Event *e = &s->heap.v[i];
        PyObject *payload = spec->build(s, e);
        if (!payload)
            goto done;
        PyObject *entry = Py_BuildValue("(dLON)", e->time, ev_seq(e),
                                        PyTuple_GET_ITEM(methods, ev_kind(e)), payload);
        if (!entry)
            goto done;
        PyList_SET_ITEM(list, i, entry);
    }
    PyObject *entries = PyObject_GetAttrString(s->queue, "_heap");
    if (!entries)
        goto done;
    rc = PyList_SetSlice(entries, 0, PY_SSIZE_T_MAX, list);
    Py_DECREF(entries);
    if (rc == 0)
        rc = set_ll(s->queue, "_next_seq", s->next_seq);
done:
    Py_XDECREF(list);
    Py_DECREF(methods);
    return rc;
}

/* Simulator._tally, _tallied and the armed trigger, which must be the
 * core's own; a core without a trigger files no tally arrivals. */
static int load_tally(Sim *s)
{
    int ok = 1;
    PyObject *tally = get_list(s->sim, "_tally", -1, &ok);
    if (!tally)
        return ok ? -1 : 0;
    Py_ssize_t len = PyList_GET_SIZE(tally);
    if (!s->f_trigger) {
        Py_DECREF(tally);
        return len == 0;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        double t = PyFloat_AsDouble(PyList_GET_ITEM(tally, i));
        if ((t == -1.0 && PyErr_Occurred()) || tally_push(&s->tally, t) < 0) {
            Py_DECREF(tally);
            return -1;
        }
    }
    Py_DECREF(tally);
    CHECK(get_ll(s->sim, "_tallied", &s->tallied));
    CHECK(get_ll(s->sim, "_trigger_at", &s->trigger_at));
    PyObject *action = PyObject_GetAttrString(s->sim, "_trigger_action");
    if (!action)
        return -1;
    int known = action == Py_None
                    ? s->trigger_at == -1
                    : PyMethod_Check(action) && PyMethod_GET_SELF(action) == s->proto
                          && PyMethod_GET_FUNCTION(action) == s->f_trigger;
    Py_DECREF(action);
    return known;
}

/* Everything but the protocol's state; 1 ready, 0 unsupported, -1 error. */
static int sim_load(Sim *s, const CoreSpec *spec, PyObject *wiring, PyObject *kinds)
{
    s->sim = PyObject_GetAttrString(s->proto, "sim");
    if (!s->sim)
        return -1;
    s->queue = PyObject_GetAttrString(s->sim, "queue");
    if (!s->queue)
        return -1;
    CHECK(get_double(s->sim, "now", &s->now));
    LOAD(load_tally(s));
    CHECK(get_ll(s->queue, "flushes", &s->flushes));
    CHECK(get_ll(s->queue, "flushed_events", &s->flushed_events));
    LOAD(load_queue(s, spec));
    CHECK(get_ll(s->proto, "good_ticks", &s->good_ticks));
    CHECK(get_ll(s->proto, "total_ticks", &s->total_ticks));
    LOAD(pool_open_attr(&s->tick_wait, s->proto, "_tick_wait", 0));
    LOAD(pool_open_attr(&s->latency, s->proto, "_latency", 0));
    LOAD(pool_open_attr(&s->channel, s->proto, "_channel_delay", 0));
    PyObject *neighbors = PyObject_GetAttrString(s->proto, "_neighbors");
    if (!neighbors)
        return -1;
    Py_DECREF(neighbors); /* the protocol keeps it alive for the call */
    LOAD(pool_open_attr(&s->neighbor, neighbors, "_pool", 1));
    return seam_load(&s->seam, wiring, kinds, s->n);
}

static int store_tally(Sim *s)
{
    PyObject *list = PyList_New(s->tally.len);
    if (!list)
        return -1;
    for (Py_ssize_t i = 0; i < s->tally.len; i++) {
        PyObject *v = PyFloat_FromDouble(s->tally.v[i]);
        if (!v) {
            Py_DECREF(list);
            return -1;
        }
        PyList_SET_ITEM(list, i, v);
    }
    PyObject *tally = PyObject_GetAttrString(s->sim, "_tally");
    int rc = tally ? PyList_SetSlice(tally, 0, PY_SSIZE_T_MAX, list) : -1;
    Py_XDECREF(tally);
    Py_DECREF(list);
    CHECK(rc);
    PyObject *action = s->trigger_at != -1 ? PyMethod_New(s->f_trigger, s->proto)
                                           : Py_NewRef(Py_None);
    CHECK(set_obj(s->sim, "_trigger_action", action));
    CHECK(set_ll(s->sim, "_trigger_at", s->trigger_at));
    return set_ll(s->sim, "_tallied", s->tallied);
}

static int sim_store(Sim *s, const CoreSpec *spec)
{
    if (s->f_trigger)
        CHECK(store_tally(s));
    long long before;
    CHECK(get_ll(s->sim, "_events_executed", &before));
    CHECK(set_ll(s->sim, "_events_executed", before + s->executed));
    CHECK(set_obj(s->sim, "now", PyFloat_FromDouble(s->now)));
    CHECK(set_flag(s->sim, "_stop_requested", s->stop));
    CHECK(store_queue(s, spec));
    CHECK(set_ll(s->queue, "flushes", s->flushes));
    CHECK(set_ll(s->queue, "flushed_events", s->flushed_events));
    CHECK(set_ll(s->proto, "good_ticks", s->good_ticks));
    CHECK(set_ll(s->proto, "total_ticks", s->total_ticks));
    CHECK(pool_store(&s->tick_wait));
    CHECK(pool_store(&s->latency));
    CHECK(pool_store(&s->channel));
    CHECK(pool_store(&s->neighbor));
    return seam_store(&s->seam);
}

static void sim_free(Sim *s)
{
    free(s->heap.v);
    free(s->tally.v);
    pool_free(&s->tick_wait);
    pool_free(&s->latency);
    pool_free(&s->channel);
    pool_free(&s->neighbor);
    seam_free(&s->seam);
    Py_XDECREF(s->queue);
    Py_XDECREF(s->sim);
}

/* Write both halves back whatever the loop's outcome rc, keep the
 * loop's own error, and return True or NULL. */
static PyObject *finish_run(Sim *s, const CoreSpec *spec, int rc)
{
#if PY_VERSION_HEX >= 0x030C0000
    PyObject *exc = rc < 0 ? PyErr_GetRaisedException() : NULL;
#else
    PyObject *et = NULL, *ev = NULL, *tb = NULL;
    if (rc < 0)
        PyErr_Fetch(&et, &ev, &tb);
#endif
    int stored = spec->store(s);
    if (stored == 0)
        stored = sim_store(s, spec);
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

PyObject *sim_main(PyObject *args, const CoreSpec *spec)
{
    PyObject *proto, *funcs, *wiring, *kinds;
    double horizon;
    if (!PyArg_ParseTuple(args, "OdO!OO", &proto, &horizon, &PyTuple_Type, &funcs, &wiring,
                          &kinds))
        return NULL;
    if (PyTuple_GET_SIZE(funcs) != spec->nfuncs)
        return PyErr_Format(PyExc_TypeError, "funcs must hold %d handler functions",
                            spec->nfuncs);
    Sim *s = calloc(1, spec->size);
    if (!s)
        return PyErr_NoMemory();
    s->proto = proto;
    s->funcs = funcs;
    s->f_trigger = spec->has_trigger ? PyTuple_GET_ITEM(funcs, spec->nfuncs - 1) : NULL;
    s->trigger_at = -1;
    PyObject *result = NULL;
    int rc = spec->load(s);
    if (rc == 1)
        rc = sim_load(s, spec, wiring, kinds);
    if (rc == 1) {
        /* The heap never empties: every ticking node always holds a pending tick or cycle. */
        rc = spec->run(s, horizon);
        result = finish_run(s, spec, rc);
    }
    else if (rc == 0) {
        result = Py_NewRef(Py_False);
    }
    spec->release(s);
    sim_free(s);
    free(s);
    return result;
}

/* ------------------------------------------------------------------ */
/* the module                                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef fastcore_methods[] = {
    {"run", sl_run, METH_VARARGS, sl_run_doc},
    {"run_multileader", ml_run, METH_VARARGS, ml_run_doc},
    {"run_clustering", cl_run, METH_VARARGS, cl_run_doc},
    {"pernode_round", pn_round, METH_VARARGS, pn_round_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT,
    "_fastcore",
    "Compiled hot paths of SingleLeaderSim, MultiLeaderConsensusSim and "
    "ClusteringSim on K_n, and of the per-node synchronous round (see "
    "repro.core.fastcore).",
    -1,
    fastcore_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__fastcore(void)
{
    return PyModule_Create(&fastcore_module);
}
