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
#include "_fastcore.h"

/* The events, numbered like their handlers in run()'s funcs:
 * tick(a), exchange((a, b, c)) and leader_signal(a). */
enum { EV_TICK, EV_EXCHANGE, EV_SIGNAL };

typedef struct {
    double *v;
    Py_ssize_t len, cap;
} TallyHeap;

typedef struct {
    PyObject *proto, *sim, *queue, *leader;
    PyObject *funcs, *f_trigger;
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
    EpsTarget eps;
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
/* the tally stream                                                   */
/* ------------------------------------------------------------------ */

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
/* handlers (SingleLeaderSim, skip-tick mode)                         */
/* ------------------------------------------------------------------ */

static inline int schedule(Core *c, double time, int kind, int a, int b, int d)
{
    Event e = {time, c->next_seq++ << KIND_BITS | kind, a, b, d, 0};
    return ev_push(&c->heap, &e);
}

static int phase_change(Core *c, PyObject *kind, int with_row)
{
    PyObject *row = with_row ? ll_list(c->matrix + c->lgen * c->k, c->k) : Py_NewRef(Py_None);
    if (!row)
        return -1;
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
        if (c->eps.has && !c->eps.hit && col == c->plurality && count >= c->eps.target) {
            c->eps.hit = 1;
            c->eps.time = c->now;
            if (c->eps.stop)
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
            switch (ev_kind(&e)) {
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

static int load_payload(void *core, int kind, PyObject *payload, Event *e)
{
    Core *c = core;
    if (kind == EV_TICK)
        return int_arg(payload, c->n, &e->a);
    if (kind == EV_SIGNAL)
        return int_arg(payload, INT_MAX, &e->a);
    if (kind != EV_EXCHANGE || !PyTuple_Check(payload) || PyTuple_GET_SIZE(payload) != 3)
        return 0;
    int rc = int_arg(PyTuple_GET_ITEM(payload, 0), c->n, &e->a);
    if (rc == 1)
        rc = int_arg(PyTuple_GET_ITEM(payload, 1), c->n, &e->b);
    if (rc == 1)
        rc = int_arg(PyTuple_GET_ITEM(payload, 2), c->n, &e->c);
    return rc;
}

static PyObject *build_payload(void *core, const Event *e)
{
    (void)core;
    return ev_kind(e) == EV_EXCHANGE ? Py_BuildValue("(iii)", e->a, e->b, e->c)
                                  : PyLong_FromLong(e->a);
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

static int load_pools(Core *c)
{
    LOAD(pool_open_attr(&c->tick_wait, c->proto, "_tick_wait", 0));
    LOAD(pool_open_attr(&c->latency, c->proto, "_latency", 0));
    LOAD(pool_open_attr(&c->channel, c->proto, "_channel_delay", 0));
    PyObject *neighbors = PyObject_GetAttrString(c->proto, "_neighbors");
    if (!neighbors)
        return -1;
    Py_DECREF(neighbors); /* the protocol keeps it alive for the call */
    return pool_open_attr(&c->neighbor, neighbors, "_pool", 1);
}

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
    LOAD(load_matrix(c->proto, "_matrix", c->k, c->max_gen, &c->matrix, &c->rows));
    LOAD(load_lls(c->proto, "_color_counts", c->k, c->counts));
    for (int i = 0; i < c->n; i++) {
        if (c->cols[i] < 0 || c->cols[i] >= c->k || c->gens[i] < 0 || c->gens[i] >= c->rows)
            return 0;
    }
    LOAD(load_eps(c->proto, &c->eps));
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
    LOAD(load_queue(c->queue, c->proto, c->funcs, &c->heap, &c->next_seq, load_payload, c));
    LOAD(load_tally(c));
    return load_pools(c);
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
    CHECK(store_clock(c->sim, c->now, c->executed, c->stop));
    return store_queue(c->queue, c->proto, c->funcs, &c->heap, c->next_seq, build_payload, c);
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
    CHECK(store_matrix(c->proto, "_matrix", c->k, c->rows, c->matrix));
    CHECK(store_lls(c->proto, "_color_counts", c->k, c->counts));
    CHECK(set_ll(c->proto, "good_ticks", c->good));
    CHECK(set_ll(c->proto, "total_ticks", c->total));
    CHECK(set_ll(c->proto, "skipped_ticks", c->skipped));
    CHECK(set_ll(c->proto, "refills", c->refills));
    CHECK(set_ll(c->proto, "_tally_base", c->tally_base));
    CHECK(store_eps(c->proto, &c->eps));
    CHECK(set_ll(c->leader, "gen", c->lgen));
    CHECK(set_flag(c->leader, "prop", c->lprop));
    CHECK(set_ll(c->leader, "gen_size", c->gen_size));
    CHECK(set_ll(c->leader, "gen_signals", c->gen_signals));
    return 0;
}

static int core_store(void *core)
{
    Core *c = core;
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

const char sl_run_doc[] =
"run(proto, horizon, funcs) -> bool\n\n"
"Run an eligible SingleLeaderSim's event loop up to ``horizon``, as\n"
"``proto.sim.run(until=horizon)`` would, and write the state back.\n"
"``funcs`` is ``(_tick, _exchange, _leader_signal, _propagation_trigger)``\n"
"of SingleLeaderSim.  Returns False, having changed nothing, when the\n"
"protocol's state is not one the core models.";

PyObject *sl_run(PyObject *module, PyObject *args)
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
    if (!str_generation) {
        str_generation = PyUnicode_InternFromString("generation");
        str_propagation = PyUnicode_InternFromString("propagation");
        if (!str_generation || !str_propagation)
            return NULL;
    }
    Core c;
    memset(&c, 0, sizeof c);
    c.proto = proto;
    c.funcs = funcs;
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
    PyObject *result = finish_run(rc, core_store, &c);
    core_free(&c);
    return result;
}
