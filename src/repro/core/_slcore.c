/* Compiled single-leader core: SingleLeaderSim.run on K_n, in C.
 *
 * One call, run(proto, horizon, funcs, wiring, kinds), replaces
 * proto.sim.run(until=horizon) for an eligible SingleLeaderSim (see
 * repro.core.fastcore and SingleLeaderSim._core_eligible).  This file
 * is the protocol half: the per-node and leader state, the skip-tick
 * handlers, the propagation trigger on the tally stream, and the
 * payload codecs; _fastcore.h holds the simulator half it runs on.  The
 * single-leader core takes no fault seam: wiring is None.  Leader
 * transitions call back into Python (proto._core_phase_change), which
 * records the same LeaderPhaseChange and GenerationBirth the Python
 * engine would.
 *
 * A state the core does not model (a foreign event or trigger, a chain
 * longer than one window) makes run() return False before anything is
 * consumed; the caller then runs Python.
 */
#include "_fastcore.h"

/* The events, numbered like their handlers in run()'s funcs:
 * tick(a), exchange((a, b, c)) and leader_signal(a). */
enum { EV_EXCHANGE = EV_TICK + 1, EV_SIGNAL };

typedef struct {
    Sim s;
    PyObject *leader;
    int k, window, plurality;
    Py_ssize_t rows;
    /* per-node state */
    int *cols, *gens, *seen_gen, *seen_prop;
    signed char *locked, *pending;
    double *chain;     /* window entries per node */
    int *clen, *cptr;  /* entries in the node's window, next unconsumed */
    long long *matrix, *counts;
    double *waits, *lats;
    /* protocol counters */
    long long skipped, refills;
    /* leader */
    long long lgen, gen_size, gen_signals, max_gen, gen_thr, prop_thr, tally_base;
    int lprop;
    EpsTarget eps;
} SL;

/* ------------------------------------------------------------------ */
/* handlers (SingleLeaderSim, skip-tick mode)                         */
/* ------------------------------------------------------------------ */

static int phase_change(SL *c, const char *kind, int with_row)
{
    PyObject *row = with_row ? ll_list(c->matrix + c->lgen * c->k, c->k) : Py_NewRef(Py_None);
    if (!row)
        return -1;
    PyObject *res = PyObject_CallMethod(c->s.proto, "_core_phase_change", "sdLO",
                                        kind, c->s.now, c->lgen, row);
    Py_DECREF(row);
    if (!res)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* _extend_chain */
static int extend_chain(SL *c, int node)
{
    int w = c->window;
    c->refills++;
    if (pool_take(&c->s.tick_wait, w, c->waits) < 0 || pool_take(&c->s.latency, w, c->lats) < 0)
        return -1;
    double *chain = c->chain + (size_t)node * w;
    double t = chain[c->clen[node] - 1];
    double now = c->s.now;
    for (int j = 0; j < w; j++) {
        t += c->waits[j];
        chain[j] = t;
        double arrival = t + c->lats[j];
        if (tally_push(&c->s.tally, arrival > now ? arrival : now) < 0)
            return -1;
    }
    c->clen[node] = w;
    c->cptr[node] = 0;
    return 0;
}

/* _set_state */
static void set_state(SL *c, int node, int gen, int col)
{
    int old_gen = c->gens[node], old_col = c->cols[node];
    c->matrix[(Py_ssize_t)old_gen * c->k + old_col] -= 1;
    c->matrix[(Py_ssize_t)gen * c->k + col] += 1;
    if (col != old_col) {
        c->counts[old_col] -= 1;
        long long count = ++c->counts[col];
        if (c->eps.has && !c->eps.hit && col == c->plurality && count >= c->eps.target) {
            c->eps.hit = 1;
            c->eps.time = c->s.now;
            if (c->eps.stop)
                c->s.stop = 1;
        }
        if (count == c->s.n)
            c->s.stop = 1;
    }
    c->gens[node] = gen;
    c->cols[node] = col;
}

/* _send_signal */
static inline int send_signal(SL *c, int gen)
{
    double delay;
    if (pool_next(&c->s.latency, &delay) < 0)
        return -1;
    return schedule(&c->s, c->s.now + delay, EV_SIGNAL, gen, 0, 0, 0);
}

/* _tick */
static int tick(SL *c, int node)
{
    c->s.total_ticks++;
    if (++c->cptr[node] >= c->clen[node] && extend_chain(c, node) < 0)
        return -1;
    c->pending[node] = 0;
    if (c->locked[node])
        return 0;
    c->locked[node] = 1;
    c->s.good_ticks++;
    long long first, second;
    double delay;
    if (pool_next_int(&c->s.neighbor, &first) < 0)
        return -1;
    if (first >= node)
        first++;
    if (pool_next_int(&c->s.neighbor, &second) < 0)
        return -1;
    if (second >= node)
        second++;
    if (pool_next(&c->s.channel, &delay) < 0)
        return -1;
    return schedule(&c->s, c->s.now + delay, EV_EXCHANGE, node, (int)first, (int)second, 0);
}

/* _unlock */
static int unlock(SL *c, int node)
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
        if (chain[ptr] > c->s.now)
            break;
        ptr++;
        skipped++;
    }
    c->cptr[node] = ptr;
    c->s.total_ticks += skipped;
    c->skipped += skipped;
    if (!c->pending[node]) {
        c->pending[node] = 1;
        return schedule(&c->s, chain[ptr], EV_TICK, node, 0, 0, 0);
    }
    return 0;
}

/* _exchange */
static int exchange(SL *c, int node, int first, int second)
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
static int leader_signal(SL *c, int gen)
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
        c->tally_base = c->s.tallied;
        c->s.trigger_at = c->tally_base + c->prop_thr;
        return phase_change(c, "generation", 0);
    }
    return 0;
}

/* _propagation_trigger */
static int fire_trigger(Sim *s)
{
    SL *c = (SL *)s;
    if (c->lprop)
        return 0;
    c->lprop = 1;
    return phase_change(c, "propagation", 1);
}

static int dispatch(Sim *s, const Event *e)
{
    SL *c = (SL *)s;
    switch (ev_kind(e)) {
    case EV_TICK:
        return tick(c, e->a);
    case EV_EXCHANGE:
        return exchange(c, e->a, e->b, e->c);
    default:
        return leader_signal(c, e->a);
    }
}

static int loop(Sim *s, double horizon)
{
    return run_loop(s, horizon, dispatch, fire_trigger);
}

/* ------------------------------------------------------------------ */
/* loading and storing the protocol's state                           */
/* ------------------------------------------------------------------ */

static int load_payload(Sim *s, int kind, PyObject *payload, Event *e)
{
    if (kind == EV_TICK)
        return int_arg(payload, s->n, &e->a);
    if (kind == EV_SIGNAL)
        return int_arg(payload, INT_MAX, &e->a);
    if (kind != EV_EXCHANGE || !PyTuple_Check(payload) || PyTuple_GET_SIZE(payload) != 3)
        return 0;
    int rc = int_arg(PyTuple_GET_ITEM(payload, 0), s->n, &e->a);
    if (rc == 1)
        rc = int_arg(PyTuple_GET_ITEM(payload, 1), s->n, &e->b);
    if (rc == 1)
        rc = int_arg(PyTuple_GET_ITEM(payload, 2), s->n, &e->c);
    return rc;
}

static PyObject *build_payload(Sim *s, const Event *e)
{
    (void)s;
    return ev_kind(e) == EV_EXCHANGE ? Py_BuildValue("(iii)", e->a, e->b, e->c)
                                     : PyLong_FromLong(e->a);
}

static int load_chains(SL *c)
{
    int ok = 1, w = c->window, n = c->s.n;
    PyObject *chains = get_list(c->s.proto, "_chain", n, &ok);
    if (!chains)
        return ok ? -1 : 0;
    PyObject *cptrs = get_list(c->s.proto, "_cptr", n, &ok);
    if (!cptrs) {
        Py_DECREF(chains);
        return ok ? -1 : 0;
    }
    int rc = 1;
    for (int node = 0; node < n && rc == 1; node++) {
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

static int core_load(Sim *s)
{
    SL *c = (SL *)s;
    PyObject *proto = s->proto, *params;
    long long n, k;
    CHECK(get_ll(proto, "n", &n));
    CHECK(get_ll(proto, "k", &k));
    CHECK(get_int(proto, "_window", &c->window));
    CHECK(get_int(proto, "plurality", &c->plurality));
    if (n < 2 || n > INT_MAX / 2 || k < 1 || k > INT_MAX || c->window < 2)
        return 0;
    s->n = (int)n;
    c->k = (int)k;
    params = PyObject_GetAttrString(proto, "params");
    if (!params)
        return -1;
    int rc = get_ll(params, "prop_signal_threshold", &c->prop_thr);
    if (rc == 0)
        rc = get_ll(params, "gen_size_threshold", &c->gen_thr);
    if (rc == 0)
        rc = get_ll(params, "max_generation", &c->max_gen);
    Py_DECREF(params);
    CHECK(rc);

    size_t nn = (size_t)n;
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
    LOAD(load_ints(proto, "_cols", s->n, c->cols));
    LOAD(load_ints(proto, "_gens", s->n, c->gens));
    LOAD(load_ints(proto, "_seen_gen", s->n, c->seen_gen));
    LOAD(load_ints(proto, "_seen_prop", s->n, c->seen_prop));
    LOAD(load_flags(proto, "_locked", s->n, c->locked));
    LOAD(load_flags(proto, "_tick_pending", s->n, c->pending));
    LOAD(load_chains(c));
    LOAD(load_matrix(proto, "_matrix", c->k, c->max_gen, &c->matrix, &c->rows));
    LOAD(load_lls(proto, "_color_counts", c->k, c->counts));
    for (int i = 0; i < s->n; i++) {
        if (c->cols[i] < 0 || c->cols[i] >= c->k || c->gens[i] < 0 || c->gens[i] >= c->rows)
            return 0;
    }
    LOAD(load_eps(proto, &c->eps));
    CHECK(get_ll(proto, "skipped_ticks", &c->skipped));
    CHECK(get_ll(proto, "refills", &c->refills));
    CHECK(get_ll(proto, "_tally_base", &c->tally_base));

    c->leader = PyObject_GetAttrString(proto, "leader");
    if (!c->leader)
        return -1;
    long long prop;
    CHECK(get_ll(c->leader, "gen", &c->lgen));
    CHECK(get_ll(c->leader, "prop", &prop));
    CHECK(get_ll(c->leader, "gen_size", &c->gen_size));
    CHECK(get_ll(c->leader, "gen_signals", &c->gen_signals));
    c->lprop = prop != 0;
    return c->lgen >= 0 && c->lgen < c->rows;
}

static int core_store(Sim *s)
{
    SL *c = (SL *)s;
    PyObject *proto = s->proto;
    CHECK(store_ints(proto, "_cols", s->n, c->cols));
    CHECK(store_ints(proto, "_gens", s->n, c->gens));
    CHECK(store_ints(proto, "_seen_gen", s->n, c->seen_gen));
    CHECK(store_ints(proto, "_seen_prop", s->n, c->seen_prop));
    CHECK(store_flags(proto, "_locked", s->n, c->locked));
    CHECK(store_flags(proto, "_tick_pending", s->n, c->pending));
    CHECK(store_ints(proto, "_cptr", s->n, c->cptr));
    PyObject *chains = PyObject_GetAttrString(proto, "_chain");
    if (!chains)
        return -1;
    for (int node = 0; node < s->n; node++) {
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
    CHECK(store_matrix(proto, "_matrix", c->k, c->rows, c->matrix));
    CHECK(store_lls(proto, "_color_counts", c->k, c->counts));
    CHECK(set_ll(proto, "skipped_ticks", c->skipped));
    CHECK(set_ll(proto, "refills", c->refills));
    CHECK(set_ll(proto, "_tally_base", c->tally_base));
    CHECK(store_eps(proto, &c->eps));
    CHECK(set_ll(c->leader, "gen", c->lgen));
    CHECK(set_flag(c->leader, "prop", c->lprop));
    CHECK(set_ll(c->leader, "gen_size", c->gen_size));
    return set_ll(c->leader, "gen_signals", c->gen_signals);
}

static void core_release(Sim *s)
{
    SL *c = (SL *)s;
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
    Py_XDECREF(c->leader);
}

static const CoreSpec spec = {
    sizeof(SL), 4, 1, core_load, load_payload, build_payload, loop, core_store, core_release,
};

const char sl_run_doc[] =
"run(proto, horizon, funcs, wiring, kinds) -> bool\n\n"
"Run an eligible SingleLeaderSim's event loop up to ``horizon``, as\n"
"``proto.sim.run(until=horizon)`` would, and write the state back.\n"
"``funcs`` is ``(_tick, _exchange, _leader_signal, _propagation_trigger)``\n"
"of SingleLeaderSim; ``wiring`` is None and ``kinds`` empty (no fault\n"
"seam).  Returns False, having changed nothing, when the protocol's\n"
"state is not one the core models.";

PyObject *sl_run(PyObject *module, PyObject *args)
{
    (void)module;
    return sim_main(args, &spec);
}
