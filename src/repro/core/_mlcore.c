/* Compiled multi-leader core: MultiLeaderConsensusSim.run on K_n, in C.
 *
 * One call, run_multileader(proto, horizon, funcs, wiring, kinds),
 * replaces proto.sim.run(until=horizon) for an eligible
 * MultiLeaderConsensusSim (see MultiLeaderConsensusSim._core_seam).
 * This file is the protocol half: Algorithm 4's per-node state, every
 * cluster leader's Algorithm 5 state, the handlers and the payload
 * codecs; _fastcore.h holds the simulator half it runs on, over an
 * always-empty tally stream.  Leader transitions and generation births
 * call back into Python (ClusterLeaderState._record, proto._record_birth),
 * which record what the Python engine would.
 *
 * wiring is None on a simulator of the protocol's own, or the
 * repro.scenarios.faults.FaultInjection that wraps it, whose fault
 * models kinds names in order (FAULT_* in _fastcore.h; no churn).  The
 * core then does what the wrapped scheduling methods do: classify by
 * handler, send exchanges and signals through the seam (sim_send), file
 * a signal block entry by entry at now + (time - now), and unlock the
 * sender of a dropped exchange.
 *
 * A state the core does not model makes run_multileader() return
 * False before anything is consumed; the caller then runs Python.
 */
#include "_fastcore.h"

/* The events, numbered like their handlers in funcs: tick(a),
 * exchange((a, b, c, d)) and deliver_signal((leaders[a], b, c, d)). */
enum { EV_EXCHANGE = EV_TICK + 1, EV_SIGNAL };

/* ClusterLeaderState.state */
enum { STATE_TWO_CHOICES = 1, STATE_SLEEPING = 2, STATE_PROPAGATION = 3 };

/* One ClusterLeaderState. */
typedef struct {
    PyObject *obj;
    long long gen, state, tick_count, gen_size;
    long long sleep_thr, prop_thr, gen_thr, max_gen;
} Leader;

typedef struct {
    Sim s;
    int k, window, plurality, nleaders;
    Py_ssize_t rows;
    long long max_generation;
    /* per-node state */
    int *cols, *gens, *tmp_gen, *tmp_state, *credit;
    int *lidx;  /* index of the node's active leader in leaders, or -1 */
    int *leader_index; /* leader node -> index in leaders, or -1 */
    signed char *finished, *locked;
    signed char *birth_seen; /* per generation */
    long long *matrix, *counts;
    double *waits, *lats, *ticks;
    Leader *leaders;
    EpsTarget eps;
} ML;

/* ------------------------------------------------------------------ */
/* handlers (MultiLeaderConsensusSim, ClusterLeaderState)             */
/* ------------------------------------------------------------------ */

/* A _deliver_signal delay from now, through the seam. */
static int send_message(ML *c, double delay, int leader, int i, int s, int changed)
{
    return sim_send(&c->s, -1, delay, EV_SIGNAL, leader, i, s, changed) < 0 ? -1 : 0;
}

/* _signal: leader is the sending node's leader index (-1: no signal). */
static int signal_leader(ML *c, int leader, int i, int s, int changed)
{
    if (leader < 0)
        return 0;
    double delay;
    if (pool_next(&c->s.latency, &delay) < 0)
        return -1;
    return send_message(c, delay, leader, i, s, changed);
}

/* _refill_window (window >= 2): the next tick window and its
 * (0, 3, ·)-signal fan-out. */
static int refill_window(ML *c, int node)
{
    int w = c->window, leader = c->lidx[node];
    double now = c->s.now;
    if (pool_take(&c->s.tick_wait, w, c->waits) < 0 || pool_take(&c->s.latency, w, c->lats) < 0)
        return -1;
    /* line 1's signal for the firing tick */
    CHECK(send_message(c, c->lats[0], leader, 0, STATE_PROPAGATION, 0));
    CHECK(sim_tick_block(&c->s, node, w, c->waits, c->ticks));
    /* The signal block: whole without faults, else entry by entry
     * through the scalar seam. */
    for (int j = 1; j < w; j++) {
        double sig = c->ticks[j - 1] + c->lats[j];
        if (c->s.seam.wiring)
            CHECK(send_message(c, sig - now, leader, 0, STATE_PROPAGATION, 0));
        else
            CHECK(schedule(&c->s, sig, EV_SIGNAL, leader, 0, STATE_PROPAGATION, 0));
    }
    if (!c->s.seam.wiring) {
        c->s.flushes++;
        c->s.flushed_events += w - 1;
    }
    c->credit[node] = w;
    return 0;
}

static int record_birth(ML *c, int gen)
{
    PyObject *row = ll_list(c->matrix + (Py_ssize_t)gen * c->k, c->k);
    if (!row)
        return -1;
    PyObject *res = PyObject_CallMethod(c->s.proto, "_record_birth", "idO", gen, c->s.now, row);
    Py_DECREF(row);
    if (!res)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* _set_state */
static int set_state(ML *c, int node, int gen, int col)
{
    int old_gen = c->gens[node], old_col = c->cols[node];
    if (old_gen == gen && old_col == col)
        return 0;
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
    if (!c->birth_seen[gen]) {
        c->birth_seen[gen] = 1;
        return record_birth(c, gen);
    }
    return 0;
}

/* _tick */
static int tick(ML *c, int node)
{
    c->s.total_ticks++;
    int credit = c->credit[node] - 1;
    if (credit)
        c->credit[node] = credit;
    else if (refill_window(c, node) < 0)
        return -1;
    if (c->locked[node])
        return 0;
    c->locked[node] = 1;
    c->s.good_ticks++;
    long long v[3];
    for (int j = 0; j < 3; j++) {
        if (pool_next_int(&c->s.neighbor, &v[j]) < 0)
            return -1;
        if (v[j] >= node)
            v[j]++;
    }
    double delay;
    if (pool_next(&c->s.channel, &delay) < 0)
        return -1;
    int rc = sim_send(&c->s, node, delay, EV_EXCHANGE, node, (int)v[0], (int)v[1], (int)v[2]);
    if (rc == 0)
        c->locked[node] = 0; /* the failed channel unlocks its sender */
    return rc < 0 ? -1 : 0;
}

/* _exchange */
static int exchange(ML *c, int node, int v1, int v2, int v3)
{
    int *gens = c->gens, *cols = c->cols;
    signed char *finished = c->finished;
    int samples[3] = {v1, v2, v3};
    int own = c->lidx[node];
    /* Lines 5-7: finished-flag push / pull. */
    if (finished[node]) {
        int col = cols[node];
        for (int j = 0; j < 3; j++) {
            CHECK(set_state(c, samples[j], gens[samples[j]], col));
            finished[samples[j]] = 1;
        }
        c->locked[node] = 0;
        return 0;
    }
    for (int j = 0; j < 3; j++) {
        if (finished[samples[j]]) {
            CHECK(set_state(c, node, gens[node], cols[samples[j]]));
            finished[node] = 1;
            c->locked[node] = 0;
            return 0;
        }
    }
    int sampled = c->lidx[v3];
    if (sampled < 0) {
        /* Line 8: non-active cluster sampled. */
        c->locked[node] = 0;
        return 0;
    }
    long long l_gen = c->leaders[sampled].gen, l_state = c->leaders[sampled].state;
    int own_gen = gens[node];
    int gen_a = gens[v1], col_a = cols[v1];
    int gen_b = gens[v2], col_b = cols[v2];
    int in_sync_a = c->tmp_gen[v1] == l_gen && c->tmp_state[v1] == l_state;
    int in_sync_b = c->tmp_gen[v2] == l_gen && c->tmp_state[v2] == l_state;
    int promoted = 0;
    if (l_state == STATE_TWO_CHOICES && gen_a == gen_b && gen_b == l_gen - 1 && col_a == col_b
        && own_gen <= gen_a && in_sync_a && in_sync_b) {
        CHECK(set_state(c, node, (int)l_gen, col_a));
        CHECK(signal_leader(c, own, (int)l_gen, STATE_TWO_CHOICES, 1));
        promoted = 1;
    }
    else if (l_state == STATE_PROPAGATION) {
        int candidate = -1;
        if (gen_a == l_gen && own_gen < gen_a && in_sync_a)
            candidate = v1;
        else if (gen_b == l_gen && own_gen < gen_b && in_sync_b)
            candidate = v2;
        if (candidate >= 0) {
            CHECK(set_state(c, node, gens[candidate], cols[candidate]));
            CHECK(signal_leader(c, own, gens[node], STATE_PROPAGATION, 1));
            promoted = 1;
        }
    }
    /* Line 18: relay the sampled leader's state to the own leader. */
    if (!promoted)
        CHECK(signal_leader(c, own, (int)l_gen, (int)l_state, 0));
    /* Line 19: refresh the stored view of the own leader. */
    if (own >= 0) {
        c->tmp_gen[node] = (int)c->leaders[own].gen;
        c->tmp_state[node] = (int)c->leaders[own].state;
    }
    /* Line 20: the generation budget is the finish line. */
    if (gens[node] >= c->max_generation)
        finished[node] = 1;
    c->locked[node] = 0;
    return 0;
}

/* ClusterLeaderState._record, after publishing (gen, state). */
static int record_transition(ML *c, Leader *l, const char *cause)
{
    CHECK(set_ll(l->obj, "gen", l->gen));
    CHECK(set_ll(l->obj, "state", l->state));
    PyObject *res = PyObject_CallMethod(l->obj, "_record", "ds", c->s.now, cause);
    if (!res)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* _deliver_signal -> ClusterLeaderState.on_signal */
static int deliver_signal(ML *c, int leader, int i, int s, int changed)
{
    Leader *l = &c->leaders[leader];
    if (i > 0 && (i > l->gen || (i == l->gen && s > l->state))) {
        if (i > l->gen)
            l->gen_size = 0;
        l->gen = i;
        l->state = s;
        if (s == STATE_TWO_CHOICES)
            l->tick_count = 0;
        else if (s == STATE_SLEEPING)
            l->tick_count = l->sleep_thr;
        else
            l->tick_count = l->prop_thr;
        CHECK(record_transition(c, l, "relay"));
    }
    if (i == 0) {
        l->tick_count++;
        if (l->tick_count >= l->sleep_thr && l->state == STATE_TWO_CHOICES) {
            l->state = STATE_SLEEPING;
            return record_transition(c, l, "ticks");
        }
        if (l->tick_count >= l->prop_thr && l->state == STATE_SLEEPING) {
            l->state = STATE_PROPAGATION;
            return record_transition(c, l, "ticks");
        }
        return 0;
    }
    if (i == l->gen && changed) {
        l->gen_size++;
        if (l->gen_size >= l->gen_thr && l->gen < l->max_gen) {
            l->gen++;
            l->state = STATE_TWO_CHOICES;
            l->tick_count = 0;
            l->gen_size = 0;
            return record_transition(c, l, "gen-size");
        }
    }
    return 0;
}

static int dispatch(Sim *s, const Event *e)
{
    ML *c = (ML *)s;
    switch (ev_kind(e)) {
    case EV_TICK:
        return tick(c, e->a);
    case EV_EXCHANGE:
        return exchange(c, e->a, e->b, e->c, e->d);
    default:
        return deliver_signal(c, e->a, e->b, e->c, e->d);
    }
}

static int loop(Sim *s, double horizon)
{
    return run_loop(s, horizon, dispatch, NULL);
}

/* ------------------------------------------------------------------ */
/* loading and storing the protocol's state                           */
/* ------------------------------------------------------------------ */

static int load_payload(Sim *s, int kind, PyObject *payload, Event *e)
{
    ML *c = (ML *)s;
    if (kind == EV_TICK) {
        /* Only active members tick (a tick files the member's signals). */
        int rc = int_arg(payload, s->n, &e->a);
        return rc == 1 ? c->lidx[e->a] >= 0 : rc;
    }
    if (!PyTuple_Check(payload) || PyTuple_GET_SIZE(payload) != 4)
        return 0;
    if (kind == EV_EXCHANGE) {
        int rc = int_arg(PyTuple_GET_ITEM(payload, 0), s->n, &e->a);
        if (rc == 1)
            rc = int_arg(PyTuple_GET_ITEM(payload, 1), s->n, &e->b);
        if (rc == 1)
            rc = int_arg(PyTuple_GET_ITEM(payload, 2), s->n, &e->c);
        if (rc == 1)
            rc = int_arg(PyTuple_GET_ITEM(payload, 3), s->n, &e->d);
        return rc;
    }
    if (kind != EV_SIGNAL)
        return 0;
    /* (leader state, i, s, has_changed) */
    PyObject *state = PyTuple_GET_ITEM(payload, 0);
    PyObject *node = PyObject_GetAttrString(state, "node");
    if (!node) {
        PyErr_Clear();
        return 0;
    }
    int leader, rc = int_arg(node, s->n, &leader);
    Py_DECREF(node);
    if (rc != 1)
        return rc;
    e->a = c->leader_index[leader];
    if (e->a < 0 || c->leaders[e->a].obj != state)
        return 0;
    rc = int_arg(PyTuple_GET_ITEM(payload, 1), (int)c->rows, &e->b);
    if (rc == 1)
        rc = int_arg(PyTuple_GET_ITEM(payload, 2), INT_MAX, &e->c);
    if (rc != 1)
        return rc;
    e->d = PyObject_IsTrue(PyTuple_GET_ITEM(payload, 3));
    return e->d < 0 ? -1 : 1;
}

static PyObject *build_payload(Sim *s, const Event *e)
{
    ML *c = (ML *)s;
    switch (ev_kind(e)) {
    case EV_TICK:
        return PyLong_FromLong(e->a);
    case EV_EXCHANGE:
        return Py_BuildValue("(iiii)", e->a, e->b, e->c, e->d);
    default:
        return Py_BuildValue("(OiiO)", c->leaders[e->a].obj, e->b, e->c,
                             e->d ? Py_True : Py_False);
    }
}

/* proto.leaders and the per-node leader index; 1 ok, 0 unsupported. */
static int load_leaders(ML *c)
{
    int n = c->s.n;
    PyObject *leaders = PyObject_GetAttrString(c->s.proto, "leaders");
    if (!leaders)
        return -1;
    Py_DECREF(leaders); /* the protocol keeps it alive for the call */
    if (!PyDict_Check(leaders) || PyDict_GET_SIZE(leaders) < 1 || PyDict_GET_SIZE(leaders) > n)
        return 0;
    c->nleaders = (int)PyDict_GET_SIZE(leaders);
    c->leaders = calloc((size_t)c->nleaders, sizeof(Leader));
    int *index = c->leader_index = malloc((size_t)n * sizeof(int));
    if (!c->leaders || !index) {
        PyErr_NoMemory();
        return -1;
    }
    for (int v = 0; v < n; v++)
        index[v] = -1;
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    int rc = 1;
    for (int j = 0; rc == 1 && PyDict_Next(leaders, &pos, &key, &value); j++) {
        Leader *l = &c->leaders[j];
        int node;
        rc = int_arg(key, n, &node);
        if (rc != 1)
            break;
        index[node] = j;
        l->obj = value;
        if (get_ll(value, "gen", &l->gen) < 0 || get_ll(value, "state", &l->state) < 0
            || get_ll(value, "tick_count", &l->tick_count) < 0
            || get_ll(value, "gen_size", &l->gen_size) < 0
            || get_ll(value, "_sleep_threshold", &l->sleep_thr) < 0
            || get_ll(value, "_prop_threshold", &l->prop_thr) < 0
            || get_ll(value, "_gen_threshold", &l->gen_thr) < 0
            || get_ll(value, "_max_generation", &l->max_gen) < 0)
            rc = -1;
        else if (l->gen < 0 || l->gen >= c->rows || l->max_gen >= c->rows - 1
                 || l->state < INT_MIN || l->state > INT_MAX)
            rc = 0;
    }
    int *leader_of = malloc((size_t)n * sizeof(int));
    if (rc == 1 && !leader_of) {
        PyErr_NoMemory();
        rc = -1;
    }
    if (rc == 1)
        rc = load_ints(c->s.proto, "_leader_of", n, leader_of);
    for (int v = 0; rc == 1 && v < n; v++) {
        int own = leader_of[v];
        if (own < -1 || own >= n)
            rc = 0;
        else
            c->lidx[v] = own < 0 ? -1 : index[own];
    }
    free(leader_of);
    return rc;
}

static int core_load(Sim *s)
{
    ML *c = (ML *)s;
    PyObject *proto = s->proto;
    long long n, k;
    CHECK(get_ll(proto, "n", &n));
    CHECK(get_ll(proto, "k", &k));
    CHECK(get_int(proto, "_window", &c->window));
    CHECK(get_int(proto, "plurality", &c->plurality));
    if (n < 2 || n > INT_MAX / 2 || k < 1 || k > INT_MAX || c->window < 2 || c->window > 1 << 20)
        return 0;
    s->n = (int)n;
    c->k = (int)k;
    PyObject *params = PyObject_GetAttrString(proto, "params");
    if (!params)
        return -1;
    int rc = get_ll(params, "max_generation", &c->max_generation);
    Py_DECREF(params);
    CHECK(rc);

    size_t nn = (size_t)n;
    c->cols = malloc(nn * sizeof(int));
    c->gens = malloc(nn * sizeof(int));
    c->tmp_gen = malloc(nn * sizeof(int));
    c->tmp_state = malloc(nn * sizeof(int));
    c->credit = malloc(nn * sizeof(int));
    c->lidx = malloc(nn * sizeof(int));
    c->finished = malloc(nn);
    c->locked = malloc(nn);
    c->counts = malloc((size_t)c->k * sizeof(long long));
    c->waits = malloc((size_t)c->window * sizeof(double));
    c->lats = malloc((size_t)c->window * sizeof(double));
    c->ticks = malloc((size_t)c->window * sizeof(double));
    if (!c->cols || !c->gens || !c->tmp_gen || !c->tmp_state || !c->credit || !c->lidx
        || !c->finished || !c->locked || !c->counts || !c->waits || !c->lats || !c->ticks) {
        PyErr_NoMemory();
        return -1;
    }
    LOAD(load_ints(proto, "_cols", s->n, c->cols));
    LOAD(load_ints(proto, "_gens", s->n, c->gens));
    LOAD(load_ints(proto, "_tmp_gen", s->n, c->tmp_gen));
    LOAD(load_ints(proto, "_tmp_state", s->n, c->tmp_state));
    LOAD(load_ints(proto, "_credit", s->n, c->credit));
    LOAD(load_flags(proto, "_finished", s->n, c->finished));
    LOAD(load_flags(proto, "_locked", s->n, c->locked));
    LOAD(load_matrix(proto, "_matrix", c->k, c->max_generation, &c->matrix, &c->rows));
    LOAD(load_lls(proto, "_color_counts", c->k, c->counts));
    c->birth_seen = malloc((size_t)c->rows);
    if (!c->birth_seen) {
        PyErr_NoMemory();
        return -1;
    }
    LOAD(load_flags(proto, "_birth_seen", (int)c->rows, c->birth_seen));
    for (int i = 0; i < s->n; i++) {
        if (c->cols[i] < 0 || c->cols[i] >= c->k || c->gens[i] < 0 || c->gens[i] >= c->rows)
            return 0;
    }
    LOAD(load_leaders(c));
    return load_eps(proto, &c->eps);
}

static int core_store(Sim *s)
{
    ML *c = (ML *)s;
    PyObject *proto = s->proto;
    CHECK(store_ints(proto, "_cols", s->n, c->cols));
    CHECK(store_ints(proto, "_gens", s->n, c->gens));
    CHECK(store_ints(proto, "_tmp_gen", s->n, c->tmp_gen));
    CHECK(store_ints(proto, "_tmp_state", s->n, c->tmp_state));
    CHECK(store_ints(proto, "_credit", s->n, c->credit));
    CHECK(store_flags(proto, "_finished", s->n, c->finished));
    CHECK(store_flags(proto, "_locked", s->n, c->locked));
    CHECK(store_matrix(proto, "_matrix", c->k, c->rows, c->matrix));
    CHECK(store_lls(proto, "_color_counts", c->k, c->counts));
    CHECK(store_flags(proto, "_birth_seen", (int)c->rows, c->birth_seen));
    CHECK(store_eps(proto, &c->eps));
    for (int j = 0; j < c->nleaders; j++) {
        Leader *l = &c->leaders[j];
        CHECK(set_ll(l->obj, "gen", l->gen));
        CHECK(set_ll(l->obj, "state", l->state));
        CHECK(set_ll(l->obj, "tick_count", l->tick_count));
        CHECK(set_ll(l->obj, "gen_size", l->gen_size));
    }
    return 0;
}

static void core_release(Sim *s)
{
    ML *c = (ML *)s;
    free(c->cols);
    free(c->gens);
    free(c->tmp_gen);
    free(c->tmp_state);
    free(c->credit);
    free(c->lidx);
    free(c->leader_index);
    free(c->finished);
    free(c->locked);
    free(c->birth_seen);
    free(c->matrix);
    free(c->counts);
    free(c->waits);
    free(c->lats);
    free(c->ticks);
    free(c->leaders);
}

static const CoreSpec spec = {
    sizeof(ML), 3, 0, core_load, load_payload, build_payload, loop, core_store, core_release,
};

const char ml_run_doc[] =
"run_multileader(proto, horizon, funcs, wiring, kinds) -> bool\n\n"
"Run an eligible MultiLeaderConsensusSim's event loop up to ``horizon``,\n"
"as ``proto.sim.run(until=horizon)`` would, and write the state back.\n"
"``funcs`` is ``(_tick, _exchange, _deliver_signal)`` of\n"
"MultiLeaderConsensusSim; ``wiring`` is None or the FaultInjection\n"
"wrapping the simulator, and ``kinds`` numbers its fault models\n"
"(0 IidDrop, 1 GilbertElliottDrop, 2 Stragglers).  Returns False,\n"
"having changed nothing, when the state is not one the core models.";

PyObject *ml_run(PyObject *module, PyObject *args)
{
    (void)module;
    return sim_main(args, &spec);
}
