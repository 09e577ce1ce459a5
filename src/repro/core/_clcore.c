/* Compiled clustering core: ClusteringSim.run on K_n, in C.
 *
 * One call, run_clustering(proto, horizon, funcs, wiring, kinds),
 * replaces proto.sim.run(until=horizon) for an eligible ClusteringSim
 * (see ClusteringSim._core_seam).  This file is the protocol half: the
 * phase's state (the per-node leader, lock and tick-window credit,
 * every leader's size, signal count and ready/informed flags, the
 * switch times and the sampled trajectory), the handlers and the
 * payload codecs; _fastcore.h holds the simulator half it runs on, over
 * an always-empty tally stream.  _exchange informs the leaders it saw
 * in ascending order, as the Python phase does.
 *
 * wiring and kinds are the multi-leader consensus core's: None, or the
 * FaultInjection on the simulator with its drop and straggler models.
 * _exchange and _join are exchanges of their initiating node sent
 * through the seam (sim_send; a drop unlocks the node), _leader_signal
 * a message with no owner node (dropped, never slowed), and _tick and
 * _sample take no transform.
 *
 * A state the core does not model makes run_clustering() return False
 * before anything is consumed; the caller then runs Python.
 */
#include "_fastcore.h"

/* The events, numbered like their handlers in funcs: tick(a),
 * exchange((a, (b, c, d))), join((a, b)), leader_signal(a) and
 * sample(every[a]). */
enum { EV_EXCHANGE = EV_TICK + 1, EV_JOIN, EV_SIGNAL, EV_SAMPLE, EV_KINDS };

/* Distinct sample intervals a queue may hold. */
#define MAX_EVERY 8

typedef struct {
    Sim s;
    /* the phase's dicts and lists (owned references) */
    PyObject *size_d, *signal_d, *ready_d, *informed_d, *switch_d, *active_l, *traj_l;
    int window;
    long long max_size, target_size, min_active, ready_signals;
    /* per-node state */
    int *leader, *credit;
    signed char *locked;
    /* per-leader state, indexed by node; is_leader marks the dicts' keys */
    signed char *is_leader, *ready, *informed;
    long long *size, *signals;
    /* switch_times as ordered items, and each node's position there */
    int *switch_node, *switch_pos, nswitch;
    double *switch_time;
    /* active_leaders: the items beyond active0 are new */
    int *active, nactive, active0;
    long long informed_count, total_leaders, clustered;
    int broadcast, first_set;
    double first_ready;
    double *waits, *ticks;
    /* the sample intervals in the queue: payload objects and values */
    PyObject *every[MAX_EVERY];
    double every_v[MAX_EVERY];
    int nevery;
} CL;

/* ------------------------------------------------------------------ */
/* handlers (ClusteringSim, faithful_pause off)                       */
/* ------------------------------------------------------------------ */

/* An exchange of node (_exchange or _join) after delay, through the
 * seam: a drop unlocks the sender. */
static int send_exchange(CL *c, double delay, int kind, int node, int b, int x, int d)
{
    int rc = sim_send(&c->s, node, delay, kind, node, b, x, d);
    if (rc == 0)
        c->locked[node] = 0;
    return rc < 0 ? -1 : 0;
}

/* _tick */
static int tick(CL *c, int node)
{
    c->s.total_ticks++;
    int credit = c->credit[node] - 1;
    if (credit)
        c->credit[node] = credit;
    else {
        /* _refill_window (window >= 2): schedule_tick_window */
        if (pool_take(&c->s.tick_wait, c->window, c->waits) < 0)
            return -1;
        CHECK(sim_tick_block(&c->s, node, c->window, c->waits, c->ticks));
        c->credit[node] = c->window;
    }
    int own = c->leader[node];
    if (own >= 0) {
        /* Member (or leader itself): 0-signal to the own leader. */
        double delay;
        if (pool_next(&c->s.latency, &delay) < 0)
            return -1;
        CHECK(sim_send(&c->s, -1, delay, EV_SIGNAL, own, 0, 0, 0));
    }
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
    return send_exchange(c, delay, EV_EXCHANGE, node, (int)v[0], (int)v[1], (int)v[2]);
}

/* _inform */
static void inform(CL *c, int leader)
{
    if (c->informed[leader])
        return;
    c->informed[leader] = 1;
    c->informed_count++;
    if (c->size[leader] >= c->min_active) {
        int pos = c->switch_pos[leader];
        if (pos < 0) {
            pos = c->switch_pos[leader] = c->nswitch++;
            c->switch_node[pos] = leader;
        }
        c->switch_time[pos] = c->s.now;
        c->active[c->nactive++] = leader;
    }
    /* Termination is detected here, as in Python. */
    if (c->broadcast && c->informed_count == c->total_leaders)
        c->s.stop = 1;
}

/* _exchange */
static int exchange(CL *c, int node, int s0, int s1, int s2)
{
    /* The distinct seen leaders, samples' and own, in ascending order. */
    int seen[4], count = 0, any_informed = 0;
    int samples[3] = {s0, s1, s2};
    int own = c->leader[node];
    for (int j = 0; j < 4; j++) {
        int l = j < 3 ? c->leader[samples[j]] : own;
        if (l < 0)
            continue;
        int i = count;
        while (i > 0 && seen[i - 1] > l)
            i--;
        if (i > 0 && seen[i - 1] == l)
            continue;
        memmove(seen + i + 1, seen + i, (size_t)(count - i) * sizeof(int));
        seen[i] = l;
        count++;
        any_informed |= c->informed[l];
    }
    if (any_informed) {
        for (int i = 0; i < count; i++)
            inform(c, seen[i]);
    }
    if (own >= 0 || !count) {
        c->locked[node] = 0;
        return 0;
    }
    /* Unclustered follower: try to join the smallest sampled leader. */
    double delay;
    if (pool_next(&c->s.latency, &delay) < 0)
        return -1;
    return send_exchange(c, delay, EV_JOIN, node, seen[0], 0, 0);
}

/* _join through _accepting (open until the cap, closed once switched) */
static void join(CL *c, int node, int target)
{
    if (c->size[target] < c->max_size && c->switch_pos[target] < 0 && c->leader[node] < 0) {
        c->leader[node] = target;
        c->size[target]++;
        c->clustered++;
    }
    c->locked[node] = 0;
}

/* _leader_signal */
static void leader_signal(CL *c, int leader)
{
    if (!c->is_leader[leader])
        return;
    if (c->size[leader] < c->target_size || c->ready[leader])
        return;
    if (++c->signals[leader] >= c->ready_signals) {
        c->ready[leader] = 1;
        if (!c->broadcast) {
            c->broadcast = 1;
            c->first_set = 1;
            c->first_ready = c->s.now;
            inform(c, leader);
        }
    }
}

/* _sample */
static int sample(CL *c, int every)
{
    double now = c->s.now;
    PyObject *point = Py_BuildValue("(dd)", now, (double)c->clustered / (double)c->s.n);
    if (!point)
        return -1;
    int rc = PyList_Append(c->traj_l, point);
    Py_DECREF(point);
    CHECK(rc);
    return schedule(&c->s, now + c->every_v[every], EV_SAMPLE, every, 0, 0, 0);
}

static int dispatch(Sim *s, const Event *e)
{
    CL *c = (CL *)s;
    switch (ev_kind(e)) {
    case EV_TICK:
        return tick(c, e->a);
    case EV_EXCHANGE:
        return exchange(c, e->a, e->b, e->c, e->d);
    case EV_JOIN:
        join(c, e->a, e->b);
        return 0;
    case EV_SIGNAL:
        leader_signal(c, e->a);
        return 0;
    default:
        return sample(c, e->a);
    }
}

static int loop(Sim *s, double horizon)
{
    return run_loop(s, horizon, dispatch, NULL);
}

/* ------------------------------------------------------------------ */
/* loading and storing the phase's state                              */
/* ------------------------------------------------------------------ */

static int load_payload(Sim *s, int kind, PyObject *payload, Event *e)
{
    CL *c = (CL *)s;
    switch (kind) {
    case EV_TICK:
    case EV_SIGNAL:
        return int_arg(payload, c->s.n, &e->a);
    case EV_EXCHANGE: {
        /* (node, (s0, s1, s2)) */
        if (!PyTuple_Check(payload) || PyTuple_GET_SIZE(payload) != 2)
            return 0;
        PyObject *samples = PyTuple_GET_ITEM(payload, 1);
        if (!PyTuple_Check(samples) || PyTuple_GET_SIZE(samples) != 3)
            return 0;
        int rc = int_arg(PyTuple_GET_ITEM(payload, 0), c->s.n, &e->a);
        if (rc == 1)
            rc = int_arg(PyTuple_GET_ITEM(samples, 0), c->s.n, &e->b);
        if (rc == 1)
            rc = int_arg(PyTuple_GET_ITEM(samples, 1), c->s.n, &e->c);
        if (rc == 1)
            rc = int_arg(PyTuple_GET_ITEM(samples, 2), c->s.n, &e->d);
        return rc;
    }
    case EV_JOIN: {
        /* (node, target): a target is always a leader */
        if (!PyTuple_Check(payload) || PyTuple_GET_SIZE(payload) != 2)
            return 0;
        int rc = int_arg(PyTuple_GET_ITEM(payload, 0), c->s.n, &e->a);
        if (rc == 1)
            rc = int_arg(PyTuple_GET_ITEM(payload, 1), c->s.n, &e->b);
        return rc == 1 ? c->is_leader[e->b] : rc;
    }
    default: {
        /* the interval, as an int or a float no smaller than 0 */
        int j = 0;
        while (j < c->nevery && c->every[j] != payload)
            j++;
        if (j == c->nevery) {
            if (j == MAX_EVERY || !(PyFloat_CheckExact(payload) || PyLong_CheckExact(payload)))
                return 0;
            double v = PyFloat_AsDouble(payload);
            if (v == -1.0 && PyErr_Occurred()) {
                PyErr_Clear();
                return 0;
            }
            if (!(v >= 0.0))
                return 0;
            c->every[j] = Py_NewRef(payload);
            c->every_v[j] = v;
            c->nevery++;
        }
        e->a = j;
        return 1;
    }
    }
}

static PyObject *build_payload(Sim *s, const Event *e)
{
    CL *c = (CL *)s;
    switch (ev_kind(e)) {
    case EV_TICK:
    case EV_SIGNAL:
        return PyLong_FromLong(e->a);
    case EV_EXCHANGE:
        return Py_BuildValue("(i(iii))", e->a, e->b, e->c, e->d);
    case EV_JOIN:
        return Py_BuildValue("(ii)", e->a, e->b);
    default:
        return Py_NewRef(c->every[e->a]);
    }
}

/* A dict attribute keyed by the leaders (owned into *out); 1 ok, 0 not a dict. */
static int load_dict(PyObject *obj, const char *name, PyObject **out)
{
    *out = PyObject_GetAttrString(obj, name);
    if (!*out)
        return -1;
    return PyDict_CheckExact(*out);
}

/* One of the leader dicts: the leaders are size's keys, and the other
 * three must have exactly those keys.  Values are ints (ll) or flags. */
static int load_leader_dict(CL *c, PyObject *d, long long *ll, signed char *flags)
{
    if (d != c->size_d) {
        Py_ssize_t leaders = 0;
        for (int v = 0; v < c->s.n; v++)
            leaders += c->is_leader[v];
        if (PyDict_GET_SIZE(d) != leaders)
            return 0;
    }
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (PyDict_Next(d, &pos, &key, &value)) {
        int node;
        int rc = int_arg(key, c->s.n, &node);
        if (rc != 1)
            return rc;
        if (d == c->size_d)
            c->is_leader[node] = 1;
        else if (!c->is_leader[node])
            return 0;
        if (ll) {
            if (!PyLong_CheckExact(value))
                return 0;
            ll[node] = PyLong_AsLongLong(value);
            if (ll[node] == -1 && PyErr_Occurred())
                return -1;
        }
        else {
            if (!PyBool_Check(value))
                return 0;
            flags[node] = value == Py_True;
        }
    }
    return 1;
}

static int load_switches(CL *c)
{
    LOAD(load_dict(c->s.proto, "switch_times", &c->switch_d));
    Py_ssize_t len = PyDict_GET_SIZE(c->switch_d);
    size_t cap = (size_t)len + (size_t)c->s.n;
    c->switch_node = malloc(cap * sizeof(int));
    c->switch_time = malloc(cap * sizeof(double));
    if (!c->switch_node || !c->switch_time) {
        PyErr_NoMemory();
        return -1;
    }
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (PyDict_Next(c->switch_d, &pos, &key, &value)) {
        int node;
        int rc = int_arg(key, c->s.n, &node);
        if (rc != 1)
            return rc;
        if (!PyFloat_CheckExact(value))
            return 0;
        c->switch_pos[node] = c->nswitch;
        c->switch_node[c->nswitch] = node;
        c->switch_time[c->nswitch++] = PyFloat_AS_DOUBLE(value);
    }
    return 1;
}

static int load_active(CL *c)
{
    int ok = 1;
    c->active_l = get_list(c->s.proto, "active_leaders", -1, &ok);
    if (!c->active_l)
        return ok ? -1 : 0;
    c->active0 = c->nactive = (int)PyList_GET_SIZE(c->active_l);
    c->active = malloc(((size_t)c->active0 + (size_t)c->s.n) * sizeof(int));
    if (!c->active) {
        PyErr_NoMemory();
        return -1;
    }
    return 1;
}

static int core_load(Sim *s)
{
    CL *c = (CL *)s;
    long long n;
    CHECK(get_ll(s->proto, "n", &n));
    CHECK(get_int(s->proto, "_window", &c->window));
    if (n < 2 || n > INT_MAX / 2 || c->window < 2 || c->window > 1 << 20)
        return 0;
    s->n = (int)n;
    PyObject *params = PyObject_GetAttrString(s->proto, "params");
    if (!params)
        return -1;
    int rc = get_ll(params, "max_cluster_size", &c->max_size);
    if (rc == 0)
        rc = get_ll(params, "target_cluster_size", &c->target_size);
    if (rc == 0)
        rc = get_ll(params, "min_active_size", &c->min_active);
    Py_DECREF(params);
    CHECK(rc);
    CHECK(get_ll(s->proto, "_ready_signals", &c->ready_signals));
    CHECK(get_ll(s->proto, "_informed_count", &c->informed_count));
    CHECK(get_ll(s->proto, "_total_leaders", &c->total_leaders));
    CHECK(get_flag(s->proto, "_broadcast_started", &c->broadcast));

    size_t nn = (size_t)s->n;
    c->leader = malloc(nn * sizeof(int));
    c->credit = malloc(nn * sizeof(int));
    c->switch_pos = malloc(nn * sizeof(int));
    c->locked = malloc(nn);
    c->is_leader = calloc(nn, 1);
    c->ready = calloc(nn, 1);
    c->informed = calloc(nn, 1);
    c->size = calloc(nn, sizeof(long long));
    c->signals = calloc(nn, sizeof(long long));
    c->waits = malloc((size_t)c->window * sizeof(double));
    c->ticks = malloc((size_t)c->window * sizeof(double));
    if (!c->leader || !c->credit || !c->switch_pos || !c->locked || !c->is_leader || !c->ready
        || !c->informed || !c->size || !c->signals || !c->waits || !c->ticks) {
        PyErr_NoMemory();
        return -1;
    }
    for (int v = 0; v < s->n; v++)
        c->switch_pos[v] = -1;
    LOAD(load_ints(s->proto, "_leader", s->n, c->leader));
    LOAD(load_ints(s->proto, "_credit", s->n, c->credit));
    LOAD(load_flags(s->proto, "_locked", s->n, c->locked));
    LOAD(load_dict(s->proto, "size", &c->size_d));
    LOAD(load_dict(s->proto, "signal_count", &c->signal_d));
    LOAD(load_dict(s->proto, "ready", &c->ready_d));
    LOAD(load_dict(s->proto, "informed", &c->informed_d));
    LOAD(load_leader_dict(c, c->size_d, c->size, NULL));
    LOAD(load_leader_dict(c, c->signal_d, c->signals, NULL));
    LOAD(load_leader_dict(c, c->ready_d, NULL, c->ready));
    LOAD(load_leader_dict(c, c->informed_d, NULL, c->informed));
    for (int v = 0; v < s->n; v++) {
        int own = c->leader[v];
        if (own < -1 || own >= s->n || (own >= 0 && !c->is_leader[own]))
            return 0;
        c->clustered += own >= 0;
    }
    LOAD(load_switches(c));
    LOAD(load_active(c));
    int ok = 1;
    c->traj_l = get_list(s->proto, "clustered_trajectory", -1, &ok);
    return c->traj_l ? 1 : ok ? -1 : 0;
}

/* Write one leader dict's values back, key by key (order kept). */
static int store_leader_dict(CL *c, PyObject *d, const long long *ll, const signed char *flags)
{
    for (int v = 0; v < c->s.n; v++) {
        if (!c->is_leader[v])
            continue;
        PyObject *key = PyLong_FromLong(v);
        PyObject *value = ll ? PyLong_FromLongLong(ll[v]) : Py_NewRef(flags[v] ? Py_True : Py_False);
        int rc = key && value ? PyDict_SetItem(d, key, value) : -1;
        Py_XDECREF(key);
        Py_XDECREF(value);
        CHECK(rc);
    }
    return 0;
}

static int core_store(Sim *s)
{
    CL *c = (CL *)s;
    CHECK(store_ints(s->proto, "_leader", s->n, c->leader));
    CHECK(store_ints(s->proto, "_credit", s->n, c->credit));
    CHECK(store_flags(s->proto, "_locked", s->n, c->locked));
    CHECK(store_leader_dict(c, c->size_d, c->size, NULL));
    CHECK(store_leader_dict(c, c->signal_d, c->signals, NULL));
    CHECK(store_leader_dict(c, c->ready_d, NULL, c->ready));
    CHECK(store_leader_dict(c, c->informed_d, NULL, c->informed));
    /* switch_times: a new leader appends, a known one keeps its place */
    for (int j = 0; j < c->nswitch; j++) {
        PyObject *key = PyLong_FromLong(c->switch_node[j]);
        PyObject *value = PyFloat_FromDouble(c->switch_time[j]);
        int rc = key && value ? PyDict_SetItem(c->switch_d, key, value) : -1;
        Py_XDECREF(key);
        Py_XDECREF(value);
        CHECK(rc);
    }
    for (int j = c->active0; j < c->nactive; j++) {
        PyObject *v = PyLong_FromLong(c->active[j]);
        int rc = v ? PyList_Append(c->active_l, v) : -1;
        Py_XDECREF(v);
        CHECK(rc);
    }
    CHECK(set_ll(s->proto, "_informed_count", c->informed_count));
    CHECK(set_flag(s->proto, "_broadcast_started", c->broadcast));
    if (c->first_set)
        CHECK(set_obj(s->proto, "first_ready_time", PyFloat_FromDouble(c->first_ready)));
    return 0;
}

static void core_release(Sim *s)
{
    CL *c = (CL *)s;
    free(c->leader);
    free(c->credit);
    free(c->locked);
    free(c->is_leader);
    free(c->ready);
    free(c->informed);
    free(c->size);
    free(c->signals);
    free(c->switch_node);
    free(c->switch_pos);
    free(c->switch_time);
    free(c->active);
    free(c->waits);
    free(c->ticks);
    for (int j = 0; j < c->nevery; j++)
        Py_DECREF(c->every[j]);
    Py_XDECREF(c->size_d);
    Py_XDECREF(c->signal_d);
    Py_XDECREF(c->ready_d);
    Py_XDECREF(c->informed_d);
    Py_XDECREF(c->switch_d);
    Py_XDECREF(c->active_l);
    Py_XDECREF(c->traj_l);
}

static const CoreSpec spec = {
    sizeof(CL), EV_KINDS, 0, core_load, load_payload, build_payload, loop, core_store,
    core_release,
};

const char cl_run_doc[] =
"run_clustering(proto, horizon, funcs, wiring, kinds) -> bool\n\n"
"Run an eligible ClusteringSim's event loop up to ``horizon``, as\n"
"``proto.sim.run(until=horizon)`` would, and write the state back.\n"
"``funcs`` is ``(_tick, _exchange, _join, _leader_signal, _sample)`` of\n"
"ClusteringSim; ``wiring`` and ``kinds`` are run_multileader's.  Returns\n"
"False, having changed nothing, when the state is not one the core models.";

PyObject *cl_run(PyObject *module, PyObject *args)
{
    (void)module;
    return sim_main(args, &spec);
}
