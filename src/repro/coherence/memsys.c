/* The compiled memory system: private L1/L2 caches, the full-map
 * directory with LW-ID, the memory channels' horizons and the memory
 * value image, driven by one call per load or store.
 *
 * This is a line-for-line translation of the Python oracle
 * (repro.coherence.protocol.CoherenceEngine over repro.mem.Cache,
 * L1Cache, MemoryChannels, MainMemory and repro.coherence.directory):
 * every branch, counter bump and floating-point operation happens in
 * the oracle's order, so every SimStats field stays bit-identical.
 *
 * Exact order:
 *   - each cache set is an array in LRU order, oldest first: a hit
 *     moves the line to the end and the victim is element 0, as the
 *     oracle's OrderedDict sets do;
 *   - every walk (dirty lines, delayed lines, golden revert) visits
 *     sets in ascending index, oldest line first;
 *   - directory entries and image keys keep insertion order.
 *
 * The core calls back into Python only for scheme events (see the
 * extern "Python" declarations in repro/coherence/build.py):
 *   mem_cb_dependence  LW-ID names another core and tracking is on;
 *   mem_cb_wsig        a store stamps the writer's WSIG, tracking on;
 *   mem_cb_line        a logged writeback and/or a Delayed line left.
 * A callback returning a negative value marks the core failed; every
 * entry point then returns a negative result and the Python side
 * raises the stored exception.  A failed core sends no further event,
 * so the first failure is the one that surfaces.
 *
 * The machine loop (mem_advance, at the end of this file) runs on a
 * separate mem_loop_t: the event heap, every core's hot state and the
 * trace columns.  It executes COMPUTE/LOAD/STORE records itself and
 * returns to Python, with a reason code, for everything else: a
 * scheduled call or pause popping, a synchronization, OUTPUT or END
 * record, the scheme's post_op gate, the cycle limit, an empty heap or
 * a failed core.  It is a translation of the Python loop
 * (repro.sim.machine.Machine._advance_main) with the same order of
 * heap pops, clock updates and floating-point operations.
 *
 * The source reads no clock and no entropy. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ST_INVALID 0
#define ST_SHARED 1
#define ST_EXCLUSIVE 2
#define ST_MODIFIED 3

#define DIR_UNCACHED 0
#define DIR_SHARED 1
#define DIR_EXCL 2

/* mem_cb_line kinds: which interval tags the log entry, and whether the
 * line was a Delayed line leaving the cache. */
#define LINE_LOG_CURRENT 0   /* log tagged tracker.interval_of(pid) */
#define LINE_LOG_GIVEN 1     /* log tagged with the interval passed */
#define LINE_LOG_DELAYED 2   /* delayed_interval_of + on_line_left_cache */
#define LINE_LEFT 3          /* on_line_left_cache only (nothing logged) */

#define FAIL_CALLBACK 1
#define FAIL_GOLDEN 2
#define FAIL_INCLUSION 3
#define FAIL_OWNER 4
#define FAIL_MEMORY 5

typedef struct {
    int64_t addr;
    int64_t value;
    uint8_t state;
    uint8_t dirty;
    uint8_t delayed;
} mem_line_t;

typedef struct {
    int64_t addr;
    uint64_t sharers;
    int32_t owner;      /* -1: none */
    int32_t lw_id;      /* -1: none */
    int32_t mode;
} mem_dirent_t;

/* Insertion-ordered hash index: key -> dense position. */
typedef struct {
    int64_t *keys;
    int64_t *slots;     /* dense position + 1; 0 = empty */
    int64_t n;
    int64_t cap;
    int64_t nslots;     /* power of two */
} mem_index_t;

typedef struct {
    mem_index_t ix;
    int64_t *vals;
} mem_map_t;

typedef struct {
    mem_index_t ix;
    mem_dirent_t *ents;
} mem_dir_t;

typedef struct mem_core {
    /* geometry and timing (from MachineConfig) */
    int n_cores;
    int l1_sets, l1_assoc, l2_sets, l2_assoc, n_ch;
    int64_t l1_hit, l2_hit, remote_l2, memory_cycles;
    int64_t dram_occ, logged_occ;
    int check;
    int tracking;
    void *owner;        /* Python handle passed to every callback */

    /* caches: per core, n_sets * assoc slots, count per set */
    int64_t *l1;
    int32_t *l1_count;
    mem_line_t *l2;
    int32_t *l2_count;

    mem_dir_t dir;
    mem_map_t image;    /* memory value image */
    mem_map_t golden;   /* last value stored per line (check mode) */

    /* channels */
    double *demand_busy, *wb_busy, *ckpt_wb_busy;
    int64_t bg_streams;
    int64_t demand_accesses, wb_transfers;
    double demand_wait_cycles, demand_ckpt_wait_cycles;

    /* per-core counters */
    int64_t *l1_hits, *l1_misses, *l2_hits, *l2_misses, *epochs;
    double *ckpt_wait;

    /* engine counters */
    int64_t energy_l1, energy_l2, energy_dir, energy_dram, energy_log;
    int64_t energy_wsig, energy_depreg;
    int64_t fast_loads, fast_stores;
    int64_t invalidations_sent, forced_delayed_writebacks;
    int64_t base_messages, dep_messages;

    /* failure report */
    int failed;
    int64_t fail_addr, fail_loaded, fail_expected;
} mem_core_t;

static int mem_cb_dependence(void *owner, int consumer, int producer,
                             int64_t addr);
static int mem_cb_wsig(void *owner, int pid, int64_t addr);
static int mem_cb_line(void *owner, double now, int pid, int64_t addr,
                       int64_t old, int kind, int64_t interval);

/* ------------------------------------------------------------------ */
/* helpers                                                             */
/* ------------------------------------------------------------------ */

/* Python's ``a % n`` for n > 0. */
static inline int64_t pymod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    return r < 0 ? r + n : r;
}

static inline uint64_t mix(int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 29);
}

static void fail(mem_core_t *c, int kind)
{
    if (!c->failed)
        c->failed = kind;
}

/* ------------------------------------------------------------------ */
/* insertion-ordered index                                             */
/* ------------------------------------------------------------------ */

static int ix_init(mem_index_t *ix)
{
    ix->n = 0;
    ix->cap = 64;
    ix->nslots = 128;
    ix->keys = malloc(sizeof(int64_t) * ix->cap);
    ix->slots = calloc(ix->nslots, sizeof(int64_t));
    return ix->keys && ix->slots;
}

static int64_t ix_find(const mem_index_t *ix, int64_t key)
{
    uint64_t mask = (uint64_t)ix->nslots - 1;
    uint64_t h = mix(key) & mask;
    for (;;) {
        int64_t s = ix->slots[h];
        if (!s)
            return -1;
        if (ix->keys[s - 1] == key)
            return s - 1;
        h = (h + 1) & mask;
    }
}

static int ix_rehash(mem_index_t *ix, int64_t nslots)
{
    int64_t *slots = calloc(nslots, sizeof(int64_t));
    uint64_t mask = (uint64_t)nslots - 1;
    int64_t i;
    if (!slots)
        return 0;
    for (i = 0; i < ix->n; i++) {
        uint64_t h = mix(ix->keys[i]) & mask;
        while (slots[h])
            h = (h + 1) & mask;
        slots[h] = i + 1;
    }
    free(ix->slots);
    ix->slots = slots;
    ix->nslots = nslots;
    return 1;
}

/* Appends ``key`` (known absent); the caller grew the dense arrays so
 * that ix->n < ix->cap.  Returns the new position or -1. */
static int64_t ix_append(mem_index_t *ix, int64_t key)
{
    uint64_t mask, h;
    if ((ix->n + 1) * 2 > ix->nslots && !ix_rehash(ix, ix->nslots * 2))
        return -1;
    mask = (uint64_t)ix->nslots - 1;
    h = mix(key) & mask;
    while (ix->slots[h])
        h = (h + 1) & mask;
    ix->keys[ix->n] = key;
    ix->slots[h] = ix->n + 1;
    return ix->n++;
}

static int ix_clone(mem_index_t *dst, const mem_index_t *src)
{
    *dst = *src;
    dst->keys = malloc(sizeof(int64_t) * src->cap);
    dst->slots = malloc(sizeof(int64_t) * src->nslots);
    if (!dst->keys || !dst->slots)
        return 0;
    memcpy(dst->keys, src->keys, sizeof(int64_t) * src->n);
    memcpy(dst->slots, src->slots, sizeof(int64_t) * src->nslots);
    return 1;
}

static void ix_free(mem_index_t *ix)
{
    free(ix->keys);
    free(ix->slots);
}

/* ------------------------------------------------------------------ */
/* value maps (image, golden) and the directory                        */
/* ------------------------------------------------------------------ */

static int map_init(mem_map_t *m)
{
    if (!ix_init(&m->ix))
        return 0;
    m->vals = malloc(sizeof(int64_t) * m->ix.cap);
    return m->vals != NULL;
}

static int64_t map_get(const mem_map_t *m, int64_t key)
{
    int64_t i = ix_find(&m->ix, key);
    return i < 0 ? 0 : m->vals[i];
}

static int map_set(mem_core_t *c, mem_map_t *m, int64_t key, int64_t val)
{
    int64_t i = ix_find(&m->ix, key);
    if (i < 0) {
        if (m->ix.n == m->ix.cap) {
            int64_t cap = m->ix.cap * 2;
            int64_t *keys = realloc(m->ix.keys, sizeof(int64_t) * cap);
            int64_t *vals;
            if (!keys) {
                fail(c, FAIL_MEMORY);
                return 0;
            }
            m->ix.keys = keys;
            vals = realloc(m->vals, sizeof(int64_t) * cap);
            if (!vals) {
                fail(c, FAIL_MEMORY);
                return 0;
            }
            m->vals = vals;
            m->ix.cap = cap;
        }
        i = ix_append(&m->ix, key);
        if (i < 0) {
            fail(c, FAIL_MEMORY);
            return 0;
        }
    }
    m->vals[i] = val;
    return 1;
}

static int map_clone(mem_map_t *dst, const mem_map_t *src)
{
    if (!ix_clone(&dst->ix, &src->ix))
        return 0;
    dst->vals = malloc(sizeof(int64_t) * src->ix.cap);
    if (!dst->vals)
        return 0;
    memcpy(dst->vals, src->vals, sizeof(int64_t) * src->ix.n);
    return 1;
}

static int dir_init(mem_dir_t *d)
{
    if (!ix_init(&d->ix))
        return 0;
    d->ents = malloc(sizeof(mem_dirent_t) * d->ix.cap);
    return d->ents != NULL;
}

/* Directory.entry: the entry of ``addr``, created UNCACHED. */
static mem_dirent_t *dir_entry(mem_core_t *c, int64_t addr)
{
    mem_dir_t *d = &c->dir;
    int64_t i = ix_find(&d->ix, addr);
    mem_dirent_t *e;
    if (i >= 0)
        return &d->ents[i];
    if (d->ix.n == d->ix.cap) {
        int64_t cap = d->ix.cap * 2;
        int64_t *keys = realloc(d->ix.keys, sizeof(int64_t) * cap);
        mem_dirent_t *ents;
        if (!keys)
            return NULL;
        d->ix.keys = keys;
        ents = realloc(d->ents, sizeof(mem_dirent_t) * cap);
        if (!ents)
            return NULL;
        d->ents = ents;
        d->ix.cap = cap;
    }
    i = ix_append(&d->ix, addr);
    if (i < 0)
        return NULL;
    e = &d->ents[i];
    e->addr = addr;
    e->sharers = 0;
    e->owner = -1;
    e->lw_id = -1;
    e->mode = DIR_UNCACHED;
    return e;
}

static mem_dirent_t *dir_peek(mem_core_t *c, int64_t addr)
{
    int64_t i = ix_find(&c->dir.ix, addr);
    return i < 0 ? NULL : &c->dir.ents[i];
}

/* Directory.evict_copy: a copy left ``pid`` (LW-ID preserved). */
static void dir_evict_copy(mem_core_t *c, int64_t addr, int pid)
{
    mem_dirent_t *e = dir_peek(c, addr);
    if (!e)
        return;
    if (e->mode == DIR_EXCL && e->owner == pid) {
        e->mode = DIR_UNCACHED;
        e->owner = -1;
        e->sharers = 0;
    } else if (e->mode == DIR_SHARED) {
        e->sharers &= ~(1ull << pid);
        if (e->sharers == 0)
            e->mode = DIR_UNCACHED;
    }
}

/* ------------------------------------------------------------------ */
/* caches                                                              */
/* ------------------------------------------------------------------ */

#define L1SET(c, pid, s) \
    ((c)->l1 + ((int64_t)(pid) * (c)->l1_sets + (s)) * (c)->l1_assoc)
#define L1CNT(c, pid, s) ((c)->l1_count[(int64_t)(pid) * (c)->l1_sets + (s)])
#define L2SET(c, pid, s) \
    ((c)->l2 + ((int64_t)(pid) * (c)->l2_sets + (s)) * (c)->l2_assoc)
#define L2CNT(c, pid, s) ((c)->l2_count[(int64_t)(pid) * (c)->l2_sets + (s)])

/* L1Cache: position of ``addr`` in its set, or -1. */
static inline int l1_pos(mem_core_t *c, int pid, int64_t addr,
                         int64_t **set_out, int32_t **cnt_out)
{
    int s = (int)pymod(addr, c->l1_sets);
    int64_t *set = L1SET(c, pid, s);
    int32_t *cnt = &L1CNT(c, pid, s);
    int i, n = *cnt;
    *set_out = set;
    *cnt_out = cnt;
    for (i = 0; i < n; i++)
        if (set[i] == addr)
            return i;
    return -1;
}

static inline void l1_to_end(int64_t *set, int n, int i)
{
    int64_t addr = set[i];
    memmove(set + i, set + i + 1, sizeof(int64_t) * (n - i - 1));
    set[n - 1] = addr;
}

/* L1Cache.fill */
static void l1_fill(mem_core_t *c, int pid, int64_t addr)
{
    int64_t *set;
    int32_t *cnt;
    int i = l1_pos(c, pid, addr, &set, &cnt);
    if (i >= 0) {
        l1_to_end(set, *cnt, i);
        return;
    }
    if (*cnt >= c->l1_assoc) {
        memmove(set, set + 1, sizeof(int64_t) * (*cnt - 1));
        (*cnt)--;
    }
    set[(*cnt)++] = addr;
}

/* L1Cache.invalidate */
static void l1_invalidate(mem_core_t *c, int pid, int64_t addr)
{
    int64_t *set;
    int32_t *cnt;
    int i = l1_pos(c, pid, addr, &set, &cnt);
    if (i < 0)
        return;
    memmove(set + i, set + i + 1, sizeof(int64_t) * (*cnt - i - 1));
    (*cnt)--;
}

/* Cache.peek: the resident line or NULL (no LRU touch, no counters). */
static mem_line_t *l2_peek(mem_core_t *c, int pid, int64_t addr)
{
    int s = (int)pymod(addr, c->l2_sets);
    mem_line_t *set = L2SET(c, pid, s);
    int i, n = L2CNT(c, pid, s);
    for (i = 0; i < n; i++)
        if (set[i].addr == addr)
            return &set[i];
    return NULL;
}

/* The oracle's probe of ``l2._map`` plus ``move_to_end`` on a hit:
 * returns the line at its new (most recent) position, or NULL. */
static mem_line_t *l2_touch(mem_core_t *c, int pid, int64_t addr)
{
    int s = (int)pymod(addr, c->l2_sets);
    mem_line_t *set = L2SET(c, pid, s);
    int i, n = L2CNT(c, pid, s);
    for (i = 0; i < n; i++) {
        if (set[i].addr == addr) {
            if (i != n - 1) {
                mem_line_t line = set[i];
                memmove(set + i, set + i + 1,
                        sizeof(mem_line_t) * (n - i - 1));
                set[n - 1] = line;
            }
            return &set[n - 1];
        }
    }
    return NULL;
}

/* Cache.invalidate: removes ``addr``; returns 1 and the line if it was
 * resident. */
static int l2_invalidate(mem_core_t *c, int pid, int64_t addr,
                         mem_line_t *out)
{
    int s = (int)pymod(addr, c->l2_sets);
    mem_line_t *set = L2SET(c, pid, s);
    int32_t *cnt = &L2CNT(c, pid, s);
    int i, n = *cnt;
    for (i = 0; i < n; i++) {
        if (set[i].addr == addr) {
            *out = set[i];
            memmove(set + i, set + i + 1, sizeof(mem_line_t) * (n - i - 1));
            (*cnt)--;
            return 1;
        }
    }
    return 0;
}

/* Cache.insert: installs ``addr``; returns 1 and the victim if one was
 * displaced. */
static int l2_insert(mem_core_t *c, int pid, int64_t addr, int state,
                     int64_t value, mem_line_t *victim)
{
    int s = (int)pymod(addr, c->l2_sets);
    mem_line_t *set = L2SET(c, pid, s);
    int32_t *cnt = &L2CNT(c, pid, s);
    mem_line_t *line = l2_touch(c, pid, addr);
    int evicted = 0;
    if (line) {  /* refill over an existing line: update in place */
        line->state = (uint8_t)state;
        line->value = value;
        return 0;
    }
    if (*cnt >= c->l2_assoc) {
        *victim = set[0];
        memmove(set, set + 1, sizeof(mem_line_t) * (*cnt - 1));
        (*cnt)--;
        evicted = 1;
    }
    line = &set[(*cnt)++];
    line->addr = addr;
    line->state = (uint8_t)state;
    line->value = value;
    line->dirty = state == ST_MODIFIED;
    line->delayed = 0;
    return evicted;
}

/* ------------------------------------------------------------------ */
/* channels (MemoryChannels)                                           */
/* ------------------------------------------------------------------ */

static double ch_demand_access(mem_core_t *c, double now, int64_t addr,
                               double *ckpt_share_out)
{
    int ch = (int)pymod(addr, c->n_ch);
    double occ = (double)c->dram_occ;
    double busy = c->demand_busy[ch];
    double start = busy > now ? busy : now;
    double queue_wait = start - now;
    double wb_busy = c->wb_busy[ch];
    double wb_backlog = wb_busy - start;
    double cap, interference, ckpt_backlog, ckpt_share, extra;
    wb_backlog = wb_backlog > 0.0 ? wb_backlog : 0.0;
    cap = (double)c->logged_occ * (1.0 + (double)c->bg_streams);
    interference = cap < wb_backlog ? cap : wb_backlog;
    ckpt_backlog = c->ckpt_wb_busy[ch] - start;
    ckpt_backlog = ckpt_backlog > 0.0 ? ckpt_backlog : 0.0;
    ckpt_share = ckpt_backlog < interference ? ckpt_backlog : interference;
    c->demand_busy[ch] = start + occ;
    c->wb_busy[ch] = (now > wb_busy ? now : wb_busy) + occ;
    c->demand_accesses++;
    extra = queue_wait + interference;
    c->demand_wait_cycles += extra;
    c->demand_ckpt_wait_cycles += ckpt_share;
    *ckpt_share_out = ckpt_share;
    return extra;
}

/* Python's max(a, b): the first argument unless the second is larger. */
static inline double pymax(double a, double b)
{
    return b > a ? b : a;
}

static double ch_writeback(mem_core_t *c, double now, int64_t addr,
                           int logged, int checkpoint)
{
    int ch = (int)pymod(addr, c->n_ch);
    double occ = (double)(logged ? c->logged_occ : c->dram_occ);
    double start = pymax(pymax(now, c->wb_busy[ch]), c->demand_busy[ch]);
    double done = start + occ;
    c->wb_busy[ch] = done;
    if (checkpoint)
        c->ckpt_wb_busy[ch] = done;
    c->wb_transfers++;
    return done;
}

static double ch_priority_writeback(mem_core_t *c, double now, int64_t addr)
{
    int ch = (int)pymod(addr, c->n_ch);
    int64_t occ = c->logged_occ;
    double contention = (double)(occ * c->bg_streams) / (4.0 * c->n_ch);
    double start = pymax(now, c->demand_busy[ch]) + contention;
    double done = start + (double)occ;
    c->demand_busy[ch] = done;
    c->ckpt_wb_busy[ch] = pymax(c->ckpt_wb_busy[ch], done);
    c->wb_transfers++;
    return done;
}

/* ------------------------------------------------------------------ */
/* memory image and Python events                                      */
/* ------------------------------------------------------------------ */

/* The Python events, each returning the callback's result (negative on
 * failure).  None reaches Python once the core has failed: the scheme's
 * state and the log stop changing with the first failure, and a second
 * exception cannot replace the first. */
static int event_line(mem_core_t *c, double now, int pid, int64_t addr,
                      int64_t old, int kind, int64_t interval)
{
    int r = c->failed ? -1 : mem_cb_line(c->owner, now, pid, addr, old,
                                         kind, interval);
    if (r < 0)
        fail(c, FAIL_CALLBACK);
    return r;
}

static int event_dependence(mem_core_t *c, int consumer, int producer,
                            int64_t addr)
{
    int r = c->failed ? -1 : mem_cb_dependence(c->owner, consumer,
                                               producer, addr);
    if (r < 0)
        fail(c, FAIL_CALLBACK);
    return r;
}

static void event_wsig(mem_core_t *c, int pid, int64_t addr)
{
    if (c->failed || mem_cb_wsig(c->owner, pid, addr) < 0)
        fail(c, FAIL_CALLBACK);
}

/* MainMemory.writeback: the image takes ``value``; Python logs the old
 * value (first-writeback filter, interval lookup, ReviveLog.append). */
static void memory_writeback(mem_core_t *c, double now, int pid,
                             int64_t addr, int64_t value, int kind,
                             int64_t interval)
{
    int64_t old = map_get(&c->image, addr);
    map_set(c, &c->image, addr, value);
    event_line(c, now, pid, addr, old, kind, interval);
}

static void check_load(mem_core_t *c, int64_t addr, int64_t value)
{
    int64_t expected;
    if (!c->check)
        return;
    expected = map_get(&c->golden, addr);
    if (value != expected && !c->failed) {
        c->failed = FAIL_GOLDEN;
        c->fail_addr = addr;
        c->fail_loaded = value;
        c->fail_expected = expected;
    }
}

/* _handle_dependence: producer -> consumer through LW-ID. */
static void handle_dependence(mem_core_t *c, mem_dirent_t *e, int consumer,
                              int piggybacked)
{
    int producer = e->lw_id;
    int claims;
    if (producer < 0 || producer == consumer || !c->tracking)
        return;
    claims = event_dependence(c, consumer, producer, e->addr);
    if (claims < 0)
        return;
    c->energy_depreg++;
    c->energy_wsig++;
    if (!piggybacked)
        c->dep_messages += 2;
    if (claims) {
        c->energy_depreg++;
    } else {
        c->dep_messages++;
        e->lw_id = -1;
    }
}

static void on_write(mem_core_t *c, int pid, int64_t addr)
{
    if (!c->tracking)
        return;
    event_wsig(c, pid, addr);
    c->energy_wsig++;
}

static void stamp_writer(mem_core_t *c, mem_dirent_t *e, int pid)
{
    e->lw_id = pid;
    on_write(c, pid, e->addr);
}

/* ------------------------------------------------------------------ */
/* protocol helpers                                                    */
/* ------------------------------------------------------------------ */

static void evict(mem_core_t *c, int pid, const mem_line_t *victim,
                  double now)
{
    int64_t addr = victim->addr;
    c->epochs[pid]++;
    l1_invalidate(c, pid, addr);    /* inclusion */
    if (victim->delayed) {
        c->forced_delayed_writebacks++;
        if (!victim->dirty)
            event_line(c, now, pid, addr, 0, LINE_LEFT, 0);
    }
    if (victim->dirty) {
        ch_writeback(c, now, addr, 1, 0);
        memory_writeback(c, now, pid, addr, victim->value,
                         victim->delayed ? LINE_LOG_DELAYED
                                         : LINE_LOG_CURRENT, 0);
        c->energy_dram += 2;
        c->energy_log++;
    }
    c->base_messages++;
    dir_evict_copy(c, addr, pid);
    c->energy_dir++;
}

static void install(mem_core_t *c, int pid, int64_t addr, int state,
                    int64_t value, double now)
{
    mem_line_t victim;
    if (l2_insert(c, pid, addr, state, value, &victim))
        evict(c, pid, &victim, now);
    l1_fill(c, pid, addr);
}

static int64_t invalidate_sharers(mem_core_t *c, mem_dirent_t *e, int keep,
                                  double now)
{
    int64_t count = 0;
    int64_t addr = e->addr;
    uint64_t mask = e->sharers;
    while (mask) {
        int sharer = __builtin_ctzll(mask);
        mem_line_t line;
        int held;
        mask &= mask - 1;
        if (sharer == keep)
            continue;
        c->epochs[sharer]++;
        held = l2_invalidate(c, sharer, addr, &line);
        l1_invalidate(c, sharer, addr);
        if (held && line.delayed) {
            /* The checkpointed copy must reach memory before the line
             * leaves the cache (Section 4.1). */
            ch_writeback(c, now, addr, 1, 1);
            memory_writeback(c, now, sharer, addr, line.value,
                             LINE_LOG_DELAYED, 0);
            c->forced_delayed_writebacks++;
        }
        count++;
    }
    c->base_messages += 2 * count;
    c->invalidations_sent += count;
    e->sharers = 0;
    return count;
}

static int64_t fetch_from_owner(mem_core_t *c, mem_dirent_t *e, int pid,
                                double now, int downgrade)
{
    int owner = e->owner;
    int64_t addr = e->addr;
    mem_line_t *oline;
    int64_t value;
    c->epochs[owner]++;
    oline = l2_peek(c, owner, addr);
    if (!oline) {
        fail(c, FAIL_OWNER);
        return 0;
    }
    value = oline->value;
    c->energy_l2++;
    if (oline->delayed) {
        ch_writeback(c, now, addr, 1, 1);
        memory_writeback(c, now, owner, addr, oline->value,
                         LINE_LOG_DELAYED, 0);
        c->forced_delayed_writebacks++;
        oline->delayed = 0;
        oline->dirty = 0;
        oline->state = ST_EXCLUSIVE;
    }
    if (downgrade) {
        if (oline->dirty) {
            ch_writeback(c, now, addr, 1, 0);
            memory_writeback(c, now, owner, addr, oline->value,
                             LINE_LOG_CURRENT, 0);
            c->energy_dram += 2;
            c->energy_log++;
            oline->dirty = 0;
        }
        oline->state = ST_SHARED;
        e->mode = DIR_SHARED;
        e->sharers = (1ull << owner) | (1ull << pid);
        e->owner = -1;
    } else {
        mem_line_t gone;
        l2_invalidate(c, owner, addr, &gone);
        l1_invalidate(c, owner, addr);
        e->owner = pid;
    }
    c->base_messages += 2;
    return value;
}

static double force_delayed_writeback(mem_core_t *c, int pid,
                                      mem_line_t *line, double now)
{
    double done, stall;
    c->epochs[pid]++;
    done = ch_priority_writeback(c, now, line->addr);
    memory_writeback(c, now, pid, line->addr, line->value,
                     LINE_LOG_DELAYED, 0);
    c->energy_dram += 2;
    c->energy_log++;
    line->delayed = 0;
    c->forced_delayed_writebacks++;
    stall = pymax(0.0, done - now);
    c->ckpt_wait[pid] += stall;
    return stall;
}

/* ------------------------------------------------------------------ */
/* public operations                                                   */
/* ------------------------------------------------------------------ */

double mem_load(mem_core_t *c, int pid, int64_t addr, double now)
{
    int64_t *set;
    int32_t *cnt;
    mem_line_t *line;
    mem_dirent_t *e;
    int64_t value;
    double lat, extra, ckpt_share;
    int i;
    if (c->failed)
        return -1.0;
    c->energy_l1++;
    i = l1_pos(c, pid, addr, &set, &cnt);
    if (i >= 0) {
        /* L1 hit: fixed latency, LRU touch, no directory traffic. */
        l1_to_end(set, *cnt, i);
        c->l1_hits[pid]++;
        c->fast_loads++;
        if (c->check) {
            line = l2_peek(c, pid, addr);
            if (!line) {
                fail(c, FAIL_INCLUSION);
                return -1.0;
            }
            check_load(c, addr, line->value);
            if (c->failed)
                return -1.0;
        }
        return (double)c->l1_hit;
    }
    c->l1_misses[pid]++;
    c->energy_l2++;
    line = l2_touch(c, pid, addr);
    if (line) {
        /* L2 hit: refill the L1 presence filter. */
        c->l2_hits[pid]++;
        c->fast_loads++;
        value = line->value;
        l1_fill(c, pid, addr);
        check_load(c, addr, value);
        return c->failed ? -1.0 : (double)c->l2_hit;
    }
    c->l2_misses[pid]++;
    e = dir_entry(c, addr);
    if (!e) {
        fail(c, FAIL_MEMORY);
        return -1.0;
    }
    c->energy_dir++;
    c->base_messages += 2;
    lat = (double)c->l2_hit;
    if (e->mode == DIR_EXCL && e->owner != pid) {
        handle_dependence(c, e, pid, 1);
        value = fetch_from_owner(c, e, pid, now, 1);
        lat += (double)c->remote_l2;
        install(c, pid, addr, ST_SHARED, value, now);
    } else if (e->mode == DIR_SHARED) {
        handle_dependence(c, e, pid, 0);
        extra = ch_demand_access(c, now, addr, &ckpt_share);
        c->ckpt_wait[pid] += ckpt_share;
        lat += (double)c->memory_cycles + extra;
        value = map_get(&c->image, addr);
        c->energy_dram++;
        e->sharers |= 1ull << pid;
        install(c, pid, addr, ST_SHARED, value, now);
    } else {  /* UNCACHED -> RDX: grant Exclusive, stamp LW-ID */
        handle_dependence(c, e, pid, 0);
        extra = ch_demand_access(c, now, addr, &ckpt_share);
        c->ckpt_wait[pid] += ckpt_share;
        lat += (double)c->memory_cycles + extra;
        value = map_get(&c->image, addr);
        c->energy_dram++;
        e->mode = DIR_EXCL;
        e->owner = pid;
        e->sharers = 0;
        stamp_writer(c, e, pid);
        install(c, pid, addr, ST_EXCLUSIVE, value, now);
    }
    check_load(c, addr, value);
    return c->failed ? -1.0 : lat;
}

double mem_store(mem_core_t *c, int pid, int64_t addr, int64_t value,
                 double now)
{
    mem_line_t *line;
    mem_dirent_t *e;
    double lat, extra, ckpt_share;
    if (c->failed)
        return -1.0;
    if (c->check)
        map_set(c, &c->golden, addr, value);
    c->energy_l1++;
    c->energy_l2++;
    line = l2_touch(c, pid, addr);
    if (!line) {
        c->l2_misses[pid]++;
    } else {
        c->l2_hits[pid]++;
        if (line->state == ST_MODIFIED && !line->delayed) {
            /* Private hit: already MODIFIED by self, nothing Delayed. */
            c->fast_stores++;
            line->value = value;
            return c->failed ? -1.0 : (double)c->l2_hit;
        }
    }
    lat = (double)c->l2_hit;
    if (line && line->state == ST_MODIFIED) {
        /* MODIFIED but Delayed: flush the checkpointed copy first. */
        lat += force_delayed_writeback(c, pid, line, now);
        line->value = value;
        return c->failed ? -1.0 : lat;
    }
    if (line && line->state == ST_EXCLUSIVE) {
        /* Silent E -> M upgrade. */
        if (line->delayed)
            lat += force_delayed_writeback(c, pid, line, now);
        line->state = ST_MODIFIED;
        line->dirty = 1;
        line->value = value;
        on_write(c, pid, addr);
        return c->failed ? -1.0 : lat;
    }
    e = dir_entry(c, addr);
    if (!e) {
        fail(c, FAIL_MEMORY);
        return -1.0;
    }
    c->energy_dir++;
    c->base_messages += 2;
    if (line && line->state == ST_SHARED) {
        /* Upgrade: invalidate the other sharers. */
        handle_dependence(c, e, pid, 0);
        invalidate_sharers(c, e, pid, now);
        e->mode = DIR_EXCL;
        e->owner = pid;
        lat += (double)c->remote_l2;
        line->state = ST_MODIFIED;
        line->dirty = 1;
        line->value = value;
        stamp_writer(c, e, pid);
        return c->failed ? -1.0 : lat;
    }
    /* Full write miss. */
    if (e->mode == DIR_EXCL && e->owner != pid) {
        handle_dependence(c, e, pid, 1);
        fetch_from_owner(c, e, pid, now, 0);
        lat += (double)c->remote_l2;
    } else if (e->mode == DIR_SHARED) {
        handle_dependence(c, e, pid, 0);
        invalidate_sharers(c, e, pid, now);
        extra = ch_demand_access(c, now, addr, &ckpt_share);
        c->ckpt_wait[pid] += ckpt_share;
        lat += (double)c->memory_cycles + extra;
        c->energy_dram++;
    } else {
        handle_dependence(c, e, pid, 0);
        extra = ch_demand_access(c, now, addr, &ckpt_share);
        c->ckpt_wait[pid] += ckpt_share;
        lat += (double)c->memory_cycles + extra;
        c->energy_dram++;
    }
    e->mode = DIR_EXCL;
    e->owner = pid;
    e->sharers = 0;
    stamp_writer(c, e, pid);
    install(c, pid, addr, ST_MODIFIED, value, now);
    return c->failed ? -1.0 : lat;
}

/* ------------------------------------------------------------------ */
/* checkpoint / rollback services                                      */
/* ------------------------------------------------------------------ */

void mem_fastpath_epoch(mem_core_t *c, int pid)
{
    c->epochs[pid]++;
}

/* Burst-writeback every dirty line of ``pid`` (lines stay cached clean,
 * M -> E); returns the completion time and stores the line count. */
double mem_checkpoint_writeback(mem_core_t *c, int pid, double now,
                                int64_t interval, int64_t *n_lines)
{
    double done = now;
    int64_t count = 0;
    int s, i;
    c->epochs[pid]++;
    for (s = 0; s < c->l2_sets; s++) {
        mem_line_t *set = L2SET(c, pid, s);
        int n = L2CNT(c, pid, s);
        for (i = 0; i < n; i++) {
            mem_line_t *line = &set[i];
            if (!line->dirty)
                continue;
            done = pymax(done, ch_writeback(c, now, line->addr, 1, 1));
            memory_writeback(c, now, pid, line->addr, line->value,
                             LINE_LOG_GIVEN, interval);
            c->energy_dram += 2;
            c->energy_log++;
            line->dirty = 0;
            line->delayed = 0;
            if (line->state == ST_MODIFIED)
                line->state = ST_EXCLUSIVE;
            count++;
        }
    }
    *n_lines = count;
    return c->failed ? -1.0 : done;
}

/* Set the Delayed bit on every dirty line; returns the count. */
int64_t mem_mark_delayed(mem_core_t *c, int pid)
{
    int64_t count = 0;
    int s, i;
    c->epochs[pid]++;
    for (s = 0; s < c->l2_sets; s++) {
        mem_line_t *set = L2SET(c, pid, s);
        int n = L2CNT(c, pid, s);
        for (i = 0; i < n; i++) {
            if (set[i].dirty) {
                set[i].delayed = 1;
                count++;
            }
        }
    }
    return count;
}

/* Drain every still-Delayed line of ``pid`` to memory, logged under
 * ``interval``; returns the count (negative on failure). */
int64_t mem_complete_delayed(mem_core_t *c, int pid, double now,
                             int64_t interval)
{
    int64_t count = 0;
    int s, i;
    c->epochs[pid]++;
    for (s = 0; s < c->l2_sets; s++) {
        mem_line_t *set = L2SET(c, pid, s);
        int n = L2CNT(c, pid, s);
        for (i = 0; i < n; i++) {
            mem_line_t *line = &set[i];
            if (!line->delayed)
                continue;
            memory_writeback(c, now, pid, line->addr, line->value,
                             LINE_LOG_GIVEN, interval);
            c->energy_dram += 2;
            c->energy_log++;
            line->delayed = 0;
            line->dirty = 0;
            if (line->state == ST_MODIFIED)
                line->state = ST_EXCLUSIVE;
            count++;
        }
    }
    return c->failed ? -1 : count;
}

/* Flash-invalidate both cache levels of ``pid`` (rollback). */
int64_t mem_invalidate_core(mem_core_t *c, int pid)
{
    int64_t n = 0, i;
    uint64_t bit = 1ull << pid;
    int s, j;
    c->epochs[pid]++;
    if (c->check) {
        /* Dirty data discarded by the invalidation reverts the golden
         * image to whatever memory holds. */
        for (s = 0; s < c->l2_sets; s++) {
            mem_line_t *set = L2SET(c, pid, s);
            int cnt = L2CNT(c, pid, s);
            for (j = 0; j < cnt; j++)
                if (set[j].dirty)
                    map_set(c, &c->golden, set[j].addr,
                            map_get(&c->image, set[j].addr));
        }
    }
    /* Directory.purge_core(pid, clear_lw=True) */
    for (i = 0; i < c->dir.ix.n; i++) {
        mem_dirent_t *e = &c->dir.ents[i];
        if (e->mode == DIR_EXCL && e->owner == pid) {
            e->mode = DIR_UNCACHED;
            e->owner = -1;
            e->sharers = 0;
        } else if (e->sharers & bit) {
            e->sharers &= ~bit;
            if (e->sharers == 0 && e->mode == DIR_SHARED)
                e->mode = DIR_UNCACHED;
        }
        if (e->lw_id == pid)
            e->lw_id = -1;
    }
    for (s = 0; s < c->l2_sets; s++) {
        n += L2CNT(c, pid, s);
        L2CNT(c, pid, s) = 0;
    }
    for (s = 0; s < c->l1_sets; s++)
        L1CNT(c, pid, s) = 0;
    c->energy_l2 += n;
    return c->failed ? -1 : n;
}

/* ------------------------------------------------------------------ */
/* read-only introspection                                             */
/* ------------------------------------------------------------------ */

/* Addresses of ``pid``'s dirty lines in walk order; returns the count
 * written (at most ``cap``). */
int64_t mem_dirty_lines(mem_core_t *c, int pid, int64_t *out, int64_t cap)
{
    int64_t count = 0;
    int s, i;
    for (s = 0; s < c->l2_sets; s++) {
        mem_line_t *set = L2SET(c, pid, s);
        int n = L2CNT(c, pid, s);
        for (i = 0; i < n; i++)
            if (set[i].dirty && count < cap)
                out[count++] = set[i].addr;
    }
    return count;
}

int mem_peek_line(mem_core_t *c, int pid, int64_t addr, mem_line_t *out)
{
    mem_line_t *line = l2_peek(c, pid, addr);
    if (!line)
        return 0;
    *out = *line;
    return 1;
}

int mem_l1_holds(mem_core_t *c, int pid, int64_t addr)
{
    int64_t *set;
    int32_t *cnt;
    return l1_pos(c, pid, addr, &set, &cnt) >= 0;
}

int64_t mem_resident(mem_core_t *c, int pid)
{
    int64_t n = 0;
    int s;
    for (s = 0; s < c->l2_sets; s++)
        n += L2CNT(c, pid, s);
    return n;
}

int mem_peek_entry(mem_core_t *c, int64_t addr, mem_dirent_t *out)
{
    mem_dirent_t *e = dir_peek(c, addr);
    if (!e)
        return 0;
    *out = *e;
    return 1;
}

int64_t mem_dir_size(mem_core_t *c)
{
    return c->dir.ix.n;
}

void mem_dir_at(mem_core_t *c, int64_t i, mem_dirent_t *out)
{
    *out = c->dir.ents[i];
}

/* The image (which = 0) or the golden image (which = 1). */
static mem_map_t *map_of(mem_core_t *c, int which)
{
    return which ? &c->golden : &c->image;
}

int mem_map_get(mem_core_t *c, int which, int64_t key, int64_t *out)
{
    mem_map_t *m = map_of(c, which);
    int64_t i = ix_find(&m->ix, key);
    if (i < 0)
        return 0;
    *out = m->vals[i];
    return 1;
}

int mem_map_set(mem_core_t *c, int which, int64_t key, int64_t value)
{
    return map_set(c, map_of(c, which), key, value);
}

int64_t mem_map_size(mem_core_t *c, int which)
{
    return map_of(c, which)->ix.n;
}

int64_t mem_map_key(mem_core_t *c, int which, int64_t i)
{
    return map_of(c, which)->ix.keys[i];
}

/* ------------------------------------------------------------------ */
/* lifetime                                                            */
/* ------------------------------------------------------------------ */

void mem_free(mem_core_t *c)
{
    if (!c)
        return;
    free(c->l1);
    free(c->l1_count);
    free(c->l2);
    free(c->l2_count);
    ix_free(&c->dir.ix);
    free(c->dir.ents);
    ix_free(&c->image.ix);
    free(c->image.vals);
    ix_free(&c->golden.ix);
    free(c->golden.vals);
    free(c->demand_busy);
    free(c->wb_busy);
    free(c->ckpt_wb_busy);
    free(c->l1_hits);
    free(c->l1_misses);
    free(c->l2_hits);
    free(c->l2_misses);
    free(c->epochs);
    free(c->ckpt_wait);
    free(c);
}

#define ALLOC(ptr, n) ((ptr) = calloc((size_t)(n), sizeof(*(ptr))))

mem_core_t *mem_new(int n_cores, int l1_sets, int l1_assoc, int l2_sets,
                    int l2_assoc, int n_ch, int64_t l1_hit, int64_t l2_hit,
                    int64_t remote_l2, int64_t memory_cycles,
                    int64_t dram_occ, int64_t logged_occ, int check,
                    int tracking)
{
    mem_core_t *c = calloc(1, sizeof(mem_core_t));
    if (!c)
        return NULL;
    c->n_cores = n_cores;
    c->l1_sets = l1_sets;
    c->l1_assoc = l1_assoc;
    c->l2_sets = l2_sets;
    c->l2_assoc = l2_assoc;
    c->n_ch = n_ch;
    c->l1_hit = l1_hit;
    c->l2_hit = l2_hit;
    c->remote_l2 = remote_l2;
    c->memory_cycles = memory_cycles;
    c->dram_occ = dram_occ;
    c->logged_occ = logged_occ;
    c->check = check;
    c->tracking = tracking;
    if (!ALLOC(c->l1, (int64_t)n_cores * l1_sets * l1_assoc) ||
            !ALLOC(c->l1_count, (int64_t)n_cores * l1_sets) ||
            !ALLOC(c->l2, (int64_t)n_cores * l2_sets * l2_assoc) ||
            !ALLOC(c->l2_count, (int64_t)n_cores * l2_sets) ||
            !dir_init(&c->dir) || !map_init(&c->image) ||
            !map_init(&c->golden) ||
            !ALLOC(c->demand_busy, n_ch) || !ALLOC(c->wb_busy, n_ch) ||
            !ALLOC(c->ckpt_wb_busy, n_ch) ||
            !ALLOC(c->l1_hits, n_cores) || !ALLOC(c->l1_misses, n_cores) ||
            !ALLOC(c->l2_hits, n_cores) || !ALLOC(c->l2_misses, n_cores) ||
            !ALLOC(c->epochs, n_cores) || !ALLOC(c->ckpt_wait, n_cores)) {
        mem_free(c);
        return NULL;
    }
    return c;
}

#define DUP(dst, src, n) do { \
        (dst) = malloc(sizeof(*(src)) * (size_t)(n)); \
        if (!(dst)) goto oom; \
        memcpy((dst), (src), sizeof(*(src)) * (size_t)(n)); \
    } while (0)

/* A deep copy of the whole core (Machine.fork); the clone's owner
 * handle is set by the caller. */
mem_core_t *mem_clone(const mem_core_t *src)
{
    mem_core_t *c = malloc(sizeof(mem_core_t));
    int64_t n = src->n_cores;
    if (!c)
        return NULL;
    *c = *src;
    c->l1 = NULL; c->l1_count = NULL; c->l2 = NULL; c->l2_count = NULL;
    memset(&c->dir, 0, sizeof(c->dir));
    memset(&c->image, 0, sizeof(c->image));
    memset(&c->golden, 0, sizeof(c->golden));
    c->demand_busy = c->wb_busy = c->ckpt_wb_busy = NULL;
    c->l1_hits = c->l1_misses = c->l2_hits = c->l2_misses = NULL;
    c->epochs = NULL;
    c->ckpt_wait = NULL;
    c->owner = NULL;
    DUP(c->l1, src->l1, n * src->l1_sets * src->l1_assoc);
    DUP(c->l1_count, src->l1_count, n * src->l1_sets);
    DUP(c->l2, src->l2, n * src->l2_sets * src->l2_assoc);
    DUP(c->l2_count, src->l2_count, n * src->l2_sets);
    if (!ix_clone(&c->dir.ix, &src->dir.ix))
        goto oom;
    c->dir.ents = malloc(sizeof(mem_dirent_t) * src->dir.ix.cap);
    if (!c->dir.ents)
        goto oom;
    memcpy(c->dir.ents, src->dir.ents, sizeof(mem_dirent_t) * src->dir.ix.n);
    if (!map_clone(&c->image, &src->image) ||
            !map_clone(&c->golden, &src->golden))
        goto oom;
    DUP(c->demand_busy, src->demand_busy, src->n_ch);
    DUP(c->wb_busy, src->wb_busy, src->n_ch);
    DUP(c->ckpt_wb_busy, src->ckpt_wb_busy, src->n_ch);
    DUP(c->l1_hits, src->l1_hits, n);
    DUP(c->l1_misses, src->l1_misses, n);
    DUP(c->l2_hits, src->l2_hits, n);
    DUP(c->l2_misses, src->l2_misses, n);
    DUP(c->epochs, src->epochs, n);
    DUP(c->ckpt_wait, src->ckpt_wait, n);
    return c;
oom:
    mem_free(c);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* the machine loop                                                    */
/* ------------------------------------------------------------------ */

/* Trace ops (repro.trace); the loop executes the first three itself. */
#define OP_COMPUTE 0
#define OP_LOAD 1
#define OP_STORE 2
#define OP_END 7

/* Heap entry kinds (repro.sim.machine). */
#define EV_EXEC 0     /* run core ``pid`` if ``arg`` is still its epoch */
#define EV_CALL 2     /* a scheduled DurableCall, keyed by ``seq`` */
#define EV_PAUSE 3    /* a replica-batch pause sentinel */

/* Why mem_advance returned. */
#define ADV_DONE 0       /* every core finished its trace */
#define ADV_PAUSE 1      /* a pause sentinel popped */
#define ADV_CALL 2       /* a call popped: fire ``seq`` at ``when`` */
#define ADV_POST_OP 3    /* the post_op gate: post_op(``pid``, ``when``) */
#define ADV_RECORD 4     /* record ``kind`` (``arg``) of ``pid`` at ``when`` */
#define ADV_LIMIT 5      /* the cycle limit was exceeded */
#define ADV_DEADLOCK 6   /* the heap is empty with work outstanding */
#define ADV_FAILED 7     /* the memory system failed (raise_failure) */

/* A heap entry, and what mem_advance reports.  Entries order by
 * (when, seq); seqs are unique, so the pop order is that of the Python
 * loop's heapq of (when, seq, kind, a, b) tuples. */
typedef struct {
    double when;
    int64_t seq;
    int32_t kind;
    int32_t pid;
    int64_t arg;
} mem_event_t;

/* One core's hot state.  repro.sim.cores.Core is a ctypes structure
 * with this layout over its entry of mem_loop_t.hot, so the Python code
 * around the loop reads and writes these fields in place. */
typedef struct {
    int64_t ip, instr_count, instr_since_ckpt, epoch, store_seq;
    double time, not_before, busy;
    uint8_t done;
    int8_t blocked;     /* 0: no, 1: on a lock, 2: at a barrier */
} mem_hot_t;

typedef struct mem_loop {
    int n;              /* cores */
    mem_hot_t *hot;
    /* trace columns, owned by Python and read in place; args may be
     * unaligned (a view into the workload store's file) */
    const int8_t **ops;
    const unsigned char **args;
    int64_t *n_records;
    /* the event heap */
    mem_event_t *heap;
    int64_t heap_n, heap_cap;
    int64_t seq;        /* last seq handed out */
    int64_t n_done;
    double now;
    /* a batch suspended at the post_op gate, resumed by mem_advance */
    int suspended, batch_pid;
    double batch_now;
    int64_t batch_budget;
} mem_loop_t;

static inline int ev_before(const mem_event_t *x, const mem_event_t *y)
{
    return x->when < y->when || (x->when == y->when && x->seq < y->seq);
}

static int heap_push(mem_loop_t *l, double when, int64_t seq, int kind,
                     int pid, int64_t arg)
{
    mem_event_t e;
    int64_t i, parent;
    if (l->heap_n == l->heap_cap) {
        int64_t cap = l->heap_cap * 2;
        mem_event_t *heap = realloc(l->heap, sizeof(mem_event_t) * cap);
        if (!heap)
            return 0;
        l->heap = heap;
        l->heap_cap = cap;
    }
    e.when = when;
    e.seq = seq;
    e.kind = kind;
    e.pid = pid;
    e.arg = arg;
    for (i = l->heap_n++; i > 0; i = parent) {
        parent = (i - 1) / 2;
        if (!ev_before(&e, &l->heap[parent]))
            break;
        l->heap[i] = l->heap[parent];
    }
    l->heap[i] = e;
    return 1;
}

/* Moves heap[i] down to its place. */
static void heap_sift(mem_loop_t *l, int64_t i)
{
    mem_event_t e = l->heap[i];
    int64_t child;
    for (;;) {
        child = 2 * i + 1;
        if (child >= l->heap_n)
            break;
        if (child + 1 < l->heap_n &&
                ev_before(&l->heap[child + 1], &l->heap[child]))
            child++;
        if (!ev_before(&l->heap[child], &e))
            break;
        l->heap[i] = l->heap[child];
        i = child;
    }
    l->heap[i] = e;
}

static int heap_pop(mem_loop_t *l, mem_event_t *out)
{
    if (!l->heap_n)
        return 0;
    *out = l->heap[0];
    if (--l->heap_n) {
        l->heap[0] = l->heap[l->heap_n];
        heap_sift(l, 0);
    }
    return 1;
}

/* Schedules core ``pid`` at ``when`` under a fresh epoch, which makes
 * every older entry of the core stale. */
static int push_exec(mem_loop_t *l, int pid, double when)
{
    l->hot[pid].epoch++;
    l->seq++;
    return heap_push(l, when, l->seq, EV_EXEC, pid, l->hot[pid].epoch);
}

/* Machine.push_core: a runnable core at max(time, not_before). */
int loop_push_core(mem_loop_t *l, int pid)
{
    double t = l->hot[pid].time, nb = l->hot[pid].not_before;
    if (l->hot[pid].done || l->hot[pid].blocked)
        return 1;
    return push_exec(l, pid, nb > t ? nb : t);
}

/* A call or pause entry under a seq the caller chose (a call's seq is
 * its key in the Python table of pending calls). */
int loop_push(mem_loop_t *l, double when, int64_t seq, int kind)
{
    return heap_push(l, when, seq, kind, 0, 0);
}

int loop_pop(mem_loop_t *l, mem_event_t *out)
{
    return heap_pop(l, out);
}

/* The earliest pending time (infinity when the heap is empty). */
double loop_next_when(mem_loop_t *l)
{
    return l->heap_n ? l->heap[0].when : INFINITY;
}

/* Removes every entry of ``kind`` (a fork drops its parent's pauses). */
void loop_drop(mem_loop_t *l, int kind)
{
    int64_t i, n = 0;
    for (i = 0; i < l->heap_n; i++)
        if (l->heap[i].kind != kind)
            l->heap[n++] = l->heap[i];
    l->heap_n = n;
    for (i = n / 2 - 1; i >= 0; i--)
        heap_sift(l, i);
}

void loop_set_trace(mem_loop_t *l, int pid, const int8_t *ops,
                    const unsigned char *args, int64_t n_records)
{
    l->ops[pid] = ops;
    l->args[pid] = args;
    l->n_records[pid] = n_records;
}

static inline int64_t trace_arg(const mem_loop_t *l, int pid, int64_t ip)
{
    int64_t arg;
    memcpy(&arg, l->args[pid] + 8 * ip, sizeof(arg));
    return arg;
}

/* Machine._advance_main over the compiled memory system: pops entries
 * and runs each popped core's batch of COMPUTE/LOAD/STORE records until
 * something needs Python (see the ADV_ codes).  A batch continues while
 * no heap entry is due at or before the core's next record, for at most
 * ``quantum`` records; it then re-pushes the core.  A batch suspended
 * for post_op resumes on the next call unless post_op stalled the core
 * past the batch's clock. */
int mem_advance(mem_core_t *c, mem_loop_t *l, double limit, double gate,
                int64_t quantum, mem_event_t *out)
{
    mem_event_t e;
    int pid = l->batch_pid, in_batch = l->suspended, gated = 0, op;
    double now = l->batch_now, when, t, nb, lat;
    int64_t budget = l->batch_budget, ip, arg, seq;
    if (in_batch) {
        /* post_op ran: the gate is passed for this record, unless
         * post_op stalled the core, which ends the batch. */
        l->suspended = 0;
        gated = 1;
        if (l->hot[pid].not_before > now) {
            in_batch = gated = 0;
            if (!loop_push_core(l, pid))
                goto oom;
        }
    }
    for (;;) {
        if (!in_batch) {
            if (l->n_done >= l->n)
                return ADV_DONE;
            if (!heap_pop(l, &e))
                return ADV_DEADLOCK;
            /* A pause leaves the clock at the last real event. */
            if (e.kind == EV_PAUSE)
                return ADV_PAUSE;
            if (e.when > l->now)
                l->now = e.when;
            if (e.when > limit)
                return ADV_LIMIT;
            if (e.kind != EV_EXEC) {
                *out = e;
                return ADV_CALL;
            }
            pid = e.pid;
            if (l->hot[pid].done || l->hot[pid].blocked || e.arg != l->hot[pid].epoch)
                continue;  /* stale entry */
            if (e.when < l->hot[pid].not_before) {
                if (!loop_push_core(l, pid))
                    goto oom;
                continue;
            }
            t = l->hot[pid].time;
            now = e.when >= t ? e.when : t;
            budget = quantum;
            in_batch = 1;
        }
        /* Checkpoint initiation runs at the core's true position in
         * the global time order, before its next record. */
        if (!gated && (double)l->hot[pid].instr_since_ckpt >= gate) {
            l->suspended = 1;
            l->batch_pid = pid;
            l->batch_now = now;
            l->batch_budget = budget;
            out->pid = pid;
            out->when = now;
            return ADV_POST_OP;
        }
        gated = 0;
        ip = l->hot[pid].ip;
        op = ip < l->n_records[pid] ? l->ops[pid][ip] : OP_END;
        arg = op == OP_END ? 0 : trace_arg(l, pid, ip);
        if (op == OP_COMPUTE) {
            l->hot[pid].time = now + (double)arg;
            l->hot[pid].instr_count += arg;
            l->hot[pid].instr_since_ckpt += arg;
            l->hot[pid].busy += (double)arg;
            l->hot[pid].ip = ip + 1;
        } else if (op == OP_LOAD || op == OP_STORE) {
            if (op == OP_LOAD) {
                lat = mem_load(c, pid, arg, now);
            } else {
                /* The store's unique value (Core.next_store_value). */
                seq = l->hot[pid].store_seq + 1;
                l->hot[pid].store_seq = seq;
                lat = mem_store(c, pid, arg, ((int64_t)pid << 40) | seq, now);
            }
            if (lat < 0.0)
                return ADV_FAILED;
            l->hot[pid].time = now + lat;
            l->hot[pid].instr_count++;
            l->hot[pid].instr_since_ckpt++;
            l->hot[pid].busy += lat;
            l->hot[pid].ip = ip + 1;
        } else {
            out->when = now;
            out->kind = op;
            out->pid = pid;
            out->arg = arg;
            return ADV_RECORD;
        }
        /* fused continuation */
        budget--;
        t = l->hot[pid].time;
        nb = l->hot[pid].not_before;
        when = t >= nb ? t : nb;
        if (budget <= 0 || (l->heap_n && l->heap[0].when <= when)) {
            in_batch = 0;
            if (!push_exec(l, pid, when))
                goto oom;
            continue;
        }
        /* The clock is not advanced record by record (nothing can
         * observe it mid-batch); the next pop re-synchronizes it. */
        if (when > limit) {
            l->now = when;
            return ADV_LIMIT;
        }
        now = when;
    }
oom:
    fail(c, FAIL_MEMORY);
    return ADV_FAILED;
}

void loop_free(mem_loop_t *l)
{
    if (!l)
        return;
    free(l->hot);
    free((void *)l->ops);
    free((void *)l->args);
    free(l->n_records);
    free(l->heap);
    free(l);
}

mem_loop_t *loop_new(int n)
{
    mem_loop_t *l = calloc(1, sizeof(mem_loop_t));
    int64_t m = n > 0 ? n : 1;
    if (!l)
        return NULL;
    l->n = n;
    l->heap_cap = 64;
    if (!ALLOC(l->hot, m) || !ALLOC(l->ops, m) || !ALLOC(l->args, m) ||
            !ALLOC(l->n_records, m) || !ALLOC(l->heap, l->heap_cap)) {
        loop_free(l);
        return NULL;
    }
    return l;
}

/* A deep copy (Machine.fork); the trace columns are shared. */
mem_loop_t *loop_clone(const mem_loop_t *src)
{
    mem_loop_t *l = malloc(sizeof(mem_loop_t));
    int64_t m = src->n > 0 ? src->n : 1;
    if (!l)
        return NULL;
    *l = *src;
    l->hot = NULL;
    l->ops = NULL;
    l->args = NULL;
    l->n_records = NULL;
    l->heap = NULL;
    DUP(l->hot, src->hot, m);
    DUP(l->ops, src->ops, m);
    DUP(l->args, src->args, m);
    DUP(l->n_records, src->n_records, m);
    l->heap = malloc(sizeof(mem_event_t) * src->heap_cap);
    if (!l->heap)
        goto oom;
    memcpy(l->heap, src->heap, sizeof(mem_event_t) * src->heap_n);
    return l;
oom:
    loop_free(l);
    return NULL;
}
