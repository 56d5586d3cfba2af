/* The compiled memory system: private L1/L2 caches, the full-map
 * directory with LW-ID, the memory channels' horizons, the memory
 * value image, the ReVive undo log and Rebound's Dep registers, driven
 * by one call per load or store.
 *
 * This is a line-for-line translation of the Python oracle
 * (repro.coherence.protocol.CoherenceEngine over repro.mem.Cache,
 * L1Cache, MemoryChannels, MainMemory, ReviveLog,
 * repro.coherence.directory and repro.core.dep_registers): every
 * branch, counter bump and floating-point operation happens in the
 * oracle's order, so every SimStats field stays bit-identical.
 *
 * Exact order:
 *   - each cache set is an array in LRU order, oldest first: a hit
 *     moves the line to the end and the victim is element 0, as the
 *     oracle's OrderedDict sets do;
 *   - every walk (dirty lines, delayed lines, golden revert) visits
 *     sets in ascending index, oldest line first;
 *   - directory entries, image keys and WSIG shadows keep insertion
 *     order; log entries are kept in seq order.
 *
 * Scheme hooks.  The built-in trackers run inside the core (``hooks``):
 *   HOOKS_GLOBAL   nothing tracked, the interval is the core row's
 *                  (GlobalScheme; NONE too, whose rows nothing rotates,
 *                  and 0 for a core bound to no loop);
 *   HOOKS_REBOUND  the Dep registers and WSIGs live here (mem_depset_t,
 *                  a ring of sets per core whose order Python
 *                  publishes); a dependence or a WSIG stamp is handled
 *                  in place, cluster mode included.
 * Every writeback is logged here (first-writeback filter, undo entry,
 * bytes per time bin); a Delayed line reads its interval from the core
 * row's delayed_ckpt_id and counts down its pending_delayed.  Python
 * hears only about checkpoints and rollbacks.
 *
 * Other trackers (HOOKS_PYTHON) are called back through the three
 * extern "Python" callbacks cffi defines (repro/coherence/build.py):
 *   mem_cb_dependence  LW-ID names another core and tracking is on;
 *   mem_cb_wsig        a store stamps the writer's WSIG, tracking on;
 *   mem_cb_line        a writeback needs the writer's interval, and/or
 *                      a Delayed line left the cache.
 * A callback returning a negative value marks the core failed; every
 * entry point then returns a negative result and the Python side
 * raises the stored exception.  A failed core sends no further event
 * and logs nothing more, so the first failure is the one that surfaces.
 * A WSIG that misses a line its exact shadow holds (a Bloom false
 * negative) fails the core the same way.
 *
 * The machine loop (mem_advance, at the end of this file) runs on a
 * separate mem_loop_t: the event heap, every core's hot state, the
 * trace columns and the locks and barriers.  It executes COMPUTE, LOAD,
 * STORE, LOCK and UNLOCK records itself, and BARRIER records unless the
 * scheme's barrier hooks must run (barrier_hooks).  It returns to
 * Python, with a reason code, for everything else: a scheduled call or
 * pause popping, a hooked BARRIER, OUTPUT or END record (or a
 * synchronization record Python must refuse), the scheme's post_op
 * gate, the cycle limit, an empty heap or a failed core.  It is a
 * translation of the Python loop (repro.sim.machine.Machine.
 * _advance_main) and of repro.sim.sync.SyncManager with the same order
 * of heap pops, accesses, clock updates and floating-point operations.
 * The memory system reads the loop's core rows (mem_bind_loop).
 *
 * Per-record cost.  At 64 cores a fused residency averages about one
 * record, so the loop's heap step and the memory system's hash probes
 * run about once per record.  The loop ends a batch with one heap step
 * (replace-top, see mem_advance), whose descent chooses a child without
 * a branch, and prefetches each core's trace columns ahead of it.  Each
 * lookup probes its index once: a find-or-insert (ix_upsert, map_slot)
 * serves a read followed by a write, and an L2 line keeps the position
 * of its directory entry for its eviction.  The loop counts its pops,
 * residencies, records and returns (integers only).
 *
 * Everything Python reaches is declared once, in the cdef block after
 * the includes, which the build hands to cffi as its declarations.
 *
 * The source reads no clock and no entropy. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The cdef block holds only what cffi parses: integer #defines with
 * literal values, typedefs, and a prototype of every function that is
 * not static.  The ctypes row views take their fields from these
 * structs; a field Python reads as a boolean is a _Bool. */
/* cdef: begin */

#define ST_INVALID 0
#define ST_SHARED 1
#define ST_EXCLUSIVE 2
#define ST_MODIFIED 3

#define DIR_UNCACHED 0
#define DIR_SHARED 1
#define DIR_EXCL 2

/* Writeback kinds: which interval tags the log entry, and whether the
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
#define FAIL_BLOOM 6         /* a WSIG false negative (fail_addr, fail_pid) */

#define HOOKS_GLOBAL 1
#define HOOKS_REBOUND 2
#define HOOKS_PYTHON 3

/* Most WSIG hash functions (repro.core.signature: n_hashes). */
#define MAX_WSIG_HASHES 64

/* Trace ops (repro.trace); the loop executes all but OUTPUT and END. */
#define OP_COMPUTE 0
#define OP_LOAD 1
#define OP_STORE 2
#define OP_BARRIER 3
#define OP_LOCK 4
#define OP_UNLOCK 5
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
#define N_ADV 8
#define N_OPS 8          /* trace ops, OUTPUT (6) included */

/* mem_hot_t.blocked */
#define BLOCK_LOCK 1
#define BLOCK_BARRIER 2

/* What sync_arrive did. */
#define SYNC_PASSED 0    /* a straggler passed a released generation */
#define SYNC_WAIT 1      /* arrived; other participants have not */
#define SYNC_LAST 2      /* arrived last: the barrier releases */

/* Locks and barriers keep their lists of pids inline, so a loop with
 * any has at most this many cores; it is the memory system's limit too
 * (one 64-bit sharer mask per directory entry). */
#define SYNC_CORES 64

/* An L2 line.  dir_pos is the position of the line's directory entry
 * (entries are never removed, so it is stable): an eviction finds the
 * entry without a probe.  It sits in what would be padding. */
typedef struct {
    int64_t addr;
    int64_t value;
    uint8_t state;
    uint8_t dirty;
    uint8_t delayed;
    int32_t dir_pos;
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

/* One core's hot state (repro.sim.cores.Core is a ctypes view of it),
 * an entry of mem_loop_t.hot: the Python code around the loop reads
 * and writes these fields in place.  epoch guards stale heap entries,
 * not_before is a scheme-injected delay floor, and Core.finish copies
 * busy and sync_wait to the stats.  The memory system reads
 * pending_delayed, delayed_ckpt_id (-1: none) and interval
 * (GlobalScheme's) when it logs a writeback. */
typedef struct {
    int64_t ip, instr_count, instr_since_ckpt, epoch, store_seq;
    int64_t pending_delayed, delayed_ckpt_id, interval;
    int64_t block_site;     /* the lock or barrier id blocked on; -1: none */
    double time, not_before, busy;
    double block_start, sync_wait;
    _Bool done;
    int8_t blocked;     /* 0: no, BLOCK_LOCK or BLOCK_BARRIER */
} mem_hot_t;

/* A Dep-register set's fields (repro.core.dep_registers.DepRegisterSet
 * is a ctypes view of it). */
typedef struct {
    int64_t interval_id;
    double start_time;
    uint64_t producers, consumers, producers_genuine, consumers_genuine;
    double ckpt_complete_time;      /* meaningful when complete */
    int64_t wsig_tests, wsig_false_positives;
    _Bool complete;
    _Bool ckpt_started;
} mem_dep_t;

/* A Dep-register set: its fields and the WSIG's exact shadow (the Bloom
 * words are mem_core_t.wsig). */
typedef struct {
    mem_dep_t d;
    mem_index_t exact;
} mem_depset_t;

/* One undo-log entry (repro.mem.log.LogEntry). */
typedef struct {
    int64_t seq;
    double time;
    int64_t pid;
    int64_t addr;
    int64_t old_value;
    int64_t interval;
} mem_logent_t;

/* The first-writeback filter of one (pid, interval): lines logged. */
typedef struct {
    int64_t interval;
    mem_index_t lines;
} mem_group_t;

typedef struct {
    mem_group_t *groups;
    int32_t n, cap;
} mem_filter_t;

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

    /* scheme hooks (HOOKS_*) and the loop's core rows (mem_bind_loop) */
    int hooks;
    mem_hot_t *hot;

    /* Dep registers (HOOKS_REBOUND): dep_slots sets per core, of which
     * dep_n[pid] are live, oldest first at dep_order[pid * dep_slots] */
    int dep_slots, wsig_words, wsig_hashes, cluster;
    uint64_t wsig_mask;
    mem_depset_t *deps;
    uint64_t *wsig;
    int32_t *dep_order, *dep_n;

    /* the undo log (ReviveLog) and its memory controller (MainMemory) */
    mem_logent_t *log;
    int64_t log_n, log_cap;
    int64_t log_seq, log_total, bin_cycles, entry_bytes;
    mem_map_t log_bins;         /* time bin -> bytes logged */
    mem_filter_t *filters;      /* per core */
    int64_t mem_writes, logged_writebacks, suppressed_logs;

    /* failure report */
    int failed;
    int64_t fail_addr, fail_loaded, fail_expected, fail_pid;
} mem_core_t;

/* A heap entry, as mem_advance and loop_pop report it.  Entries order by
 * (when, seq); seqs are unique, so the pop order is that of the Python
 * loop's heapq of (when, seq, kind, a, b) tuples. */
typedef struct {
    double when;
    int64_t seq;
    int32_t kind;
    int32_t pid;
    int64_t arg;
} mem_event_t;

/* An entry as the heap stores it: ``when`` and ``seq`` as unsigned words
 * in the same order (when_key, seq_key), so that comparing two entries
 * takes integer comparisons only. */
typedef struct {
    uint64_t wkey, skey;
    int32_t kind;
    int32_t pid;
    int64_t arg;
} mem_node_t;

/* A lock (repro.sim.sync.LockState is a ctypes view of it): its line,
 * its holder, and the pids waiting for it, first in line first. */
typedef struct {
    int64_t lock_id, line;
    int32_t holder;     /* -1: free */
    int32_t n_waiting;
    int32_t waiting[SYNC_CORES];
} mem_lock_t;

/* A barrier (repro.sim.sync.BarrierState): its count and flag lines,
 * its generation (releases so far), its n participants, the n_arrived
 * pids that arrived in this generation, in order, and each core's
 * crossings. */
typedef struct {
    int64_t barrier_id, count_line, flag_line, gen;
    int32_t n, n_arrived;
    int32_t parts[SYNC_CORES], arrived[SYNC_CORES];
    int64_t crossed[SYNC_CORES];
} mem_barrier_t;

typedef struct mem_loop {
    int n;              /* cores */
    mem_hot_t *hot;
    /* trace columns, owned by Python and read in place; args may be
     * unaligned (a view into the workload store's file) */
    const int8_t **ops;
    const unsigned char **args;
    int64_t *n_records;
    /* the event heap */
    mem_node_t *heap;
    int64_t heap_n, heap_cap;
    int64_t seq;        /* last seq handed out */
    int64_t n_done;
    double now;
    /* locks and barriers, in the order Python added them */
    int n_locks, n_barriers;
    mem_lock_t *locks;
    mem_barrier_t *barriers;
    mem_index_t lock_ix, barrier_ix;    /* id -> slot */
    int64_t lock_acquisitions, barrier_episodes;
    int barrier_hooks;  /* BARRIER records go to Python (scheme hooks) */
    /* a batch suspended at the post_op gate, resumed by mem_advance */
    int suspended, batch_pid;
    double batch_now;
    int64_t batch_budget;
    /* counters, integers only (CoreTable.counters, Machine.counters):
     * entries taken off the heap, fused residencies, records dispatched
     * per trace op and returns per ADV_ reason; a fork starts its own
     * at zero */
    int64_t pops, residencies;
    int64_t records[N_OPS], returns[N_ADV];
} mem_loop_t;

mem_core_t *mem_new(int, int, int, int, int, int, int64_t, int64_t, int64_t,
                    int64_t, int64_t, int64_t, int, int);
int mem_set_hooks(mem_core_t *, int, int, int64_t, int, int);
void mem_set_log(mem_core_t *, int64_t, int64_t);
mem_core_t *mem_clone(const mem_core_t *);
void mem_free(mem_core_t *);

double mem_load(mem_core_t *, int, int64_t, double);
double mem_store(mem_core_t *, int, int64_t, int64_t, double);
void mem_fastpath_epoch(mem_core_t *, int);
double mem_checkpoint_writeback(mem_core_t *, int, double, int64_t,
                                int64_t *);
int64_t mem_mark_delayed(mem_core_t *, int);
int64_t mem_complete_delayed(mem_core_t *, int, double, int64_t);
int64_t mem_invalidate_core(mem_core_t *, int);

int64_t mem_dirty_lines(mem_core_t *, int, int64_t *, int64_t);
int mem_peek_line(mem_core_t *, int, int64_t, mem_line_t *);
int mem_l1_holds(mem_core_t *, int, int64_t);
int64_t mem_resident(mem_core_t *, int);
int mem_peek_entry(mem_core_t *, int64_t, mem_dirent_t *);
int64_t mem_dir_size(mem_core_t *);
void mem_dir_at(mem_core_t *, int64_t, mem_dirent_t *);
int mem_map_get(mem_core_t *, int, int64_t, int64_t *);
int mem_map_set(mem_core_t *, int, int64_t, int64_t);
int64_t mem_map_size(mem_core_t *, int);
int64_t mem_map_key(mem_core_t *, int, int64_t);

mem_dep_t *mem_dep_row(mem_core_t *, int, int);
uint64_t *mem_dep_words(mem_core_t *, int, int);
int mem_dep_reset(mem_core_t *, int, int, int64_t, double);
void mem_dep_order(mem_core_t *, int, const int32_t *, int);
int mem_wsig_merge(mem_core_t *, int, int, int);
int64_t mem_wsig_size(mem_core_t *, int, int);
int64_t mem_wsig_key(mem_core_t *, int, int, int64_t);

int mem_log_writeback(mem_core_t *, double, int, int64_t, int64_t, int64_t);
void mem_end_interval(mem_core_t *, int, int64_t);
int64_t mem_log_select(mem_core_t *, const int64_t *, mem_logent_t *);
int64_t mem_log_discard(mem_core_t *, const int64_t *);
int64_t mem_log_restore(mem_core_t *, const int64_t *, mem_logent_t *);
int64_t mem_log_trim(mem_core_t *, double, int);
int64_t mem_log_max_bin(mem_core_t *);

mem_loop_t *loop_new(int, int, int);
int loop_add_lock(mem_loop_t *, int64_t, int64_t);
int loop_add_barrier(mem_loop_t *, int64_t, int64_t, int64_t, const int32_t *,
                     int);
mem_loop_t *loop_clone(const mem_loop_t *);
void loop_free(mem_loop_t *);
void loop_set_trace(mem_loop_t *, int, const int8_t *, const unsigned char *,
                    int64_t);
int loop_push_core(mem_loop_t *, int);
int loop_push(mem_loop_t *, double, int64_t, int);
int loop_pop(mem_loop_t *, mem_event_t *);
double loop_next_when(mem_loop_t *);
void loop_drop(mem_loop_t *, int);
void mem_bind_loop(mem_core_t *, mem_loop_t *);
int mem_advance(mem_core_t *, mem_loop_t *, double, double, int64_t,
                mem_event_t *);
int sync_grant_next(mem_core_t *, mem_loop_t *, int64_t, double);
int sync_arrive(mem_core_t *, mem_loop_t *, int, int64_t, double, double *);
double sync_release(mem_core_t *, mem_loop_t *, int, int64_t, double, double);

/* cdef: end */

static int mem_cb_dependence(void *owner, int consumer, int producer,
                             int64_t addr);
static int mem_cb_wsig(void *owner, int pid, int64_t addr);
static int mem_cb_line(void *owner, double now, int pid, int64_t addr,
                       int kind, int64_t *interval);

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

/* The position of ``key``, appended if absent, with one probe either
 * way (a rehash aside).  The caller grew the dense arrays so that
 * ix->n < ix->cap.  Returns -1 when out of memory. */
static int64_t ix_upsert(mem_index_t *ix, int64_t key)
{
    uint64_t mask = (uint64_t)ix->nslots - 1;
    uint64_t h = mix(key) & mask;
    int64_t s;
    while ((s = ix->slots[h])) {
        if (ix->keys[s - 1] == key)
            return s - 1;
        h = (h + 1) & mask;
    }
    if ((ix->n + 1) * 2 > ix->nslots)
        return ix_append(ix, key);
    ix->keys[ix->n] = key;
    ix->slots[h] = ix->n + 1;
    return ix->n++;
}

/* Set semantics: adds ``key`` unless present.  Returns 1 if added, 0 if
 * it was there, -1 when out of memory. */
static int ix_add(mem_index_t *ix, int64_t key)
{
    int64_t n = ix->n, i;
    if (n == ix->cap) {
        int64_t *keys = realloc(ix->keys, sizeof(int64_t) * ix->cap * 2);
        if (!keys)
            return -1;
        ix->keys = keys;
        ix->cap *= 2;
    }
    i = ix_upsert(ix, key);
    return i < 0 ? -1 : i == n;
}

/* Empties the index; a large table shrinks back to the initial size. */
static int ix_reset(mem_index_t *ix)
{
    if (ix->nslots > 1024) {
        free(ix->keys);
        free(ix->slots);
        return ix_init(ix);
    }
    ix->n = 0;
    memset(ix->slots, 0, sizeof(int64_t) * ix->nslots);
    return 1;
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

/* The value of ``key``, inserted as 0 if absent: one probe for a read
 * and a write.  NULL (the core failed) when out of memory. */
static int64_t *map_slot(mem_core_t *c, mem_map_t *m, int64_t key)
{
    int64_t i, n = m->ix.n;
    if (n == m->ix.cap) {
        int64_t cap = m->ix.cap * 2;
        int64_t *keys = realloc(m->ix.keys, sizeof(int64_t) * cap);
        int64_t *vals;
        if (!keys) {
            fail(c, FAIL_MEMORY);
            return NULL;
        }
        m->ix.keys = keys;
        vals = realloc(m->vals, sizeof(int64_t) * cap);
        if (!vals) {
            fail(c, FAIL_MEMORY);
            return NULL;
        }
        m->vals = vals;
        m->ix.cap = cap;
    }
    i = ix_upsert(&m->ix, key);
    if (i < 0) {
        fail(c, FAIL_MEMORY);
        return NULL;
    }
    if (i == n)
        m->vals[i] = 0;
    return &m->vals[i];
}

static int map_set(mem_core_t *c, mem_map_t *m, int64_t key, int64_t val)
{
    int64_t *slot = map_slot(c, m, key);
    if (!slot)
        return 0;
    *slot = val;
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
    int64_t i, n = d->ix.n;
    mem_dirent_t *e;
    if (n == d->ix.cap) {
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
    i = ix_upsert(&d->ix, addr);
    if (i < 0)
        return NULL;
    e = &d->ents[i];
    if (i == n) {
        e->addr = addr;
        e->sharers = 0;
        e->owner = -1;
        e->lw_id = -1;
        e->mode = DIR_UNCACHED;
    }
    return e;
}

static mem_dirent_t *dir_peek(mem_core_t *c, int64_t addr)
{
    int64_t i = ix_find(&c->dir.ix, addr);
    return i < 0 ? NULL : &c->dir.ents[i];
}

/* Directory.evict_copy: a copy left ``pid`` (LW-ID preserved). */
static void dir_evict_copy(mem_dirent_t *e, int pid)
{
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

/* Cache.insert of a line the cache does not hold (every caller has just
 * missed it): installs ``addr``, whose directory entry is ``e``; returns
 * 1 and the victim if one was displaced. */
static int l2_insert(mem_core_t *c, int pid, const mem_dirent_t *e,
                     int state, int64_t value, mem_line_t *victim)
{
    int64_t addr = e->addr;
    int s = (int)pymod(addr, c->l2_sets);
    mem_line_t *set = L2SET(c, pid, s);
    int32_t *cnt = &L2CNT(c, pid, s);
    mem_line_t *line;
    int evicted = 0;
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
    line->dir_pos = (int32_t)(e - c->dir.ents);
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

/* ---- Dep registers and WSIGs (HOOKS_REBOUND) ---- */

static inline mem_depset_t *dep_at(mem_core_t *c, int pid, int slot)
{
    return &c->deps[(int64_t)pid * c->dep_slots + slot];
}

static inline uint64_t *wsig_at(mem_core_t *c, int pid, int slot)
{
    return c->wsig + ((int64_t)pid * c->dep_slots + slot) * c->wsig_words;
}

/* The physical slot of ``pid``'s i-th live set, oldest first. */
static inline int dep_slot(mem_core_t *c, int pid, int i)
{
    return c->dep_order[(int64_t)pid * c->dep_slots + i];
}

/* DepRegisterFile.active */
static inline mem_depset_t *dep_active(mem_core_t *c, int pid)
{
    return dep_at(c, pid, dep_slot(c, pid, c->dep_n[pid] - 1));
}

/* repro.core.signature._mix */
static inline uint64_t wsig_mix(int64_t value, uint64_t salt)
{
    uint64_t x = (uint64_t)value ^ (salt * 0x9E3779B97F4A7C15ull);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/* The Bloom positions of ``addr`` (WriteSignature._positions). */
static inline void wsig_positions(const mem_core_t *c, int64_t addr,
                                  uint64_t *pos)
{
    int h;
    for (h = 0; h < c->wsig_hashes; h++)
        pos[h] = wsig_mix(addr, (uint64_t)h + 1) & c->wsig_mask;
}

/* WriteSignature.add */
static void wsig_add(mem_core_t *c, int pid, int slot, int64_t addr)
{
    uint64_t pos[MAX_WSIG_HASHES];
    uint64_t *words = wsig_at(c, pid, slot);
    int h;
    wsig_positions(c, addr, pos);
    for (h = 0; h < c->wsig_hashes; h++)
        words[pos[h] >> 6] |= 1ull << (pos[h] & 63);
    if (ix_add(&dep_at(c, pid, slot)->exact, addr) < 0)
        fail(c, FAIL_MEMORY);
}

/* WriteSignature.test over precomputed positions: returns ``claims``
 * and stores ``genuine``, or -1 on a Bloom false negative. */
static int wsig_test(mem_core_t *c, int pid, int slot, int64_t addr,
                     const uint64_t *pos, int *genuine)
{
    mem_depset_t *set = dep_at(c, pid, slot);
    const uint64_t *words = wsig_at(c, pid, slot);
    int h, claims = 1;
    set->d.wsig_tests++;
    for (h = 0; h < c->wsig_hashes && claims; h++)
        claims = (words[pos[h] >> 6] >> (pos[h] & 63)) & 1;
    *genuine = ix_find(&set->exact, addr) >= 0;
    if (claims && !*genuine)
        set->d.wsig_false_positives++;
    if (!claims && *genuine) {
        if (!c->failed) {
            c->failed = FAIL_BLOOM;
            c->fail_addr = addr;
            c->fail_pid = pid;
        }
        return -1;
    }
    return claims;
}

/* The cluster of ``pid`` as a mask (ClusterMap.expand_pid). */
static inline uint64_t cluster_mask(const mem_core_t *c, int pid)
{
    int lo = pid / c->cluster * c->cluster;
    int hi = lo + c->cluster < c->n_cores ? lo + c->cluster : c->n_cores;
    uint64_t ones = hi - lo >= 64 ? ~0ull : (1ull << (hi - lo)) - 1;
    return ones << lo;
}

/* ReboundScheme.record_dependence: returns ``claims`` (-1 on a Bloom
 * false negative). */
static int dep_record(mem_core_t *c, int consumer, int producer,
                      int64_t addr)
{
    uint64_t pos[MAX_WSIG_HASHES];
    mem_depset_t *dep = NULL;
    int i, claims = 0, genuine = 0;
    /* MyProducers is set as the line arrives (superset semantics); in
     * cluster mode every member of the consumer's cluster records the
     * producer's whole cluster. */
    if (c->cluster == 1) {
        dep_active(c, consumer)->d.producers |= 1ull << producer;
    } else {
        uint64_t members = cluster_mask(c, consumer);
        uint64_t producer_mask = cluster_mask(c, producer);
        while (members) {
            dep_active(c, __builtin_ctzll(members))->d.producers |=
                producer_mask;
            members &= members - 1;
        }
    }
    /* "Are you the last writer?" across the producer's live WSIGs,
     * newest first (DepRegisterFile.query_writer). */
    wsig_positions(c, addr, pos);
    for (i = c->dep_n[producer] - 1; i >= 0; i--) {
        int slot = dep_slot(c, producer, i);
        claims = wsig_test(c, producer, slot, addr, pos, &genuine);
        if (claims < 0)
            return -1;
        if (claims) {
            dep = dep_at(c, producer, slot);
            break;
        }
    }
    if (!claims)
        return 0;
    if (c->cluster == 1) {
        dep->d.consumers |= 1ull << consumer;
        if (genuine)
            dep->d.consumers_genuine |= 1ull << consumer;
    } else {
        uint64_t consumer_mask = cluster_mask(c, consumer);
        dep->d.consumers |= consumer_mask;
        if (genuine)
            dep->d.consumers_genuine |= consumer_mask;
    }
    if (genuine)
        dep_active(c, consumer)->d.producers_genuine |= 1ull << producer;
    return 1;
}

/* ---- the undo log and the logging memory controller ---- */

/* ReviveLog.append */
static int log_append(mem_core_t *c, double time, int pid, int64_t addr,
                      int64_t old, int64_t interval)
{
    mem_logent_t *e;
    int64_t tbin, *bytes;
    if (c->log_n == c->log_cap) {
        int64_t cap = c->log_cap ? c->log_cap * 2 : 256;
        mem_logent_t *log = realloc(c->log, sizeof(mem_logent_t) * cap);
        if (!log)
            return 0;
        c->log = log;
        c->log_cap = cap;
    }
    e = &c->log[c->log_n++];
    e->seq = ++c->log_seq;
    e->time = time;
    e->pid = pid;
    e->addr = addr;
    e->old_value = old;
    e->interval = interval;
    c->log_total++;
    tbin = (int64_t)time / c->bin_cycles;
    bytes = map_slot(c, &c->log_bins, tbin);
    if (!bytes)
        return 0;
    *bytes += c->entry_bytes;
    return 1;
}

/* The first-writeback filter of (pid, interval), created if absent;
 * NULL when out of memory. */
static mem_group_t *filter_group(mem_core_t *c, int pid, int64_t interval)
{
    mem_filter_t *f = &c->filters[pid];
    mem_group_t *g;
    int i;
    for (i = 0; i < f->n; i++)
        if (f->groups[i].interval == interval)
            return &f->groups[i];
    if (f->n == f->cap) {
        int cap = f->cap ? f->cap * 2 : 4;
        mem_group_t *groups = realloc(f->groups, sizeof(mem_group_t) * cap);
        if (!groups)
            return NULL;
        f->groups = groups;
        f->cap = cap;
    }
    g = &f->groups[f->n];
    g->interval = interval;
    if (!ix_init(&g->lines)) {
        ix_free(&g->lines);
        return NULL;
    }
    f->n++;
    return g;
}

static void filter_drop(mem_filter_t *f, int i)
{
    ix_free(&f->groups[i].lines);
    memmove(f->groups + i, f->groups + i + 1,
            sizeof(mem_group_t) * (f->n - i - 1));
    f->n--;
}

/* MainMemory.log_writeback: log ``old`` unless ``pid`` already logged
 * ``addr`` in ``interval``; returns 1 if an entry was made. */
static int log_writeback(mem_core_t *c, double time, int pid, int64_t addr,
                         int64_t old, int64_t interval)
{
    mem_group_t *g;
    int added;
    c->mem_writes++;
    g = filter_group(c, pid, interval);
    added = g ? ix_add(&g->lines, addr) : -1;
    if (added == 0) {
        c->suppressed_logs++;
        return 0;
    }
    if (added < 0 || !log_append(c, time, pid, addr, old, interval)) {
        fail(c, FAIL_MEMORY);
        return 0;
    }
    c->logged_writebacks++;
    return 1;
}

/* ---- Python events and the interval of a writeback ---- */

/* The callbacks, each returning the callback's result (negative on
 * failure).  None reaches Python once the core has failed: the scheme's
 * state and the log stop changing with the first failure, and a second
 * exception cannot replace the first. */
static int event_dependence(mem_core_t *c, int consumer, int producer,
                            int64_t addr)
{
    int r;
    if (c->failed)
        return -1;
    if (c->hooks == HOOKS_REBOUND)
        return dep_record(c, consumer, producer, addr);
    r = mem_cb_dependence(c->owner, consumer, producer, addr);
    if (r < 0)
        fail(c, FAIL_CALLBACK);
    return r;
}

static void event_wsig(mem_core_t *c, int pid, int64_t addr)
{
    if (c->failed)
        return;
    if (c->hooks == HOOKS_REBOUND)
        wsig_add(c, pid, dep_slot(c, pid, c->dep_n[pid] - 1), addr);
    else if (mem_cb_wsig(c->owner, pid, addr) < 0)
        fail(c, FAIL_CALLBACK);
}

/* tracker.interval_of(pid) */
static inline int64_t current_interval(mem_core_t *c, int pid)
{
    if (c->hooks == HOOKS_REBOUND)
        return dep_active(c, pid)->d.interval_id;
    return c->hot != NULL ? c->hot[pid].interval : 0;
}

/* A writeback of ``kind`` left ``pid``'s cache: resolves the interval
 * that tags its log entry (LINE_LOG_GIVEN keeps ``*interval``) and, for
 * a Delayed line, runs tracker.on_line_left_cache.  Negative on
 * failure. */
static int line_event(mem_core_t *c, double now, int pid, int64_t addr,
                      int kind, int64_t *interval)
{
    int r;
    if (c->failed)
        return -1;
    if (kind == LINE_LOG_GIVEN)
        return 0;
    if (c->hooks == HOOKS_PYTHON) {
        r = mem_cb_line(c->owner, now, pid, addr, kind, interval);
        if (r < 0)
            fail(c, FAIL_CALLBACK);
        return r;
    }
    if (kind == LINE_LOG_CURRENT) {
        *interval = current_interval(c, pid);
        return 0;
    }
    if (kind == LINE_LOG_DELAYED)  /* tracker.delayed_interval_of(pid) */
        *interval = c->hot != NULL && c->hot[pid].delayed_ckpt_id >= 0
                    ? c->hot[pid].delayed_ckpt_id
                    : current_interval(c, pid);
    if (c->hooks == HOOKS_REBOUND && c->hot[pid].pending_delayed > 0)
        c->hot[pid].pending_delayed--;
    return 0;
}

/* MainMemory.writeback: the image takes ``value`` and the old value is
 * logged under the writeback's interval. */
static void memory_writeback(mem_core_t *c, double now, int pid,
                             int64_t addr, int64_t value, int kind,
                             int64_t interval)
{
    int64_t *slot = map_slot(c, &c->image, addr), old;
    if (!slot)
        return;
    old = *slot;
    *slot = value;
    if (line_event(c, now, pid, addr, kind, &interval) == 0)
        log_writeback(c, now, pid, addr, old, interval);
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
        if (!victim->dirty) {
            int64_t unused = 0;
            line_event(c, now, pid, addr, LINE_LEFT, &unused);
        }
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
    dir_evict_copy(&c->dir.ents[victim->dir_pos], pid);
    c->energy_dir++;
}

/* Installs the line of directory entry ``e``, which ``pid``'s L2 has
 * just missed. */
static void install(mem_core_t *c, int pid, const mem_dirent_t *e,
                    int state, int64_t value, double now)
{
    mem_line_t victim;
    if (l2_insert(c, pid, e, state, value, &victim))
        evict(c, pid, &victim, now);
    l1_fill(c, pid, e->addr);
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
        install(c, pid, e, ST_SHARED, value, now);
    } else if (e->mode == DIR_SHARED) {
        handle_dependence(c, e, pid, 0);
        extra = ch_demand_access(c, now, addr, &ckpt_share);
        c->ckpt_wait[pid] += ckpt_share;
        lat += (double)c->memory_cycles + extra;
        value = map_get(&c->image, addr);
        c->energy_dram++;
        e->sharers |= 1ull << pid;
        install(c, pid, e, ST_SHARED, value, now);
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
        install(c, pid, e, ST_EXCLUSIVE, value, now);
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
    install(c, pid, e, ST_MODIFIED, value, now);
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
/* Dep registers, seen from Python                                     */
/* ------------------------------------------------------------------ */

mem_dep_t *mem_dep_row(mem_core_t *c, int pid, int slot)
{
    return &dep_at(c, pid, slot)->d;
}

uint64_t *mem_dep_words(mem_core_t *c, int pid, int slot)
{
    return wsig_at(c, pid, slot);
}

/* A fresh set in ``slot`` (DepRegisterFile._new_set). */
int mem_dep_reset(mem_core_t *c, int pid, int slot, int64_t interval_id,
                  double start_time)
{
    mem_depset_t *set = dep_at(c, pid, slot);
    memset(&set->d, 0, sizeof(mem_dep_t));
    set->d.interval_id = interval_id;
    set->d.start_time = start_time;
    memset(wsig_at(c, pid, slot), 0, sizeof(uint64_t) * c->wsig_words);
    if (!ix_reset(&set->exact)) {
        fail(c, FAIL_MEMORY);
        return 0;
    }
    return 1;
}

/* The live sets of ``pid``, oldest first, as Python's list holds them. */
void mem_dep_order(mem_core_t *c, int pid, const int32_t *slots, int n)
{
    memcpy(c->dep_order + (int64_t)pid * c->dep_slots, slots,
           sizeof(int32_t) * n);
    c->dep_n[pid] = n;
}

/* WriteSignature.merge: ``dst`` takes the union with ``src``. */
int mem_wsig_merge(mem_core_t *c, int pid, int dst, int src)
{
    uint64_t *to = wsig_at(c, pid, dst);
    const uint64_t *from = wsig_at(c, pid, src);
    const mem_index_t *exact = &dep_at(c, pid, src)->exact;
    int64_t i;
    for (i = 0; i < c->wsig_words; i++)
        to[i] |= from[i];
    for (i = 0; i < exact->n; i++) {
        if (ix_add(&dep_at(c, pid, dst)->exact, exact->keys[i]) < 0) {
            fail(c, FAIL_MEMORY);
            return 0;
        }
    }
    return 1;
}

int64_t mem_wsig_size(mem_core_t *c, int pid, int slot)
{
    return dep_at(c, pid, slot)->exact.n;
}

int64_t mem_wsig_key(mem_core_t *c, int pid, int slot, int64_t i)
{
    return dep_at(c, pid, slot)->exact.keys[i];
}

/* ------------------------------------------------------------------ */
/* the undo log, seen from Python                                      */
/* ------------------------------------------------------------------ */

int mem_log_writeback(mem_core_t *c, double time, int pid, int64_t addr,
                      int64_t old, int64_t interval)
{
    return log_writeback(c, time, pid, addr, old, interval);
}

/* MainMemory.end_interval: drop the filter of a closed interval. */
void mem_end_interval(mem_core_t *c, int pid, int64_t interval)
{
    mem_filter_t *f = &c->filters[pid];
    int i;
    for (i = 0; i < f->n; i++) {
        if (f->groups[i].interval == interval) {
            filter_drop(f, i);
            return;
        }
    }
}

static inline int undone(const mem_logent_t *e, const int64_t *targets)
{
    return targets[e->pid] >= 0 && e->interval > targets[e->pid];
}

/* ReviveLog.entries_after: the entries of the targeted cores (pid ->
 * checkpoint id, -1 for none) newer than their target, newest first,
 * into ``out`` (room for log_n); returns the count. */
int64_t mem_log_select(mem_core_t *c, const int64_t *targets,
                       mem_logent_t *out)
{
    int64_t i, n = 0;
    for (i = c->log_n - 1; i >= 0; i--)
        if (undone(&c->log[i], targets))
            out[n++] = c->log[i];
    return n;
}

/* ReviveLog.discard_after: drops those entries; returns the count. */
int64_t mem_log_discard(mem_core_t *c, const int64_t *targets)
{
    int64_t i, kept = 0;
    for (i = 0; i < c->log_n; i++)
        if (!undone(&c->log[i], targets))
            c->log[kept++] = c->log[i];
    i = c->log_n - kept;
    c->log_n = kept;
    return i;
}

/* MainMemory.restore: undo the selected entries newest first into the
 * image, discard them and the undone intervals' filters.  ``out`` gets
 * the undone entries; returns their count. */
int64_t mem_log_restore(mem_core_t *c, const int64_t *targets,
                        mem_logent_t *out)
{
    int64_t i, n = mem_log_select(c, targets, out);
    int pid, g;
    for (i = 0; i < n; i++) {
        map_set(c, &c->image, out[i].addr, out[i].old_value);
        c->mem_writes++;
    }
    mem_log_discard(c, targets);
    for (pid = 0; pid < c->n_cores; pid++) {
        mem_filter_t *f = &c->filters[pid];
        if (targets[pid] < 0)
            continue;
        for (g = f->n - 1; g >= 0; g--)
            if (f->groups[g].interval > targets[pid])
                filter_drop(f, g);
    }
    return c->failed ? -1 : n;
}

/* ReviveLog.trim_before: in each of ``n_banks`` banks (by address),
 * drop the entries ahead of the first one at or after ``time``;
 * returns the count (-1 when out of memory). */
int64_t mem_log_trim(mem_core_t *c, double time, int n_banks)
{
    uint8_t *reached = calloc((size_t)n_banks, 1);
    int64_t i, kept = 0;
    if (!reached)
        return -1;
    for (i = 0; i < c->log_n; i++) {
        int bank = (int)pymod(c->log[i].addr, n_banks);
        if (!reached[bank] && c->log[i].time >= time)
            reached[bank] = 1;
        if (reached[bank])
            c->log[kept++] = c->log[i];
    }
    free(reached);
    i = c->log_n - kept;
    c->log_n = kept;
    return i;
}

/* ReviveLog.max_interval_bytes */
int64_t mem_log_max_bin(mem_core_t *c)
{
    int64_t i, best = 0;
    for (i = 0; i < c->log_bins.ix.n; i++)
        if (c->log_bins.vals[i] > best)
            best = c->log_bins.vals[i];
    return best;
}

/* ------------------------------------------------------------------ */
/* lifetime                                                            */
/* ------------------------------------------------------------------ */

static void free_hooks(mem_core_t *c)
{
    int64_t i, n = (int64_t)c->n_cores * c->dep_slots;
    if (c->deps)
        for (i = 0; i < n; i++)
            ix_free(&c->deps[i].exact);
    free(c->deps);
    free(c->wsig);
    free(c->dep_order);
    free(c->dep_n);
    c->deps = NULL;
    c->wsig = NULL;
    c->dep_order = c->dep_n = NULL;
}

static void free_filters(mem_core_t *c)
{
    int64_t i;
    if (c->filters) {
        for (i = 0; i < c->n_cores; i++) {
            while (c->filters[i].n)
                filter_drop(&c->filters[i], c->filters[i].n - 1);
            free(c->filters[i].groups);
        }
    }
    free(c->filters);
}

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
    free_hooks(c);
    free_filters(c);
    free(c->log);
    ix_free(&c->log_bins.ix);
    free(c->log_bins.vals);
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
            !ALLOC(c->epochs, n_cores) || !ALLOC(c->ckpt_wait, n_cores) ||
            !ALLOC(c->filters, n_cores) || !map_init(&c->log_bins)) {
        mem_free(c);
        return NULL;
    }
    c->hooks = HOOKS_PYTHON;
    c->bin_cycles = 1;
    return c;
}

/* Selects the scheme hooks; HOOKS_REBOUND also allocates the Dep
 * registers: ``n_sets`` slots per core (DepRegisterFile never holds
 * more live sets), WSIGs of ``wsig_bits`` (a power of two) with
 * ``wsig_hashes`` hashes, Dep-register clusters of ``cluster`` cores.
 * Returns 0 when out of memory or out of range. */
int mem_set_hooks(mem_core_t *c, int hooks, int n_sets, int64_t wsig_bits,
                  int wsig_hashes, int cluster)
{
    int64_t i, n;
    c->hooks = hooks;
    if (hooks != HOOKS_REBOUND)
        return 1;
    if (n_sets < 1 || wsig_bits < 1 || wsig_hashes < 0 ||
            wsig_hashes > MAX_WSIG_HASHES || cluster < 1)
        return 0;
    free_hooks(c);
    c->dep_slots = n_sets;
    c->wsig_words = (int)(wsig_bits + 63) / 64;
    c->wsig_mask = (uint64_t)wsig_bits - 1;
    c->wsig_hashes = wsig_hashes;
    c->cluster = cluster;
    n = (int64_t)c->n_cores * c->dep_slots;
    if (!ALLOC(c->deps, n) || !ALLOC(c->wsig, n * c->wsig_words) ||
            !ALLOC(c->dep_order, n) || !ALLOC(c->dep_n, c->n_cores))
        return 0;
    for (i = 0; i < n; i++)
        if (!ix_init(&c->deps[i].exact))
            return 0;
    return 1;
}

/* The log's time bins and entry size (ReviveLog.bin_cycles,
 * LOG_ENTRY_BYTES). */
void mem_set_log(mem_core_t *c, int64_t bin_cycles, int64_t entry_bytes)
{
    c->bin_cycles = bin_cycles;
    c->entry_bytes = entry_bytes;
}

#define DUP(dst, src, n) do { \
        (dst) = malloc(sizeof(*(src)) * (size_t)(n)); \
        if (!(dst)) goto oom; \
        memcpy((dst), (src), sizeof(*(src)) * (size_t)(n)); \
    } while (0)

/* The Dep registers, the log and the filters of ``src`` into ``c``,
 * whose pointers to them are NULL. */
static int clone_hooks(mem_core_t *c, const mem_core_t *src)
{
    int64_t i, n = (int64_t)src->n_cores * src->dep_slots;
    int g;
    if (src->deps) {
        DUP(c->deps, src->deps, n);
        for (i = 0; i < n; i++)
            memset(&c->deps[i].exact, 0, sizeof(mem_index_t));
        for (i = 0; i < n; i++)
            if (!ix_clone(&c->deps[i].exact, &src->deps[i].exact))
                goto oom;
        DUP(c->wsig, src->wsig, n * src->wsig_words);
        DUP(c->dep_order, src->dep_order, n);
        DUP(c->dep_n, src->dep_n, src->n_cores);
    }
    c->log = malloc(sizeof(mem_logent_t) * (src->log_cap ? src->log_cap : 1));
    if (!c->log)
        goto oom;
    if (src->log_n)
        memcpy(c->log, src->log, sizeof(mem_logent_t) * src->log_n);
    if (!map_clone(&c->log_bins, &src->log_bins))
        goto oom;
    if (!ALLOC(c->filters, src->n_cores))
        goto oom;
    for (i = 0; i < src->n_cores; i++) {
        const mem_filter_t *from = &src->filters[i];
        mem_filter_t *to = &c->filters[i];
        if (!from->cap)
            continue;
        if (!ALLOC(to->groups, from->cap))
            goto oom;
        to->cap = from->cap;
        for (g = 0; g < from->n; g++) {
            to->groups[g].interval = from->groups[g].interval;
            to->n = g + 1;
            if (!ix_clone(&to->groups[g].lines, &from->groups[g].lines))
                goto oom;
        }
    }
    return 1;
oom:
    return 0;
}

/* A deep copy of the whole core (Machine.fork); the clone's owner
 * handle and its loop rows (mem_bind_loop) are set by the caller. */
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
    c->deps = NULL;
    c->wsig = NULL;
    c->dep_order = c->dep_n = NULL;
    c->log = NULL;
    memset(&c->log_bins, 0, sizeof(c->log_bins));
    c->filters = NULL;
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
    if (!clone_hooks(c, src))
        goto oom;
    return c;
oom:
    mem_free(c);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* the machine loop                                                    */
/* ------------------------------------------------------------------ */

/* The memory system reads ``l``'s core rows (writeback intervals,
 * Delayed lines); a fork binds its clones to each other. */
void mem_bind_loop(mem_core_t *c, mem_loop_t *l)
{
    c->hot = l->hot;
}

/* ``when`` as an unsigned word of the same order: the sign bit flipped
 * for a positive time, every bit for a negative one.  -0.0 becomes 0.0
 * first (Python compares the two equal).  Times are never NaN. */
static inline uint64_t when_key(double when)
{
    uint64_t bits;
    when += 0.0;
    memcpy(&bits, &when, sizeof(bits));
    return bits >> 63 ? ~bits : bits | (1ull << 63);
}

static inline double key_when(uint64_t key)
{
    uint64_t bits = key >> 63 ? key & ~(1ull << 63) : ~key;
    double when;
    memcpy(&when, &bits, sizeof(when));
    return when;
}

/* ``seq`` as an unsigned word of the same order. */
static inline uint64_t seq_key(int64_t seq)
{
    return (uint64_t)seq ^ (1ull << 63);
}

static inline void node_event(const mem_node_t *n, mem_event_t *e)
{
    e->when = key_when(n->wkey);
    e->seq = (int64_t)(n->skey ^ (1ull << 63));
    e->kind = n->kind;
    e->pid = n->pid;
    e->arg = n->arg;
}

/* The (when, seq) order, without a branch: the comparisons are combined
 * with ``&`` and ``|``, not ``&&`` and ``||``, so a descent's choice
 * between two children is a data dependence instead of a jump that
 * mispredicts about half the time. */
static inline int ev_before(const mem_node_t *x, const mem_node_t *y)
{
    return (x->wkey < y->wkey) | ((x->wkey == y->wkey) & (x->skey < y->skey));
}

/* Fills the hole at heap[i] with ``e`` (Floyd's bottom-up descent): the
 * hole moves down along the earlier child to a leaf, comparing only the
 * two children, then ``e`` rises from there, no higher than ``i``.  An
 * entry that replaces the root is usually due after most of the heap,
 * so it rises little, and the descent costs about one comparison per
 * level instead of two. */
static void heap_fill(mem_loop_t *l, int64_t i, const mem_node_t *e)
{
    mem_node_t *h = l->heap;
    int64_t n = l->heap_n, top = i, child, parent;
    while ((child = 2 * i + 1) + 1 < n) {
        child += ev_before(&h[child + 1], &h[child]);
        h[i] = h[child];
        i = child;
    }
    if (child < n) {    /* a lone last child */
        h[i] = h[child];
        i = child;
    }
    while (i > top) {
        parent = (i - 1) / 2;
        if (!ev_before(e, &h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = *e;
}

static int heap_push(mem_loop_t *l, double when, int64_t seq, int kind,
                     int pid, int64_t arg)
{
    mem_node_t e;
    int64_t i, parent;
    if (l->heap_n == l->heap_cap) {
        int64_t cap = l->heap_cap * 2;
        mem_node_t *heap = realloc(l->heap, sizeof(mem_node_t) * cap);
        if (!heap)
            return 0;
        l->heap = heap;
        l->heap_cap = cap;
    }
    e.wkey = when_key(when);
    e.skey = seq_key(seq);
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

static int heap_pop(mem_loop_t *l, mem_event_t *out)
{
    mem_node_t last;
    if (!l->heap_n)
        return 0;
    l->pops++;
    node_event(&l->heap[0], out);
    if (--l->heap_n) {
        last = l->heap[l->heap_n];
        heap_fill(l, 0, &last);
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
    return l->heap_n ? key_when(l->heap[0].wkey) : INFINITY;
}

/* Removes every entry of ``kind`` (a fork drops its parent's pauses). */
void loop_drop(mem_loop_t *l, int kind)
{
    int64_t i, n = 0;
    for (i = 0; i < l->heap_n; i++)
        if (l->heap[i].kind != kind)
            l->heap[n++] = l->heap[i];
    l->heap_n = n;
    for (i = n / 2 - 1; i >= 0; i--) {
        mem_node_t e = l->heap[i];
        heap_fill(l, i, &e);
    }
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

/* ------------------------------------------------------------------ */
/* locks and barriers (repro.sim.sync.SyncManager)                     */
/* ------------------------------------------------------------------ */

/* Core.next_store_value: the unique value of ``pid``'s next store. */
static inline int64_t store_value(mem_loop_t *l, int pid)
{
    return ((int64_t)pid << 40) | ++l->hot[pid].store_seq;
}

/* Python's max(0.0, d). */
static inline double waited(double d)
{
    return d > 0.0 ? d : 0.0;
}

static void sync_block(mem_loop_t *l, int pid, int kind, int64_t site,
                       double now)
{
    l->hot[pid].blocked = kind;
    l->hot[pid].block_site = site;
    l->hot[pid].block_start = now;
    l->hot[pid].time = now;
}

/* A test&set on ``line``: a load, then a store.  Returns its latency,
 * negative when the core failed. */
static double sync_rmw(mem_core_t *c, mem_loop_t *l, int pid, int64_t line,
                       double now)
{
    mem_hot_t *h = &l->hot[pid];
    double lat = mem_load(c, pid, line, now), st;
    if (lat < 0.0)
        return lat;
    st = mem_store(c, pid, line, store_value(l, pid), now + lat);
    if (st < 0.0)
        return st;
    lat += st;
    h->instr_count += 2;
    h->instr_since_ckpt += 2;
    h->busy += lat;
    return lat;
}

/* ``pid`` stops waiting at ``now`` and is past the record it blocked on
 * at ``done``.  Returns 0, or -1 when out of memory. */
static int sync_wake(mem_core_t *c, mem_loop_t *l, int pid, double now,
                     double done)
{
    mem_hot_t *w = &l->hot[pid];
    w->sync_wait += waited(now - w->block_start);
    w->blocked = 0;
    w->block_site = -1;
    w->time = done;
    w->ip++;
    if (!loop_push_core(l, pid)) {
        fail(c, FAIL_MEMORY);
        return -1;
    }
    return 0;
}

/* Hands lock slot ``k``, if free, to its first waiter still blocked on
 * it; the waiter's test&set reads the releaser's store.  Returns 0, or
 * -1 when the core failed. */
static int sync_grant(mem_core_t *c, mem_loop_t *l, int64_t k, double now)
{
    mem_lock_t *lk = &l->locks[k];
    double lat;
    int pid;
    while (lk->n_waiting && lk->holder < 0) {
        pid = lk->waiting[0];
        lk->n_waiting--;
        memmove(lk->waiting, lk->waiting + 1,
                sizeof(int32_t) * (size_t)lk->n_waiting);
        if (l->hot[pid].blocked != BLOCK_LOCK ||
                l->hot[pid].block_site != lk->lock_id)
            continue;   /* a stale entry (after a rollback) */
        lat = sync_rmw(c, l, pid, lk->line, now);
        if (lat < 0.0)
            return -1;
        lk->holder = pid;
        l->lock_acquisitions++;
        if (sync_wake(c, l, pid, now, now + lat) < 0)
            return -1;
    }
    return 0;
}

/* The grant after a rollback freed lock ``lock_id``; 0 or -1 (failed). */
int sync_grant_next(mem_core_t *c, mem_loop_t *l, int64_t lock_id,
                    double now)
{
    return sync_grant(c, l, ix_find(&l->lock_ix, lock_id), now);
}

/* Core ``pid`` arrives at barrier ``barrier_id`` at ``now``, up to the
 * scheme's hook: SYNC_PASSED (``*t``: when it is past the record),
 * SYNC_WAIT or SYNC_LAST (``*t``: its arrival), or -1 (failed). */
int sync_arrive(mem_core_t *c, mem_loop_t *l, int pid, int64_t barrier_id,
                double now, double *t)
{
    mem_barrier_t *b = &l->barriers[ix_find(&l->barrier_ix, barrier_id)];
    int64_t *crossed = &b->crossed[pid];
    mem_hot_t *h = &l->hot[pid];
    double lat;
    if (*crossed < b->gen) {
        /* A rolled-back straggler re-arriving at a released generation:
         * it observes the flag (the dependence on its writer) and
         * passes through. */
        lat = mem_load(c, pid, b->flag_line, now);
        if (lat < 0.0)
            return -1;
        h->instr_count++;
        h->instr_since_ckpt++;
        h->busy += lat;
        ++*crossed;
        *t = now + lat;
        return SYNC_PASSED;
    }
    /* The update section: arrivals chain WAW dependences through the
     * count line. */
    lat = sync_rmw(c, l, pid, b->count_line, now);
    if (lat < 0.0)
        return -1;
    *t = now + lat;
    b->arrived[b->n_arrived++] = pid;
    return b->n_arrived == b->n ? SYNC_LAST : SYNC_WAIT;
}

/* The last arriver ``pid`` (at ``now``) writes barrier ``barrier_id``'s
 * flag at ``flag_time`` (the scheme's gate) and wakes the spinners, each
 * with a load that observes the flag.  Returns the release time, or -1
 * when the core failed. */
double sync_release(mem_core_t *c, mem_loop_t *l, int pid,
                    int64_t barrier_id, double now, double flag_time)
{
    mem_barrier_t *b = &l->barriers[ix_find(&l->barrier_ix, barrier_id)];
    mem_hot_t *h = &l->hot[pid], *w;
    double lat, spin, release;
    int32_t i, waiter;
    l->barrier_episodes++;
    lat = mem_store(c, pid, b->flag_line, store_value(l, pid), flag_time);
    if (lat < 0.0)
        return -1.0;
    h->instr_count++;
    h->instr_since_ckpt++;
    release = flag_time + lat;
    for (i = 0; i < b->n_arrived; i++) {
        waiter = b->arrived[i];
        w = &l->hot[waiter];
        if (waiter == pid || w->blocked != BLOCK_BARRIER ||
                w->block_site != b->barrier_id)
            continue;
        spin = mem_load(c, waiter, b->flag_line, release);
        if (spin < 0.0)
            return -1.0;
        w->instr_count++;
        w->instr_since_ckpt++;
        b->crossed[waiter]++;
        if (sync_wake(c, l, waiter, release, release + spin) < 0)
            return -1.0;
    }
    b->crossed[pid]++;
    h->sync_wait += waited(release - now);
    b->n_arrived = 0;
    b->gen++;
    return release;
}

/* Machine._exec_record for core ``pid``'s LOCK, UNLOCK or BARRIER record
 * ``ip`` at ``now``.  Returns 1 when done (the core is blocked, or past
 * the record and pushed), 0 when Python must take the record (an
 * unknown id, an unlock by a non-holder: Python raises), -1 when the
 * core failed. */
static int sync_record(mem_core_t *c, mem_loop_t *l, int pid, int op,
                       int64_t arg, int64_t ip, double now)
{
    int64_t k = ix_find(op == OP_BARRIER ? &l->barrier_ix : &l->lock_ix,
                        arg);
    mem_lock_t *lk;
    double t = 0.0;
    int r;
    if (k < 0)
        return 0;
    if (op == OP_BARRIER) {
        r = sync_arrive(c, l, pid, arg, now, &t);
        if (r == SYNC_WAIT) {
            sync_block(l, pid, BLOCK_BARRIER, arg, t);
            return 1;
        }
        if (r == SYNC_LAST)
            t = sync_release(c, l, pid, arg, t, t);
        if (r < 0 || t < 0.0)
            return -1;
    } else if (op == OP_LOCK) {
        lk = &l->locks[k];
        if (lk->holder >= 0) {
            lk->waiting[lk->n_waiting++] = pid;
            sync_block(l, pid, BLOCK_LOCK, arg, now);
            return 1;
        }
        t = sync_rmw(c, l, pid, lk->line, now);
        if (t < 0.0)
            return -1;
        t = now + t;
        lk->holder = pid;
        l->lock_acquisitions++;
    } else {
        lk = &l->locks[k];
        if (lk->holder != pid)
            return 0;
        t = mem_store(c, pid, lk->line, store_value(l, pid), now);
        if (t < 0.0)
            return -1;
        l->hot[pid].instr_count++;
        l->hot[pid].instr_since_ckpt++;
        lk->holder = -1;
        t = now + t;
        if (sync_grant(c, l, k, t) < 0)
            return -1;
    }
    l->hot[pid].ip = ip + 1;
    l->hot[pid].time = t;
    if (!loop_push_core(l, pid)) {
        fail(c, FAIL_MEMORY);
        return -1;
    }
    return 1;
}

/* Counts a return of mem_advance. */
static inline int adv(mem_loop_t *l, int reason)
{
    l->returns[reason]++;
    return reason;
}

/* Machine._advance_main over the compiled memory system: pops entries
 * and runs each popped core's batch of COMPUTE/LOAD/STORE records until
 * something needs Python (see the ADV_ codes); a LOCK, UNLOCK or (unless
 * barrier_hooks) BARRIER record runs here too and ends the batch.  A
 * batch continues while no heap entry is due at or before the core's
 * next record, for at most ``quantum`` records.  A batch suspended for
 * post_op resumes on the next call unless post_op stalled the core past
 * the batch's clock.
 *
 * A batch ends with a push of the core's new entry and the next pop,
 * done as one step (replace-top).  The batch ended because heap[0] is
 * due at or before the new entry; on a tie of times the new entry's
 * fresh seq is the largest handed out, so heap[0] is what pops next.  It
 * is taken, and the new entry fills the root with one descent.  When
 * only the budget ended the batch, the new entry is itself the next pop
 * and never enters the heap.  At 64 cores a residency averages about
 * one record, so this step runs about once per record. */
int mem_advance(mem_core_t *c, mem_loop_t *l, double limit, double gate,
                int64_t quantum, mem_event_t *out)
{
    mem_event_t e;
    mem_node_t next;
    int pid = l->batch_pid, in_batch = l->suspended, gated = 0;
    int taken = 0, op, r;
    mem_hot_t *h = &l->hot[pid];
    double now = l->batch_now, when, t, nb, lat;
    int64_t budget = l->batch_budget, ip, arg;
    if (in_batch) {
        /* post_op ran: the gate is passed for this record, unless
         * post_op stalled the core, which ends the batch. */
        l->suspended = 0;
        gated = 1;
        if (h->not_before > now) {
            in_batch = gated = 0;
            if (!loop_push_core(l, pid))
                goto oom;
        }
    }
    for (;;) {
        if (!in_batch) {
            if (taken) {
                taken = 0;  /* a batch end took ``e`` off the heap */
            } else {
                if (l->n_done >= l->n)
                    return adv(l, ADV_DONE);
                if (!heap_pop(l, &e))
                    return adv(l, ADV_DEADLOCK);
            }
            /* A pause leaves the clock at the last real event. */
            if (e.kind == EV_PAUSE)
                return adv(l, ADV_PAUSE);
            if (e.when > l->now)
                l->now = e.when;
            if (e.when > limit)
                return adv(l, ADV_LIMIT);
            if (e.kind != EV_EXEC) {
                *out = e;
                return adv(l, ADV_CALL);
            }
            pid = e.pid;
            h = &l->hot[pid];
            if (h->done || h->blocked || e.arg != h->epoch)
                continue;  /* stale entry */
            if (e.when < h->not_before) {
                if (!loop_push_core(l, pid))
                    goto oom;
                continue;
            }
            t = h->time;
            now = e.when >= t ? e.when : t;
            budget = quantum;
            in_batch = 1;
            l->residencies++;
        }
        /* Checkpoint initiation runs at the core's true position in
         * the global time order, before its next record. */
        if (!gated && (double)h->instr_since_ckpt >= gate) {
            l->suspended = 1;
            l->batch_pid = pid;
            l->batch_now = now;
            l->batch_budget = budget;
            out->pid = pid;
            out->when = now;
            return adv(l, ADV_POST_OP);
        }
        gated = 0;
        ip = h->ip;
        op = ip < l->n_records[pid] ? l->ops[pid][ip] : OP_END;
        arg = op == OP_END ? 0 : trace_arg(l, pid, ip);
        l->records[op & (N_OPS - 1)]++;
        /* The core reads its columns in order, one of 128 such streams
         * at 64 cores: fetch its next lines well before it gets there. */
        __builtin_prefetch((const void *)((uintptr_t)l->args[pid] +
                                          8 * (uintptr_t)(ip + 16)));
        __builtin_prefetch((const void *)((uintptr_t)l->ops[pid] +
                                          (uintptr_t)(ip + 64)));
        if (op == OP_COMPUTE) {
            h->time = now + (double)arg;
            h->instr_count += arg;
            h->instr_since_ckpt += arg;
            h->busy += (double)arg;
            h->ip = ip + 1;
        } else if (op == OP_LOAD || op == OP_STORE) {
            if (op == OP_LOAD) {
                lat = mem_load(c, pid, arg, now);
            } else {
                lat = mem_store(c, pid, arg, store_value(l, pid), now);
            }
            if (lat < 0.0)
                return adv(l, ADV_FAILED);
            h->time = now + lat;
            h->instr_count++;
            h->instr_since_ckpt++;
            h->busy += lat;
            h->ip = ip + 1;
        } else {
            r = op >= OP_BARRIER && op <= OP_UNLOCK &&
                !(op == OP_BARRIER && l->barrier_hooks)
                ? sync_record(c, l, pid, op, arg, ip, now) : 0;
            if (r < 0)
                return adv(l, ADV_FAILED);
            if (r) {
                in_batch = 0;
                continue;
            }
            out->when = now;
            out->kind = op;
            out->pid = pid;
            out->arg = arg;
            return adv(l, ADV_RECORD);
        }
        /* fused continuation */
        budget--;
        t = h->time;
        nb = h->not_before;
        when = t >= nb ? t : nb;
        next.wkey = when_key(when);
        if (budget <= 0 || (l->heap_n && l->heap[0].wkey <= next.wkey)) {
            /* push_exec and the next pop, as one step (see above) */
            in_batch = 0;
            next.skey = seq_key(++l->seq);
            next.kind = EV_EXEC;
            next.pid = pid;
            next.arg = ++h->epoch;
            if (l->heap_n && ev_before(&l->heap[0], &next)) {
                node_event(&l->heap[0], &e);
                heap_fill(l, 0, &next);
            } else {
                node_event(&next, &e);
            }
            l->pops++;
            taken = 1;
            continue;
        }
        /* The clock is not advanced record by record (nothing can
         * observe it mid-batch); the next pop re-synchronizes it. */
        if (when > limit) {
            l->now = when;
            return adv(l, ADV_LIMIT);
        }
        now = when;
    }
oom:
    fail(c, FAIL_MEMORY);
    return adv(l, ADV_FAILED);
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
    free(l->locks);
    free(l->barriers);
    ix_free(&l->lock_ix);
    ix_free(&l->barrier_ix);
    free(l);
}

/* A loop of ``n`` cores with room for ``n_locks`` locks and
 * ``n_barriers`` barriers (loop_add_lock, loop_add_barrier). */
mem_loop_t *loop_new(int n, int n_locks, int n_barriers)
{
    mem_loop_t *l = calloc(1, sizeof(mem_loop_t));
    int64_t m = n > 0 ? n : 1;
    if (!l)
        return NULL;
    l->n = n;
    l->n_locks = n_locks;
    l->n_barriers = n_barriers;
    l->heap_cap = 64;
    if (!ALLOC(l->hot, m) || !ALLOC(l->ops, m) || !ALLOC(l->args, m) ||
            !ALLOC(l->n_records, m) || !ALLOC(l->heap, l->heap_cap) ||
            !ALLOC(l->locks, n_locks + 1) ||
            !ALLOC(l->barriers, n_barriers + 1) ||
            !ix_init(&l->lock_ix) || !ix_init(&l->barrier_ix)) {
        loop_free(l);
        return NULL;
    }
    return l;
}

/* Fills the next lock slot; -1 when the table is full, the loop has
 * more than SYNC_CORES cores, or ``lock_id`` is negative or taken (or
 * out of memory). */
int loop_add_lock(mem_loop_t *l, int64_t lock_id, int64_t line)
{
    int64_t k = l->lock_ix.n;
    if (k >= l->n_locks || l->n > SYNC_CORES || lock_id < 0 ||
            ix_add(&l->lock_ix, lock_id) != 1)
        return -1;
    l->locks[k].lock_id = lock_id;
    l->locks[k].line = line;
    l->locks[k].holder = -1;
    return 0;
}

/* Fills the next barrier slot; -1 as loop_add_lock, or when a
 * participant is not a core of the loop. */
int loop_add_barrier(mem_loop_t *l, int64_t barrier_id, int64_t count_line,
                     int64_t flag_line, const int32_t *parts, int n_parts)
{
    int64_t k = l->barrier_ix.n;
    int i;
    if (k >= l->n_barriers || l->n > SYNC_CORES || barrier_id < 0 ||
            n_parts > l->n)
        return -1;
    for (i = 0; i < n_parts; i++)
        if (parts[i] < 0 || parts[i] >= l->n)
            return -1;
    if (ix_add(&l->barrier_ix, barrier_id) != 1)
        return -1;
    l->barriers[k].barrier_id = barrier_id;
    l->barriers[k].count_line = count_line;
    l->barriers[k].flag_line = flag_line;
    l->barriers[k].n = n_parts;
    memcpy(l->barriers[k].parts, parts, sizeof(int32_t) * (size_t)n_parts);
    return 0;
}

/* A deep copy (Machine.fork); the trace columns are shared. */
mem_loop_t *loop_clone(const mem_loop_t *src)
{
    mem_loop_t *l = malloc(sizeof(mem_loop_t));
    int64_t m = src->n > 0 ? src->n : 1;
    int64_t locks = src->n_locks + 1, barriers = src->n_barriers + 1;
    if (!l)
        return NULL;
    *l = *src;
    l->hot = NULL;
    l->ops = NULL;
    l->args = NULL;
    l->n_records = NULL;
    l->heap = NULL;
    l->locks = NULL;
    l->barriers = NULL;
    l->pops = l->residencies = 0;
    memset(l->records, 0, sizeof(l->records));
    memset(l->returns, 0, sizeof(l->returns));
    memset(&l->lock_ix, 0, sizeof(mem_index_t));
    memset(&l->barrier_ix, 0, sizeof(mem_index_t));
    if (!ix_clone(&l->lock_ix, &src->lock_ix) ||
            !ix_clone(&l->barrier_ix, &src->barrier_ix))
        goto oom;
    DUP(l->locks, src->locks, locks);
    DUP(l->barriers, src->barriers, barriers);
    DUP(l->hot, src->hot, m);
    DUP(l->ops, src->ops, m);
    DUP(l->args, src->args, m);
    DUP(l->n_records, src->n_records, m);
    l->heap = malloc(sizeof(mem_node_t) * src->heap_cap);
    if (!l->heap)
        goto oom;
    memcpy(l->heap, src->heap, sizeof(mem_node_t) * src->heap_n);
    return l;
oom:
    loop_free(l);
    return NULL;
}
