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
 * Checkpoints.  A built-in scheme's checkpoint is one call
 * (mem_checkpoint): Python picks the members and records the
 * CheckpointEvent; the member steps run here (stop and sync times,
 * the snapshot, the log markers' seqs, the burst writeback or the
 * Delayed marking and its drain time, the interval rotation, the stall
 * charges and the release).  Every delayed drain's completion, an
 * interval checkpoint's, a Nack-hurried one's or a BarCK member's, is
 * an EV_DRAIN queue entry; for these schemes (native_drains)
 * mem_advance completes it itself (mem_drain), and a stale one (rolled
 * back, or already hurried to completion) is a no-op.  The loop keeps
 * what these write: each core's snapshots and stall windows
 * (mem_history_t), its next snapshot id, its Nack horizon and its
 * stall accumulators (mem_hot_t), and, for Rebound, the order of its
 * live Dep sets and its next interval id (mem_core_t).  Rollbacks and
 * BarCK's member steps stay in Python, on the same state.
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
 * separate mem_loop_t: the event queue, every core's hot state, its
 * snapshots and stall windows, the trace columns and the locks and
 * barriers.  It executes COMPUTE, LOAD, STORE, LOCK and UNLOCK records
 * itself, BARRIER records unless the scheme's barrier hooks must run
 * (barrier_hooks), and drain completions unless the scheme completes
 * its drains in Python (native_drains).  Every queue entry is plain
 * data: a core to run, a fault to deliver, a drain to complete or a
 * pause.  It returns to Python, with a reason code, for everything
 * else: a fault, a Python drain or a pause popping, a hooked BARRIER,
 * OUTPUT or END record (or a synchronization record Python must
 * refuse), the scheme's post_op gate, the cycle limit, an empty queue
 * or a failed core.  It is a
 * translation of the Python loop (repro.sim.machine.Machine.
 * _advance_main) and of repro.sim.sync.SyncManager with the same order
 * of queue pops, accesses, clock updates and floating-point operations.
 * The memory system reads the loop's core rows (mem_bind_loop).
 *
 * Per-record cost.  At 64 cores a fused residency averages about one
 * record, so the loop's queue step and the memory system's line lookups
 * run about once per record; both are O(1).  Nearly every entry is due
 * within a few hundred cycles of the clock, so the queue is a calendar
 * of one bucket per cycle over a CAL_CYCLES window, a bitmap marking
 * the non-empty buckets; a binary heap holds only the rest (negative,
 * far-future and infinite times).  Line addresses are dense small
 * integers, so the directory, the image and golden answer a line from a
 * direct table (one load) and keep the hash for every other key (sync
 * lines, negative or sparse addresses).  A find-or-insert (ix_upsert,
 * map_slot) serves a read followed by a write, an L2 line keeps the
 * position of its directory entry for its eviction, and the loop
 * prefetches each core's trace columns ahead of it.  The loop counts
 * its pops, calendar and heap-tier pushes, residencies, records,
 * returns, checkpoints and their members, and completed and stale
 * drains; the memory system its dense and hashed line lookups
 * (integers only).
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
#define FAIL_DEPSETS 7       /* a checkpoint found no free Dep set (fail_pid) */

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

/* Queue entry kinds (repro.sim.machine): plain data, so a clone of the
 * queue is a fork's whole schedule. */
#define EV_EXEC 0     /* run core ``pid`` if ``arg`` is still its epoch */
#define EV_FAULT 2    /* deliver the injector's fault number ``arg`` */
#define EV_PAUSE 3    /* a replica-batch pause sentinel */
#define EV_DRAIN 4    /* core ``pid``'s delayed drain of checkpoint ``arg``
                       * completes (mem_drain, or Python's unless
                       * native_drains) */

/* Why mem_advance returned. */
#define ADV_DONE 0       /* every core finished its trace */
#define ADV_PAUSE 1      /* a pause sentinel popped */
#define ADV_CALL 2       /* a fault or a Python drain popped: the entry */
#define ADV_POST_OP 3    /* the post_op gate: post_op(``pid``, ``when``) */
#define ADV_RECORD 4     /* record ``kind`` (``arg``) of ``pid`` at ``when`` */
#define ADV_LIMIT 5      /* the cycle limit was exceeded */
#define ADV_DEADLOCK 6   /* the queue is empty with work outstanding */
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

/* A direct table starts at DIRECT_MIN keys and doubles only while it
 * stays within DIRECT_SPAN keys per entry of its index, so its memory
 * follows the lines touched: a sparse key stays in the hash. */
#define DIRECT_MIN 128
#define DIRECT_SPAN 32

/* Insertion-ordered index: key -> dense position.  A key below ndirect
 * is answered by the direct table (one load), every other key by the
 * hash; each key has exactly one home.  Only line maps (the directory,
 * the image, golden) have a direct table; elsewhere direct is NULL and
 * ndirect 0. */
typedef struct {
    int64_t *keys;      /* in insertion order */
    int64_t *slots;     /* dense position + 1; 0 = empty */
    int64_t n;
    int64_t cap;
    int64_t nslots;     /* power of two */
    int64_t hashed;     /* keys the hash holds */
    int32_t *direct;    /* dense position + 1 by key; 0 = absent */
    int64_t ndirect;    /* keys 0 .. ndirect - 1; a power of two */
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
 * and writes these fields in place.  epoch guards stale queue entries,
 * not_before is a scheme-injected delay floor, and Core.stats copies
 * busy, sync_wait and the checkpoint accumulators (wb_delay through
 * ckpt_gap_count, CoreStats's names) out.  The memory system reads
 * pending_delayed, delayed_ckpt_id (-1: none) and interval
 * (GlobalScheme's epoch) when it logs a writeback; a checkpoint
 * (mem_checkpoint) takes snapshot next_ckpt_id and raises
 * ckpt_busy_until, the horizon before which the core Nacks or Busies
 * another checkpoint request. */
typedef struct {
    int64_t ip, instr_count, instr_since_ckpt, epoch, store_seq;
    int64_t pending_delayed, delayed_ckpt_id, interval;
    int64_t block_site;     /* the lock or barrier id blocked on; -1: none */
    double time, not_before, busy;
    double block_start, sync_wait;
    int64_t next_ckpt_id;
    double ckpt_busy_until;
    double wb_delay, wb_imbalance, ckpt_sync, ipc_delay, depset_stall;
    double ckpt_backoff, stall_overhang, last_ckpt_time, ckpt_gap_sum;
    int64_t n_checkpoints, ckpt_gap_count;
    _Bool done;
    int8_t blocked;     /* 0: no, BLOCK_LOCK or BLOCK_BARRIER */
} mem_hot_t;

/* A snapshot (repro.sim.cores.CoreSnapshot): its checkpoint, the trace
 * position and instruction count, when it was taken, when its
 * writebacks completed (if complete) and the net checkpoint overhead
 * charged to the core by then.  The held locks and barrier crossings
 * are its row of mem_history_t.sync. */
typedef struct {
    int64_t ckpt_id, trace_ip, instr_count;
    double time, complete_time, overhead_mark;
    _Bool complete;
} mem_snap_t;

/* A charged checkpoint-stall window (Core.stall_segments). */
typedef struct {
    double start, end;
} mem_window_t;

/* One core's snapshots, oldest first, and its stall windows.  Row k's
 * lock and barrier state is sync[k * snap_stride ...]: a bitmask of the
 * lock slots the core held (lock_words words), then its crossings of
 * each barrier, by slot. */
typedef struct {
    mem_snap_t *rows;
    int64_t *sync;
    int64_t n, cap;
    mem_window_t *windows;
    int64_t n_windows, cap_windows;
} mem_history_t;

/* What a checkpoint (mem_checkpoint) reports for its CheckpointEvent:
 * the members' resume time, its duration and the lines written back. */
typedef struct {
    double resume, duration;
    int64_t dirty;
} mem_ckpt_t;

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
    /* line lookups (directory, image, golden) the direct table answered
     * and those the hash did; a clone counts from zero */
    int64_t dense_lookups, hashed_lookups;

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
    int64_t *dep_next;      /* the interval the next set opens */

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

/* A queue entry, as mem_advance and loop_pop report it.  Entries order
 * by (when, seq); seqs are unique, so the pop order is that of the
 * Python loop's heapq of (when, seq, kind, a, b) tuples. */
typedef struct {
    double when;
    int64_t seq;
    int32_t kind;
    int32_t pid;
    int64_t arg;
} mem_event_t;

/* An entry as the queue stores it: ``when`` and ``seq`` as unsigned
 * words in the same order (when_key, seq_key), so that comparing two
 * entries takes integer comparisons only. */
typedef struct {
    uint64_t wkey, skey;
    int32_t kind;
    int32_t pid;
    int64_t arg;
} mem_node_t;

/* The event queue's calendar: one bucket per cycle for the CAL_CYCLES
 * cycles from mem_loop_t.cal_base (CAL_WORDS bitmap words). */
#define CAL_CYCLES 1024
#define CAL_WORDS 16

/* A calendar entry: the entry and the next of its bucket (-1: none);
 * a free one chains the free list. */
typedef struct {
    mem_node_t e;
    int32_t next;
} mem_cal_t;

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
    /* The event queue.  An entry due in the CAL_CYCLES cycles from
     * cal_base sits in the calendar, in the bucket of its cycle
     * (floor(when)), sorted by (when, seq); cal_bits marks the non-empty
     * buckets.  Every other entry (negative, behind the window, too far
     * ahead, infinite) is in the heap tier, a binary heap.  heap_n counts
     * the entries of both. */
    int64_t heap_n;
    mem_node_t *far;    /* the heap tier */
    int64_t far_n, far_cap;
    mem_cal_t *cal;     /* bucket entries and free ones */
    int32_t cal_cap, cal_free;
    int64_t cal_base;   /* only moves forward */
    int32_t cal_head[CAL_CYCLES], cal_tail[CAL_CYCLES];
    uint64_t cal_bits[CAL_WORDS];
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
    int native_drains;  /* EV_DRAIN entries run mem_drain, not Python */
    /* every core's snapshots and stall windows */
    mem_history_t *hist;
    int64_t lock_words, snap_stride;
    /* a batch suspended at the post_op gate, resumed by mem_advance */
    int suspended, batch_pid;
    double batch_now;
    int64_t batch_budget;
    /* counters, integers only (CoreTable.counters, Machine.counters):
     * entries taken off the queue, pushes into the calendar and into the
     * heap tier, fused residencies, records dispatched per trace op,
     * returns per ADV_ reason, checkpoints run by mem_checkpoint and
     * their members, and drain entries completed and found stale; a
     * fork starts its own at zero */
    int64_t pops, cal_pushes, far_pushes, residencies;
    int64_t records[N_OPS], returns[N_ADV];
    int64_t ckpt_calls, ckpt_members, drains_completed, drains_stale;
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
int loop_push(mem_loop_t *, double, int64_t, int, int64_t);
int loop_pop(mem_loop_t *, mem_event_t *);
double loop_next_when(mem_loop_t *);
void loop_drop(mem_loop_t *, int);
void mem_bind_loop(mem_core_t *, mem_loop_t *);
int mem_advance(mem_core_t *, mem_loop_t *, double, double, int64_t,
                mem_event_t *);
int sync_grant_next(mem_core_t *, mem_loop_t *, int64_t, double);
int64_t loop_snapshot(mem_loop_t *, int, double, double);
int64_t loop_snap_copy(mem_loop_t *, int, int, int64_t);
int64_t loop_snap_find(mem_loop_t *, int, int64_t);
int64_t loop_snap_newer(mem_loop_t *, int, int64_t);
int64_t loop_snap_safe(mem_loop_t *, int, double, double);
void loop_snap_keep(mem_loop_t *, int, int64_t);
int loop_window(mem_loop_t *, int, double, double);
void loop_truncate_stalls(mem_loop_t *, int, double);
void loop_refund_overhang(mem_loop_t *, int, double);
int loop_push_drain(mem_loop_t *, double, int, int64_t);
int mem_checkpoint(mem_core_t *, mem_loop_t *, const int32_t *, int, double,
                   int, double, double, double, mem_ckpt_t *);
int mem_drain(mem_core_t *, mem_loop_t *, int, int64_t, double);
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

/* An empty index; ``dense`` gives it a direct table. */
static int ix_init(mem_index_t *ix, int dense)
{
    ix->n = 0;
    ix->cap = 64;
    ix->nslots = 128;
    ix->hashed = 0;
    ix->ndirect = dense ? DIRECT_MIN : 0;
    ix->direct = dense ? calloc(DIRECT_MIN, sizeof(int32_t)) : NULL;
    ix->keys = malloc(sizeof(int64_t) * ix->cap);
    ix->slots = calloc(ix->nslots, sizeof(int64_t));
    return ix->keys && ix->slots && (ix->direct || !dense);
}

static inline int ix_direct(const mem_index_t *ix, int64_t key)
{
    return (uint64_t)key < (uint64_t)ix->ndirect;
}

static int64_t ix_find(const mem_index_t *ix, int64_t key)
{
    uint64_t mask = (uint64_t)ix->nslots - 1, h;
    if (ix_direct(ix, key))
        return (int64_t)ix->direct[key] - 1;
    h = mix(key) & mask;
    for (;;) {
        int64_t s = ix->slots[h];
        if (!s)
            return -1;
        if (ix->keys[s - 1] == key)
            return s - 1;
        h = (h + 1) & mask;
    }
}

/* Rebuilds the hash at ``nslots`` from the keys the direct table does
 * not hold. */
static int ix_rehash(mem_index_t *ix, int64_t nslots)
{
    int64_t *slots = calloc(nslots, sizeof(int64_t));
    uint64_t mask = (uint64_t)nslots - 1;
    int64_t i;
    if (!slots)
        return 0;
    ix->hashed = 0;
    for (i = 0; i < ix->n; i++) {
        uint64_t h;
        if (ix_direct(ix, ix->keys[i]))
            continue;
        h = mix(ix->keys[i]) & mask;
        while (slots[h])
            h = (h + 1) & mask;
        slots[h] = i + 1;
        ix->hashed++;
    }
    free(ix->slots);
    ix->slots = slots;
    ix->nslots = nslots;
    return 1;
}

/* Widens the direct table (of an index that has one) to ``n`` keys if
 * narrower, moving the hashed keys it now covers out of the hash.
 * Returns 0 when out of memory. */
static int ix_cover(mem_index_t *ix, int64_t n)
{
    int64_t i;
    int32_t *direct;
    if (n <= ix->ndirect)
        return 1;
    direct = realloc(ix->direct, sizeof(int32_t) * n);
    if (!direct)
        return 0;
    memset(direct + ix->ndirect, 0, sizeof(int32_t) * (n - ix->ndirect));
    ix->direct = direct;
    for (i = 0; i < ix->n; i++)
        if (ix->keys[i] >= ix->ndirect && ix->keys[i] < n)
            direct[ix->keys[i]] = (int32_t)(i + 1);
    ix->ndirect = n;
    return ix_rehash(ix, ix->nslots);
}

/* Widens the direct table by doubling to cover ``key`` (absent) if it
 * then stays within DIRECT_SPAN keys per entry, ``key`` included.
 * Returns 1 if it covers ``key``, 0 if not, -1 when out of memory. */
static int ix_widen(mem_index_t *ix, int64_t key)
{
    int64_t n = ix->ndirect;
    if (!ix->direct || key < 0 || key >= DIRECT_SPAN * (ix->n + 1))
        return 0;
    while (n <= key)
        n *= 2;
    if (n > DIRECT_SPAN * (ix->n + 1))
        return 0;
    return ix_cover(ix, n) ? 1 : -1;
}

/* The position of ``key``, appended if absent, with one probe either
 * way (a rehash or a widening aside).  The caller grew the dense arrays
 * so that ix->n < ix->cap.  Returns -1 when out of memory. */
static int64_t ix_upsert(mem_index_t *ix, int64_t key)
{
    uint64_t mask, h;
    int64_t s;
    int widened;
    if (ix_direct(ix, key)) {
        int32_t *d = &ix->direct[key];
        if (*d)
            return *d - 1;
        ix->keys[ix->n] = key;
        *d = (int32_t)(ix->n + 1);
        return ix->n++;
    }
    mask = (uint64_t)ix->nslots - 1;
    h = mix(key) & mask;
    while ((s = ix->slots[h])) {
        if (ix->keys[s - 1] == key)
            return s - 1;
        h = (h + 1) & mask;
    }
    widened = ix_widen(ix, key);
    if (widened)
        return widened < 0 ? -1 : ix_upsert(ix, key);
    if ((ix->hashed + 1) * 2 > ix->nslots) {
        if (!ix_rehash(ix, ix->nslots * 2))
            return -1;
        mask = (uint64_t)ix->nslots - 1;
        h = mix(key) & mask;
        while (ix->slots[h])
            h = (h + 1) & mask;
    }
    ix->keys[ix->n] = key;
    ix->slots[h] = ix->n + 1;
    ix->hashed++;
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

static void ix_free(mem_index_t *ix)
{
    free(ix->keys);
    free(ix->slots);
    free(ix->direct);
}

/* Empties the index; a large table shrinks back to the initial size. */
static int ix_reset(mem_index_t *ix)
{
    if (ix->nslots > 1024 || ix->ndirect > DIRECT_MIN) {
        int dense = ix->direct != NULL;
        ix_free(ix);
        return ix_init(ix, dense);
    }
    ix->n = 0;
    ix->hashed = 0;
    memset(ix->slots, 0, sizeof(int64_t) * ix->nslots);
    if (ix->direct)
        memset(ix->direct, 0, sizeof(int32_t) * ix->ndirect);
    return 1;
}

static int ix_clone(mem_index_t *dst, const mem_index_t *src)
{
    *dst = *src;
    dst->keys = malloc(sizeof(int64_t) * src->cap);
    dst->slots = malloc(sizeof(int64_t) * src->nslots);
    dst->direct = src->direct ? malloc(sizeof(int32_t) * src->ndirect)
                              : NULL;
    if (!dst->keys || !dst->slots || (src->direct && !dst->direct))
        return 0;
    memcpy(dst->keys, src->keys, sizeof(int64_t) * src->n);
    memcpy(dst->slots, src->slots, sizeof(int64_t) * src->nslots);
    if (src->direct)
        memcpy(dst->direct, src->direct, sizeof(int32_t) * src->ndirect);
    return 1;
}

/* ------------------------------------------------------------------ */
/* value maps (image, golden) and the directory                        */
/* ------------------------------------------------------------------ */

static int map_init(mem_map_t *m, int dense)
{
    if (!ix_init(&m->ix, dense))
        return 0;
    m->vals = malloc(sizeof(int64_t) * m->ix.cap);
    return m->vals != NULL;
}

/* Counts a lookup of line ``addr`` in ``ix``: the direct table's or the
 * hash's. */
static inline void count_lookup(mem_core_t *c, const mem_index_t *ix,
                                int64_t addr)
{
    if (ix_direct(ix, addr))
        c->dense_lookups++;
    else
        c->hashed_lookups++;
}

/* The value of line ``key`` in the image or golden (0 if absent). */
static int64_t map_get(mem_core_t *c, const mem_map_t *m, int64_t key)
{
    int64_t i = ix_find(&m->ix, key);
    count_lookup(c, &m->ix, key);
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

/* Sets line ``key`` of the image or golden. */
static int map_set(mem_core_t *c, mem_map_t *m, int64_t key, int64_t val)
{
    int64_t *slot;
    count_lookup(c, &m->ix, key);
    slot = map_slot(c, m, key);
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
    if (!ix_init(&d->ix, 1))
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
    count_lookup(c, &d->ix, addr);
    i = ix_upsert(&d->ix, addr);
    /* The image and golden (kept in check mode) hold lines the
     * directory has seen or is about to: they cover its range, so a
     * line takes the same path in all three. */
    if (i < 0 || !ix_cover(&c->image.ix, d->ix.ndirect) ||
            (c->check && !ix_cover(&c->golden.ix, d->ix.ndirect)))
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
    if (!ix_init(&g->lines, 0)) {
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
    int64_t *slot, old;
    count_lookup(c, &c->image.ix, addr);
    slot = map_slot(c, &c->image, addr);
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
    expected = map_get(c, &c->golden, addr);
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
        value = map_get(c, &c->image, addr);
        c->energy_dram++;
        e->sharers |= 1ull << pid;
        install(c, pid, e, ST_SHARED, value, now);
    } else {  /* UNCACHED -> RDX: grant Exclusive, stamp LW-ID */
        handle_dependence(c, e, pid, 0);
        extra = ch_demand_access(c, now, addr, &ckpt_share);
        c->ckpt_wait[pid] += ckpt_share;
        lat += (double)c->memory_cycles + extra;
        value = map_get(c, &c->image, addr);
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
                            map_get(c, &c->image, set[j].addr));
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
    free(c->dep_next);
    c->deps = NULL;
    c->wsig = NULL;
    c->dep_order = c->dep_n = NULL;
    c->dep_next = NULL;
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
            !dir_init(&c->dir) || !map_init(&c->image, 1) ||
            !map_init(&c->golden, 1) ||
            !ALLOC(c->demand_busy, n_ch) || !ALLOC(c->wb_busy, n_ch) ||
            !ALLOC(c->ckpt_wb_busy, n_ch) ||
            !ALLOC(c->l1_hits, n_cores) || !ALLOC(c->l1_misses, n_cores) ||
            !ALLOC(c->l2_hits, n_cores) || !ALLOC(c->l2_misses, n_cores) ||
            !ALLOC(c->epochs, n_cores) || !ALLOC(c->ckpt_wait, n_cores) ||
            !ALLOC(c->filters, n_cores) || !map_init(&c->log_bins, 0)) {
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
            !ALLOC(c->dep_order, n) || !ALLOC(c->dep_n, c->n_cores) ||
            !ALLOC(c->dep_next, c->n_cores))
        return 0;
    for (i = 0; i < n; i++)
        if (!ix_init(&c->deps[i].exact, 0))
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
        DUP(c->dep_next, src->dep_next, src->n_cores);
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
    c->dense_lookups = c->hashed_lookups = 0;
    c->deps = NULL;
    c->wsig = NULL;
    c->dep_order = c->dep_n = NULL;
    c->dep_next = NULL;
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

/* ---- the heap tier ---- */

/* Fills the hole at far[i] with ``e`` (Floyd's bottom-up descent): the
 * hole moves down along the earlier child to a leaf, comparing only the
 * two children, then ``e`` rises from there, no higher than ``i``. */
static void heap_fill(mem_loop_t *l, int64_t i, const mem_node_t *e)
{
    mem_node_t *h = l->far;
    int64_t n = l->far_n, top = i, child, parent;
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

static int heap_push(mem_loop_t *l, const mem_node_t *e)
{
    int64_t i, parent;
    if (l->far_n == l->far_cap) {
        int64_t cap = l->far_cap * 2;
        mem_node_t *far = realloc(l->far, sizeof(mem_node_t) * cap);
        if (!far)
            return 0;
        l->far = far;
        l->far_cap = cap;
    }
    for (i = l->far_n++; i > 0; i = parent) {
        parent = (i - 1) / 2;
        if (!ev_before(e, &l->far[parent]))
            break;
        l->far[i] = l->far[parent];
    }
    l->far[i] = *e;
    return 1;
}

static void heap_remove_root(mem_loop_t *l)
{
    mem_node_t last;
    if (--l->far_n) {
        last = l->far[l->far_n];
        heap_fill(l, 0, &last);
    }
}

/* ---- the calendar ---- */

/* The bucket of an entry due at ``when``, or -1 when it is outside the
 * window (negative, behind it, CAL_CYCLES or more ahead, infinite). */
static inline int cal_bucket(const mem_loop_t *l, double when)
{
    double base = (double)l->cal_base;
    if (!(when >= base && when < base + CAL_CYCLES))
        return -1;
    return (int)((int64_t)when & (CAL_CYCLES - 1));
}

/* Inserts ``e`` into bucket ``b`` in (when, seq) order.  A core's
 * fresh entry has the largest seq, so it usually goes last: the tail is
 * tried first. */
static int cal_push(mem_loop_t *l, int b, const mem_node_t *e)
{
    mem_cal_t *cal;
    int32_t k, prev, cur;
    if (l->cal_free < 0) {
        int32_t cap = l->cal_cap * 2, i;
        cal = realloc(l->cal, sizeof(mem_cal_t) * cap);
        if (!cal)
            return 0;
        for (i = l->cal_cap; i < cap; i++)
            cal[i].next = i + 1 < cap ? i + 1 : -1;
        l->cal = cal;
        l->cal_free = l->cal_cap;
        l->cal_cap = cap;
    }
    cal = l->cal;
    k = l->cal_free;
    l->cal_free = cal[k].next;
    cal[k].e = *e;
    cal[k].next = -1;
    prev = l->cal_tail[b];
    if (prev < 0) {
        l->cal_head[b] = l->cal_tail[b] = k;
        l->cal_bits[b >> 6] |= 1ull << (b & 63);
    } else if (ev_before(&cal[prev].e, e)) {
        cal[prev].next = k;
        l->cal_tail[b] = k;
    } else {
        prev = -1;
        for (cur = l->cal_head[b]; ev_before(&cal[cur].e, e);
             cur = cal[cur].next)
            prev = cur;
        cal[k].next = cur;
        if (prev < 0)
            l->cal_head[b] = k;
        else
            cal[prev].next = k;
    }
    return 1;
}

/* The first non-empty bucket from the base's, or -1 if none: every
 * entry is in the window, so that bucket's head is the calendar's
 * earliest entry. */
static inline int cal_first(const mem_loop_t *l)
{
    int b = (int)(l->cal_base & (CAL_CYCLES - 1)), w = b >> 6, i;
    uint64_t bits = l->cal_bits[w] & (~0ull << (b & 63));
    if (l->heap_n == l->far_n)
        return -1;
    for (i = 0; !bits && i < CAL_WORDS; i++) {
        w = (w + 1) & (CAL_WORDS - 1);
        bits = l->cal_bits[w];
    }
    return (w << 6) | __builtin_ctzll(bits);
}

/* Moves the window's base forward to the floor of ``when``, the time of
 * the entry just taken: every entry left is due at or after it. */
static inline void cal_advance(mem_loop_t *l, double when)
{
    if (when >= (double)(l->cal_base + 1) && when < 0x1p62)
        l->cal_base = (int64_t)when;
}

/* ---- the queue: both tiers ---- */

/* The entry due first, or NULL; ``*b`` is its bucket, -1 for the heap
 * tier. */
static inline const mem_node_t *queue_first(const mem_loop_t *l, int *b)
{
    const mem_node_t *far = l->far_n ? l->far : NULL, *cal;
    *b = cal_first(l);
    if (*b < 0)
        return far;
    cal = &l->cal[l->cal_head[*b]].e;
    if (far && ev_before(far, cal)) {
        *b = -1;
        return far;
    }
    return cal;
}

/* Takes the entry queue_first returned (from bucket ``b``) into ``out``. */
static void queue_take(mem_loop_t *l, int b, mem_event_t *out)
{
    if (b < 0) {
        node_event(&l->far[0], out);
        heap_remove_root(l);
    } else {
        int32_t k = l->cal_head[b];
        node_event(&l->cal[k].e, out);
        l->cal_head[b] = l->cal[k].next;
        if (l->cal_head[b] < 0) {
            l->cal_tail[b] = -1;
            l->cal_bits[b >> 6] &= ~(1ull << (b & 63));
        }
        l->cal[k].next = l->cal_free;
        l->cal_free = k;
    }
    l->heap_n--;
    l->pops++;
    cal_advance(l, out->when);
}

/* Queues ``e``, due at ``when``; 0 when out of memory. */
static int queue_push(mem_loop_t *l, const mem_node_t *e, double when)
{
    int b = cal_bucket(l, when);
    if (b >= 0) {
        if (!cal_push(l, b, e))
            return 0;
        l->cal_pushes++;
    } else {
        if (!heap_push(l, e))
            return 0;
        l->far_pushes++;
    }
    l->heap_n++;
    return 1;
}

static int queue_push_event(mem_loop_t *l, double when, int64_t seq,
                            int kind, int pid, int64_t arg)
{
    mem_node_t e;
    e.wkey = when_key(when);
    e.skey = seq_key(seq);
    e.kind = kind;
    e.pid = pid;
    e.arg = arg;
    return queue_push(l, &e, when);
}

static int queue_pop(mem_loop_t *l, mem_event_t *out)
{
    int b;
    if (!queue_first(l, &b))
        return 0;
    queue_take(l, b, out);
    return 1;
}

/* Schedules core ``pid`` at ``when`` under a fresh epoch, which makes
 * every older entry of the core stale. */
static int push_exec(mem_loop_t *l, int pid, double when)
{
    l->hot[pid].epoch++;
    l->seq++;
    return queue_push_event(l, when, l->seq, EV_EXEC, pid,
                            l->hot[pid].epoch);
}

/* Machine.push_core: a runnable core at max(time, not_before). */
int loop_push_core(mem_loop_t *l, int pid)
{
    double t = l->hot[pid].time, nb = l->hot[pid].not_before;
    if (l->hot[pid].done || l->hot[pid].blocked)
        return 1;
    return push_exec(l, pid, nb > t ? nb : t);
}

/* A fault or pause entry under a seq the caller chose (a fault's
 * ``arg`` is its number in the injector). */
int loop_push(mem_loop_t *l, double when, int64_t seq, int kind,
              int64_t arg)
{
    return queue_push_event(l, when, seq, kind, 0, arg);
}

int loop_pop(mem_loop_t *l, mem_event_t *out)
{
    return queue_pop(l, out);
}

/* The earliest pending time (infinity when the queue is empty). */
double loop_next_when(mem_loop_t *l)
{
    int b;
    const mem_node_t *first = queue_first(l, &b);
    return first ? key_when(first->wkey) : INFINITY;
}

/* Removes every entry of ``kind`` (a fork drops its parent's pauses). */
void loop_drop(mem_loop_t *l, int kind)
{
    int64_t i, n = 0;
    int b;
    for (b = 0; b < CAL_CYCLES; b++) {
        int32_t k = l->cal_head[b], prev = -1, next;
        for (; k >= 0; k = next) {
            next = l->cal[k].next;
            if (l->cal[k].e.kind != kind) {
                prev = k;
                continue;
            }
            if (prev < 0)
                l->cal_head[b] = next;
            else
                l->cal[prev].next = next;
            l->cal[k].next = l->cal_free;
            l->cal_free = k;
            l->heap_n--;
        }
        l->cal_tail[b] = prev;
        if (prev < 0)
            l->cal_bits[b >> 6] &= ~(1ull << (b & 63));
    }
    for (i = 0; i < l->far_n; i++)
        if (l->far[i].kind != kind)
            l->far[n++] = l->far[i];
    l->heap_n -= l->far_n - n;
    l->far_n = n;
    for (i = n / 2 - 1; i >= 0; i--) {
        mem_node_t e = l->far[i];
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

/* ------------------------------------------------------------------ */
/* checkpoints (repro.core.scheme_base.BaseScheme._execute_checkpoint) */
/* ------------------------------------------------------------------ */

/* Python's min(a, b): the first argument unless the second is smaller. */
static inline double pymin(double a, double b)
{
    return b < a ? b : a;
}

/* Room for one more snapshot row of ``s``; 0 when out of memory. */
static int snap_room(const mem_loop_t *l, mem_history_t *s)
{
    int64_t cap = s->cap ? 2 * s->cap : 8;
    mem_snap_t *rows;
    int64_t *sync;
    if (s->n < s->cap)
        return 1;
    rows = realloc(s->rows, sizeof(mem_snap_t) * (size_t)cap);
    if (!rows)
        return 0;
    s->rows = rows;
    sync = realloc(s->sync, sizeof(int64_t) *
                   (size_t)(cap * l->snap_stride + 1));
    if (!sync)
        return 0;
    s->sync = sync;
    s->cap = cap;
    return 1;
}

/* Core.take_snapshot: snapshot next_ckpt_id of ``pid`` at ``now``, with
 * the locks it holds and its barrier crossings; returns its index (-1
 * when out of memory). */
int64_t loop_snapshot(mem_loop_t *l, int pid, double now,
                      double overhead_mark)
{
    mem_hot_t *h = &l->hot[pid];
    mem_history_t *s = &l->hist[pid];
    mem_snap_t *row;
    uint64_t *sync;
    int64_t k;
    if (!snap_room(l, s))
        return -1;
    row = &s->rows[s->n];
    row->ckpt_id = h->next_ckpt_id;
    row->trace_ip = h->ip;
    row->instr_count = h->instr_count;
    row->time = now;
    row->complete_time = 0.0;
    row->complete = 0;
    row->overhead_mark = overhead_mark;
    sync = (uint64_t *)(s->sync + s->n * l->snap_stride);
    memset(sync, 0, sizeof(int64_t) * (size_t)l->snap_stride);
    for (k = 0; k < l->lock_ix.n; k++)
        if (l->locks[k].holder == pid)
            sync[k >> 6] |= 1ull << (k & 63);
    for (k = 0; k < l->barrier_ix.n; k++)
        sync[l->lock_words + k] = (uint64_t)l->barriers[k].crossed[pid];
    h->next_ckpt_id++;
    h->n_checkpoints++;
    h->ckpt_gap_sum += now - h->last_ckpt_time;
    h->ckpt_gap_count++;
    h->last_ckpt_time = now;
    return s->n++;
}

/* Appends a copy of snapshot ``k`` of core ``from`` to ``pid``'s
 * snapshots; returns its index (-1 when out of memory). */
int64_t loop_snap_copy(mem_loop_t *l, int pid, int from, int64_t k)
{
    mem_history_t *s = &l->hist[pid];
    int64_t w = l->snap_stride;
    if (!snap_room(l, s))
        return -1;
    s->rows[s->n] = l->hist[from].rows[k];
    memcpy(s->sync + s->n * w, l->hist[from].sync + k * w,
           sizeof(int64_t) * (size_t)w);
    return s->n++;
}

/* Core.snapshot_for: the index of ``pid``'s newest snapshot of
 * ``ckpt_id``, or -1. */
int64_t loop_snap_find(mem_loop_t *l, int pid, int64_t ckpt_id)
{
    const mem_history_t *s = &l->hist[pid];
    int64_t k;
    for (k = s->n - 1; k >= 0; k--)
        if (s->rows[k].ckpt_id == ckpt_id)
            return k;
    return -1;
}

/* How many of ``pid``'s snapshots are newer than checkpoint
 * ``ckpt_id``. */
int64_t loop_snap_newer(mem_loop_t *l, int pid, int64_t ckpt_id)
{
    const mem_history_t *s = &l->hist[pid];
    int64_t k, n = 0;
    for (k = 0; k < s->n; k++)
        n += s->rows[k].ckpt_id > ckpt_id;
    return n;
}

/* Core.latest_safe_snapshot: the index of ``pid``'s newest snapshot
 * complete at least ``latency`` cycles before ``detect``, else 0
 * (program start). */
int64_t loop_snap_safe(mem_loop_t *l, int pid, double detect,
                       double latency)
{
    const mem_history_t *s = &l->hist[pid];
    int64_t k;
    for (k = s->n - 1; k >= 0; k--)
        if (s->rows[k].complete &&
                detect - s->rows[k].complete_time >= latency)
            return k;
    return 0;
}

/* Keeps the snapshots of ``pid`` up to checkpoint ``ckpt_id`` (a
 * rollback to it), in order. */
void loop_snap_keep(mem_loop_t *l, int pid, int64_t ckpt_id)
{
    mem_history_t *s = &l->hist[pid];
    int64_t k, n = 0, w = l->snap_stride;
    for (k = 0; k < s->n; k++) {
        if (s->rows[k].ckpt_id > ckpt_id)
            continue;
        if (n != k) {
            s->rows[n] = s->rows[k];
            memmove(s->sync + n * w, s->sync + k * w,
                    sizeof(int64_t) * (size_t)w);
        }
        n++;
    }
    s->n = n;
}

/* Remembers the stall window [start, end) of ``pid``; 0 when out of
 * memory. */
int loop_window(mem_loop_t *l, int pid, double start, double end)
{
    mem_history_t *s = &l->hist[pid];
    if (s->n_windows == s->cap_windows) {
        int64_t cap = s->cap_windows ? 2 * s->cap_windows : 16;
        mem_window_t *w = realloc(s->windows,
                                  sizeof(mem_window_t) * (size_t)cap);
        if (!w)
            return 0;
        s->windows = w;
        s->cap_windows = cap;
    }
    s->windows[s->n_windows].start = start;
    s->windows[s->n_windows].end = end;
    s->n_windows++;
    return 1;
}

/* Core.charge_stall: adds the window to ``*field`` (a checkpoint
 * accumulator of ``pid``'s row) and remembers it; 0 when out of
 * memory. */
static int charge(mem_loop_t *l, int pid, double *field, double start,
                  double end)
{
    if (end <= start)
        return 1;
    *field += end - start;
    return loop_window(l, pid, start, end);
}

/* Core.truncate_stalls: the part of each window past ``cut`` is
 * overhang; then every window is dropped. */
void loop_truncate_stalls(mem_loop_t *l, int pid, double cut)
{
    mem_history_t *s = &l->hist[pid];
    int64_t i;
    for (i = 0; i < s->n_windows; i++) {
        const mem_window_t *w = &s->windows[i];
        if (w->end > cut)
            l->hot[pid].stall_overhang +=
                w->end - (w->start > cut ? w->start : cut);
    }
    s->n_windows = 0;
}

/* Core.refund_stall_overhang: the part of each window past the core's
 * end time is overhang. */
void loop_refund_overhang(mem_loop_t *l, int pid, double end_time)
{
    const mem_history_t *s = &l->hist[pid];
    int64_t i;
    for (i = 0; i < s->n_windows; i++) {
        const mem_window_t *w = &s->windows[i];
        double overhang = w->end - (w->start > end_time ? w->start
                                                          : end_time);
        if (overhang > 0.0)
            l->hot[pid].stall_overhang += overhang;
    }
}

/* Queues the completion of ``pid``'s drain of checkpoint ``ckpt_id``
 * at ``when`` under a fresh seq (Machine.push_drain). */
int loop_push_drain(mem_loop_t *l, double when, int pid, int64_t ckpt_id)
{
    l->seq++;
    return queue_push_event(l, when, l->seq, EV_DRAIN, pid, ckpt_id);
}

/* BaseScheme._net_overhead_charged: the core's net checkpoint overhead
 * (CoreStats.ckpt_overhead_cycles less ipc_delay) plus the live
 * engine counter that stands in for ipc_delay. */
static double net_overhead(const mem_core_t *c, const mem_hot_t *h, int pid)
{
    return h->wb_delay + h->wb_imbalance + h->ckpt_sync + h->ipc_delay +
           h->depset_stall + h->ckpt_backoff - h->stall_overhang -
           h->ipc_delay + c->ckpt_wait[pid];
}

/* DepRegisterFile.open_interval: the active set's checkpoint began and
 * a fresh set, in the lowest free slot, opens the next interval; 0
 * (the core failed) when every set is live. */
static int dep_open(mem_core_t *c, int pid, double now)
{
    int32_t *order = c->dep_order + (int64_t)pid * c->dep_slots;
    int n = c->dep_n[pid], slot, i;
    if (n >= c->dep_slots) {
        c->fail_pid = pid;
        fail(c, FAIL_DEPSETS);
        return 0;
    }
    dep_active(c, pid)->d.ckpt_started = 1;
    for (slot = 0;; slot++) {
        for (i = 0; i < n && order[i] != slot; i++)
            ;
        if (i == n)
            break;
    }
    if (!mem_dep_reset(c, pid, slot, c->dep_next[pid], now))
        return 0;
    c->dep_next[pid]++;
    order[n] = slot;
    c->dep_n[pid] = n + 1;
    return 1;
}

/* BaseScheme._rotate: ``pid`` opens a new interval (its residency epoch
 * advances; GlobalScheme's epoch or Rebound's Dep set follows). */
static int rotate(mem_core_t *c, mem_loop_t *l, int pid, double now)
{
    c->epochs[pid]++;
    if (c->hooks == HOOKS_REBOUND)
        return dep_open(c, pid, now);
    l->hot[pid].interval++;
    return 1;
}

/* _mark_interval_complete: Rebound's set of ``interval`` records when
 * its checkpoint completed (GlobalScheme keeps nothing). */
static void interval_complete(mem_core_t *c, int pid, int64_t interval,
                              double now)
{
    int i;
    if (c->hooks != HOOKS_REBOUND)
        return;
    for (i = 0; i < c->dep_n[pid]; i++) {
        mem_dep_t *d = &dep_at(c, pid, dep_slot(c, pid, i))->d;
        if (d->interval_id == interval) {
            d->complete = 1;
            d->ckpt_complete_time = now;
            return;
        }
    }
}

/* MemoryChannels.bg_drain_time: a background drain of ``n_lines``, one
 * line per ``period`` cycles, slowed by the streams beyond one per
 * channel. */
static double bg_drain_time(const mem_core_t *c, int64_t n_lines,
                            double period)
{
    int64_t over = c->bg_streams - c->n_ch;
    double contention = 1.0 + 0.5 * (double)(over > 0 ? over : 0) /
                        (double)c->n_ch;
    return pymax(1.0, (double)n_lines * period * contention);
}

/* MemoryChannels.bg_account: a drain's occupancy over
 * [now, now + window] lands on the writeback horizons. */
static void bg_account(mem_core_t *c, double now, int64_t n_lines,
                       double window)
{
    double occ_total, cap, horizon;
    int ch;
    if (n_lines == 0)
        return;
    occ_total = (double)(n_lines * c->logged_occ) / (double)c->n_ch;
    cap = now + window;
    for (ch = 0; ch < c->n_ch; ch++) {
        horizon = pymax(c->wb_busy[ch], now) + occ_total;
        c->wb_busy[ch] = pymin(pymax(horizon, c->wb_busy[ch]),
                               pymax(cap, c->wb_busy[ch]));
        c->ckpt_wb_busy[ch] = pymax(c->ckpt_wb_busy[ch], c->wb_busy[ch]);
    }
    c->wb_transfers += n_lines;
}

/* BaseScheme._release_member */
static inline void release(mem_hot_t *h, double resume)
{
    h->not_before = pymax(h->not_before, resume);
    h->ckpt_busy_until = pymax(h->ckpt_busy_until, resume);
}

/* BaseScheme._execute_checkpoint's member steps for the built-in
 * schemes (the hooks GlobalScheme and ReboundScheme run, by ``hooks``):
 * members ``pids`` (in the caller's order) stop, sync, snapshot, and
 * write their dirty lines back in a burst (``use_dwb`` 0) or mark them
 * Delayed and drain them in the background (an EV_DRAIN entry per
 * member), statement for statement as the Python body, which stays the
 * reference.  Each begin or end marker takes one log seq, as the
 * oracle's ReviveLog.mark_begin/mark_end do.  Fills ``out`` for the
 * CheckpointEvent; 0 when the core failed. */
int mem_checkpoint(mem_core_t *c, mem_loop_t *l, const int32_t *pids, int n,
                   double now, int use_dwb, double msg_cycles,
                   double sync_cycles, double drain_period, mem_ckpt_t *out)
{
    double stops[SYNC_CORES], done[SYNC_CORES];
    int64_t closed[SYNC_CORES], lines, k;
    int32_t sorted[SYNC_CORES];
    double t_sync = 0.0, t_end = 0.0, stop, completion, drain, max_done;
    int64_t dirty = 0;
    int i, j, pid;
    mem_hot_t *h;
    if (n < 1 || n > SYNC_CORES || c->failed)
        return 0;
    l->ckpt_calls++;
    l->ckpt_members += n;
    /* Cross-processor interrupts stop everyone, then a sync. */
    for (i = 0; i < n; i++) {
        h = &l->hot[pids[i]];
        stop = now + msg_cycles;
        if (!h->blocked)
            stop = pymax(stop, h->time);
        stops[i] = stop;
        t_sync = i == 0 ? stop : pymax(t_sync, stop);
    }
    t_sync += sync_cycles;
    for (i = 0; i < n; i++) {
        h = &l->hot[pids[i]];
        if (!charge(l, pids[i], &h->ckpt_sync, stops[i], t_sync))
            goto oom;
    }
    /* The snapshot, marker and writeback steps go in pid order. */
    for (i = 0; i < n; i++) {
        for (j = i; j > 0 && sorted[j - 1] > pids[i]; j--)
            sorted[j] = sorted[j - 1];
        sorted[j] = pids[i];
    }
    if (!use_dwb) {
        for (i = 0; i < n; i++) {
            pid = sorted[i];
            h = &l->hot[pid];
            closed[pid] = current_interval(c, pid);
            if (loop_snapshot(l, pid, t_sync, net_overhead(c, h, pid)) < 0)
                goto oom;
            c->log_seq++;   /* the begin marker */
            done[pid] = mem_checkpoint_writeback(
                c, pid, t_sync, current_interval(c, pid), &lines);
            if (c->failed)
                return 0;
            dirty += lines;
            t_end = i == 0 ? done[pid] : pymax(t_end, done[pid]);
        }
        t_end += sync_cycles;
        for (i = 0; i < n; i++) {
            pid = pids[i];
            h = &l->hot[pid];
            c->log_seq++;   /* the end marker */
            mem_end_interval(c, pid, closed[pid]);
            if (!rotate(c, l, pid, t_end))
                return 0;
            interval_complete(c, pid, closed[pid], t_end);
            h->instr_since_ckpt = 0;
            if (!charge(l, pid, &h->wb_delay, t_sync, done[pid]) ||
                    !charge(l, pid, &h->wb_imbalance, done[pid], t_end))
                goto oom;
            k = l->hist[pid].n - 1;
            l->hist[pid].rows[k].complete_time = t_end;
            l->hist[pid].rows[k].complete = 1;
            release(h, t_end);
        }
        out->resume = t_end;
        out->duration = t_end - now;
    } else {
        max_done = t_sync;
        for (i = 0; i < n; i++) {
            pid = sorted[i];
            h = &l->hot[pid];
            k = loop_snapshot(l, pid, t_sync, net_overhead(c, h, pid));
            if (k < 0)
                goto oom;
            c->log_seq++;   /* the begin marker */
            lines = mem_mark_delayed(c, pid);
            dirty += lines;
            /* _start_drain */
            drain = bg_drain_time(c, lines, drain_period);
            completion = t_sync + drain;
            h->pending_delayed = lines;
            h->delayed_ckpt_id = l->hist[pid].rows[k].ckpt_id;
            h->ckpt_busy_until = pymax(h->ckpt_busy_until, completion);
            if (lines > 0) {
                c->bg_streams++;
                bg_account(c, t_sync, lines, drain);
            }
            if (!rotate(c, l, pid, t_sync))
                return 0;
            h->instr_since_ckpt = 0;
            if (!loop_push_drain(l, completion, pid, h->delayed_ckpt_id))
                goto oom;
            max_done = pymax(max_done, completion);
            release(h, t_sync);
        }
        out->resume = t_sync;
        out->duration = max_done - now;
    }
    out->dirty = dirty;
    return 1;
oom:
    fail(c, FAIL_MEMORY);
    return 0;
}

/* BaseScheme._complete_drain at ``t``: ``pid``'s delayed drain of
 * checkpoint ``ckpt_id`` completes, unless that drain is no longer the
 * core's (rolled back, or already completed by a hurried entry).  A
 * drain's lines are logged under its checkpoint's interval, which is
 * the checkpoint id (delayed_interval_of).  0 when the core failed. */
int mem_drain(mem_core_t *c, mem_loop_t *l, int pid, int64_t ckpt_id,
              double t)
{
    mem_hot_t *h = &l->hot[pid];
    int64_t k;
    if (h->delayed_ckpt_id != ckpt_id) {
        l->drains_stale++;
        return 1;
    }
    if (mem_complete_delayed(c, pid, t, ckpt_id) < 0)
        return 0;
    c->log_seq++;   /* the end marker */
    mem_end_interval(c, pid, ckpt_id);
    k = loop_snap_find(l, pid, ckpt_id);
    if (k >= 0) {
        l->hist[pid].rows[k].complete_time = t;
        l->hist[pid].rows[k].complete = 1;
    }
    interval_complete(c, pid, ckpt_id, t);
    if (h->pending_delayed > 0)
        c->bg_streams = c->bg_streams > 1 ? c->bg_streams - 1 : 0;
    h->pending_delayed = 0;
    h->delayed_ckpt_id = -1;
    h->ckpt_busy_until = pymin(h->ckpt_busy_until, t);
    l->drains_completed++;
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
 * barrier_hooks) BARRIER record runs here too and ends the batch, and
 * (under native_drains) a drain entry completes here.  A
 * batch continues while no queued entry is due at or before the core's
 * next record, for at most ``quantum`` records.  A batch suspended for
 * post_op resumes on the next call unless post_op stalled the core past
 * the batch's clock.
 *
 * A batch ends with a push of the core's new entry and the next pop,
 * done as one step: the batch ended because the queue's first entry is
 * due at or before the new entry; on a tie of times the new entry's
 * fresh seq is the largest handed out, so the first entry is what pops
 * next.  It is taken, then the new entry is queued.  When only the
 * budget ended the batch, the new entry is itself the next pop and is
 * never queued.  At 64 cores a residency averages about one record, so
 * this step runs about once per record. */
int mem_advance(mem_core_t *c, mem_loop_t *l, double limit, double gate,
                int64_t quantum, mem_event_t *out)
{
    mem_event_t e;
    mem_node_t next;
    const mem_node_t *first;
    int pid = l->batch_pid, in_batch = l->suspended, gated = 0;
    int taken = 0, op, r, b;
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
                taken = 0;  /* a batch end took ``e`` off the queue */
            } else {
                if (l->n_done >= l->n)
                    return adv(l, ADV_DONE);
                if (!queue_pop(l, &e))
                    return adv(l, ADV_DEADLOCK);
            }
            /* A pause leaves the clock at the last real event. */
            if (e.kind == EV_PAUSE)
                return adv(l, ADV_PAUSE);
            if (e.when > l->now)
                l->now = e.when;
            if (e.when > limit)
                return adv(l, ADV_LIMIT);
            if (e.kind == EV_DRAIN && l->native_drains) {
                if (!mem_drain(c, l, e.pid, e.arg, e.when))
                    return adv(l, ADV_FAILED);
                continue;
            }
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
        first = queue_first(l, &b);
        if (budget <= 0 || (first && first->wkey <= next.wkey)) {
            /* push_exec and the next pop, as one step (see above) */
            in_batch = 0;
            next.skey = seq_key(++l->seq);
            next.kind = EV_EXEC;
            next.pid = pid;
            next.arg = ++h->epoch;
            if (first && ev_before(first, &next)) {
                queue_take(l, b, &e);
                if (!queue_push(l, &next, when))
                    goto oom;
            } else {
                node_event(&next, &e);
                l->pops++;
                cal_advance(l, when);
            }
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

static void free_hist(mem_loop_t *l)
{
    int64_t i;
    if (!l->hist)
        return;
    for (i = 0; i < (l->n > 0 ? l->n : 1); i++) {
        free(l->hist[i].rows);
        free(l->hist[i].sync);
        free(l->hist[i].windows);
    }
    free(l->hist);
    l->hist = NULL;
}

void loop_free(mem_loop_t *l)
{
    if (!l)
        return;
    free_hist(l);
    free(l->hot);
    free((void *)l->ops);
    free((void *)l->args);
    free(l->n_records);
    free(l->far);
    free(l->cal);
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
    int32_t i;
    if (!l)
        return NULL;
    l->n = n;
    l->n_locks = n_locks;
    l->n_barriers = n_barriers;
    l->far_cap = 64;
    l->cal_cap = 64;
    if (!ALLOC(l->hot, m) || !ALLOC(l->ops, m) || !ALLOC(l->args, m) ||
            !ALLOC(l->n_records, m) || !ALLOC(l->far, l->far_cap) ||
            !ALLOC(l->cal, l->cal_cap) ||
            !ALLOC(l->locks, n_locks + 1) ||
            !ALLOC(l->barriers, n_barriers + 1) || !ALLOC(l->hist, m) ||
            !ix_init(&l->lock_ix, 0) || !ix_init(&l->barrier_ix, 0)) {
        loop_free(l);
        return NULL;
    }
    /* Every core starts at snapshot 0, program start, complete at 0. */
    l->lock_words = (n_locks + 63) / 64;
    l->snap_stride = l->lock_words + n_barriers;
    for (i = 0; i < m; i++) {
        l->hot[i].next_ckpt_id = 1;
        l->hot[i].delayed_ckpt_id = -1;
        l->hot[i].block_site = -1;
        if (!snap_room(l, &l->hist[i])) {
            loop_free(l);
            return NULL;
        }
        memset(l->hist[i].sync, 0, sizeof(int64_t) * (size_t)l->snap_stride);
        memset(&l->hist[i].rows[0], 0, sizeof(mem_snap_t));
        l->hist[i].rows[0].complete = 1;
        l->hist[i].n = 1;
    }
    for (i = 0; i < l->cal_cap; i++)
        l->cal[i].next = i + 1 < l->cal_cap ? i + 1 : -1;
    for (i = 0; i < CAL_CYCLES; i++)
        l->cal_head[i] = l->cal_tail[i] = -1;
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
    int64_t locks = src->n_locks + 1, barriers = src->n_barriers + 1, i;
    if (!l)
        return NULL;
    *l = *src;
    l->hot = NULL;
    l->ops = NULL;
    l->args = NULL;
    l->n_records = NULL;
    l->far = NULL;
    l->cal = NULL;
    l->locks = NULL;
    l->barriers = NULL;
    l->hist = NULL;
    l->pops = l->cal_pushes = l->far_pushes = l->residencies = 0;
    l->ckpt_calls = l->ckpt_members = 0;
    l->drains_completed = l->drains_stale = 0;
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
    l->far = malloc(sizeof(mem_node_t) * src->far_cap);
    if (!l->far)
        goto oom;
    memcpy(l->far, src->far, sizeof(mem_node_t) * src->far_n);
    DUP(l->cal, src->cal, src->cal_cap);
    if (!ALLOC(l->hist, m))
        goto oom;
    for (i = 0; i < m; i++) {
        const mem_history_t *from = &src->hist[i];
        mem_history_t *to = &l->hist[i];
        DUP(to->rows, from->rows, from->cap);
        DUP(to->sync, from->sync, from->cap * src->snap_stride + 1);
        to->n = from->n;
        to->cap = from->cap;
        if (from->cap_windows) {
            DUP(to->windows, from->windows, from->cap_windows);
            to->n_windows = from->n_windows;
            to->cap_windows = from->cap_windows;
        }
    }
    return l;
oom:
    loop_free(l);
    return NULL;
}
