/* The synthetic trace generator's per-record loop: one call emits one
 * thread's trace into the ops/args columns of the trace IR.
 *
 * This is the loop of repro.workloads.synthetic.SyntheticWorkload
 * (seeding, regions, clusters, locks and barrier positions stay in
 * Python) and it replays CPython's random module draw for draw, so a
 * trace is byte-identical to the one the Python loop emitted:
 *   - the Mersenne Twister is _randommodule.c's genrand_uint32 over the
 *     state Random.getstate() returns (624 words and the index);
 *   - random() is (a >> 5) * 67108864 + (b >> 6), divided by 2**53;
 *   - randrange(n) is _randbelow_with_getrandbits(n): k = n.bit_length(),
 *     then getrandbits(k), redrawn while it is >= n; randint(a, b) is
 *     a + randrange(b - a + 1);
 *   - draws happen in the Python loop's order, including its
 *     short-circuits (no shared draw without peers, no reuse draw while
 *     the recent list is empty).
 * getrandbits(k) takes one word only for k <= 32, so every bound must
 * be below 2**32; a larger (or an empty) bound fails the call instead
 * of drawing a different stream.
 *
 * The source reads no clock and no entropy. */

#include <stdint.h>
#include <string.h>

#define SYN_OP_COMPUTE 0
#define SYN_OP_LOAD 1
#define SYN_OP_STORE 2
#define SYN_OP_BARRIER 3
#define SYN_OP_LOCK 4
#define SYN_OP_UNLOCK 5

/* The Python boundary: the text between the markers is this file's
 * part of the extension's cffi declaration (repro/coherence/build.py). */
/* cdef: begin */

#define SYN_EBOUND -1   /* a draw bound is empty or >= 2**32 */
#define SYN_EFULL -2    /* the output columns are too short */

typedef struct {
    int64_t total_instructions;
    int64_t jitter_bound;       /* the jitter is randint(0, jitter_bound) */
    int64_t mem_every;
    int64_t lock_gap;           /* 0: no lock sections */
    int64_t lock_compute;
    double shared_frac;
    double write_frac;
    double reuse;
    int64_t private_start;
    int64_t private_len;
    int64_t shared_start;       /* this thread's own shared region */
    int64_t shared_len;         /* every shared region's length */
    const int64_t *peer_starts; /* cluster peers' shared regions */
    int64_t n_peers;
    const int64_t *lock_ids;    /* the thread's lock pool ... */
    const int64_t *lock_lines;  /* ... and each lock's data line */
    int64_t n_locks;
    const int64_t *barriers;    /* instruction positions, ascending */
    int64_t n_barriers;
} syn_thread_t;

int64_t syn_capacity(const syn_thread_t *);
int64_t syn_thread_trace(const syn_thread_t *, uint32_t *, int, int8_t *,
                         int64_t *, int64_t, int64_t *);

/* cdef: end */

/* Instructions a lock section retires: LOCK and UNLOCK expand to RMWs
 * in the simulator (2 each), plus the load, the compute and the store. */
#define SYN_LOCK_INSTR(compute) (2 + (compute) + 2 + 2)

/* Accesses to the private region remember the last 16 lines. */
#define SYN_RECENT 16

#define SYN_MT_N 624
#define SYN_MT_M 397

typedef struct {
    uint32_t *mt;
    int index;
    int bad;                    /* a draw bound was out of range */
} syn_rng_t;

static uint32_t syn_genrand(syn_rng_t *rng)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = rng->mt;
    uint32_t y;
    if (rng->index >= SYN_MT_N) {
        int kk;
        for (kk = 0; kk < SYN_MT_N - SYN_MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + SYN_MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < SYN_MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (SYN_MT_M - SYN_MT_N)] ^ (y >> 1)
                     ^ mag01[y & 0x1U];
        }
        y = (mt[SYN_MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[SYN_MT_N - 1] = mt[SYN_MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        rng->index = 0;
    }
    y = mt[rng->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double syn_random(syn_rng_t *rng)
{
    uint32_t a = syn_genrand(rng) >> 5;
    uint32_t b = syn_genrand(rng) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n): uniform in [0, n).  An n outside [1, 2**32) marks the
 * generator bad and returns 0. */
static int64_t syn_randbelow(syn_rng_t *rng, int64_t n)
{
    int k = 0;
    uint32_t r;
    if (n < 1 || n > (int64_t)UINT32_MAX) {
        rng->bad = 1;
        return 0;
    }
    while (k < 32 && (n >> k) != 0)
        k++;
    do {
        r = syn_genrand(rng) >> (32 - k);
    } while ((int64_t)r >= n);
    return (int64_t)r;
}

static int64_t syn_randint(syn_rng_t *rng, int64_t a, int64_t b)
{
    return a + syn_randbelow(rng, b - a + 1);
}

static int64_t syn_max(int64_t a, int64_t b)
{
    return a > b ? a : b;
}

/* Records one call can emit at most: the jitter, every barrier, two
 * records per access iteration and four more per lock section (a lock
 * iteration emits six).  An iteration starts below the instruction
 * budget and advances by at least min_gap + 1 (access) or min_gap +
 * lock section (lock), which bounds the iteration counts. */
int64_t syn_capacity(const syn_thread_t *in)
{
    int64_t min_gap = syn_max(1, in->mem_every / 2);
    int64_t budget = syn_max(0, in->total_instructions);
    int64_t iterations = budget / (min_gap + 1) + 1;
    int64_t locks = in->lock_gap > 0
        ? budget / (min_gap + SYN_LOCK_INSTR(in->lock_compute)) + 1 : 0;
    return 1 + in->n_barriers + 2 * iterations + 4 * locks;
}

/* One thread's trace into ops/args (``cap`` records each).  ``mt`` is
 * the thread's generator state (advanced in place), ``index`` its
 * position.  Returns the number of records and stores the instructions
 * they retire in ``*n_instructions``, or SYN_EBOUND / SYN_EFULL. */
int64_t syn_thread_trace(const syn_thread_t *in, uint32_t *mt, int index,
                         int8_t *ops, int64_t *args, int64_t cap,
                         int64_t *n_instructions)
{
    syn_rng_t rng = {mt, index, 0};
    int64_t recent[SYN_RECENT + 1];
    int64_t n_recent = 0, n = 0, instr = 0, retired = 0;
    int64_t barrier_idx = 0, next_lock = 0, gap_lo, gap_hi;
    int has_lock = in->lock_gap > 0;

#define EMIT(op, arg, instructions) do { \
        if (n >= cap) return SYN_EFULL; \
        ops[n] = (op); args[n] = (arg); n++; \
        retired += (instructions); \
    } while (0)

    int64_t jitter = syn_randint(&rng, 0, in->jitter_bound);
    EMIT(SYN_OP_COMPUTE, jitter, jitter);
    instr += jitter;
    if (has_lock)
        next_lock = syn_randint(&rng, 1, in->lock_gap);
    /* C division truncates where Python's floors, which differs only
     * for a mem_every below 1; its gap range is empty either way. */
    gap_lo = syn_max(1, in->mem_every / 2);
    gap_hi = in->mem_every * 3 / 2;
    while (instr < in->total_instructions && !rng.bad) {
        int64_t gap = syn_randint(&rng, gap_lo, gap_hi), line;
        EMIT(SYN_OP_COMPUTE, gap, gap);
        instr += gap;
        while (barrier_idx < in->n_barriers
               && instr >= in->barriers[barrier_idx]) {
            EMIT(SYN_OP_BARRIER, 0, 0);
            barrier_idx++;
        }
        if (has_lock && instr >= next_lock) {
            int64_t lock = syn_randbelow(&rng, in->n_locks);
            int64_t lock_id = in->lock_ids[lock];
            int64_t data_line = in->lock_lines[lock];
            EMIT(SYN_OP_LOCK, lock_id, 1);
            EMIT(SYN_OP_LOAD, data_line, 1);
            EMIT(SYN_OP_COMPUTE, in->lock_compute, in->lock_compute);
            EMIT(SYN_OP_STORE, data_line, 1);
            EMIT(SYN_OP_UNLOCK, lock_id, 1);
            instr += SYN_LOCK_INSTR(in->lock_compute);
            next_lock = instr + syn_randint(&rng, 1, 2 * in->lock_gap);
            continue;
        }
        if (in->n_peers > 0 && syn_random(&rng) < in->shared_frac) {
            if (syn_random(&rng) < in->write_frac) {
                /* Produce into the thread's own shared region. */
                EMIT(SYN_OP_STORE, in->shared_start
                     + syn_randbelow(&rng, in->shared_len), 1);
            } else {
                /* Consume from a cluster peer's region (RAW dependence). */
                int64_t peer = syn_randbelow(&rng, in->n_peers);
                EMIT(SYN_OP_LOAD, in->peer_starts[peer]
                     + syn_randbelow(&rng, in->shared_len), 1);
            }
            instr += 1;
            continue;
        }
        /* Private access with temporal locality. */
        if (n_recent > 0 && syn_random(&rng) < in->reuse) {
            line = recent[syn_randbelow(&rng, n_recent)];
        } else {
            line = in->private_start + syn_randbelow(&rng, in->private_len);
            recent[n_recent++] = line;
            if (n_recent > SYN_RECENT) {
                memmove(recent, recent + 1, SYN_RECENT * sizeof(int64_t));
                n_recent = SYN_RECENT;
            }
        }
        if (syn_random(&rng) < in->write_frac)
            EMIT(SYN_OP_STORE, line, 1);
        else
            EMIT(SYN_OP_LOAD, line, 1);
        instr += 1;
    }
    while (barrier_idx < in->n_barriers) {
        EMIT(SYN_OP_BARRIER, 0, 0);
        barrier_idx++;
    }
#undef EMIT
    if (rng.bad)
        return SYN_EBOUND;
    *n_instructions = retired;
    return n;
}
