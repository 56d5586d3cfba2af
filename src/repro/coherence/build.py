"""Build and load the compiled extension: the memory system
(``memsys.c``) and the synthetic trace generator's loop
(``repro/workloads/synthetic.c``), one cffi module.

The C sources are concatenated into one translation unit, wrapped by
cffi in API mode and compiled once per (C source text, :data:`CDEF`,
:data:`FLAGS`, interpreter ABI tag, cffi version) into the coherence
package's ``__pycache__``; neither distutils nor setuptools is
involved.  The name is a digest of the very text that is emitted: the
sources are read once per load and the declarations are the ones in
this process, so a build can never publish one text under another
text's name.  :func:`load` returns the loaded extension module (its
``ffi`` and ``lib``), the same object on every call in a process;
:mod:`repro.coherence.core` calls it at import time, so a process pays
for a compile before it builds any machine, and only when no intact
build exists.

Publishing is atomic: the library is compiled into a private temporary
directory and moved into place with ``os.replace``, then a SHA-256 stamp
of its bytes is published the same way.  A concurrently importing
process therefore sees either no library, or a complete one.  A library
whose bytes do not match its stamp (truncated, or replaced by a racing
build) is rebuilt rather than loaded.

The compiler is the interpreter's own ``CC``, run with ``-O2
-ffp-contract=off``: no fused multiply-adds, no ``-ffast-math`` and no
``-march=native``, so every ``double`` evaluates exactly as the Python
oracle's floats do.  A missing or failing compiler raises one
:class:`ImportError` naming the command and its standard error.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import io
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import _cffi_backend

HERE = Path(__file__).resolve().parent
#: The extension's C sources, in the order they are concatenated.
SOURCES = (HERE / "memsys.c", HERE.parent / "workloads" / "synthetic.c")
BUILD_DIR = HERE / "__pycache__"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: Modules this process has loaded, by library path.
_LOADED: dict[Path, object] = {}

#: What Python sees of the C sources; cffi checks it against them.
CDEF = """
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
    int32_t owner;
    int32_t lw_id;
    int32_t mode;
} mem_dirent_t;

typedef struct {
    int64_t interval_id;
    double start_time;
    uint64_t producers;
    uint64_t consumers;
    uint64_t producers_genuine;
    uint64_t consumers_genuine;
    double ckpt_complete_time;
    int64_t wsig_tests;
    int64_t wsig_false_positives;
    uint8_t complete;
    uint8_t ckpt_started;
} mem_dep_t;

typedef struct {
    int64_t seq;
    double time;
    int64_t pid;
    int64_t addr;
    int64_t old_value;
    int64_t interval;
} mem_logent_t;

typedef struct mem_core {
    void *owner;
    double *demand_busy;
    double *wb_busy;
    double *ckpt_wb_busy;
    int64_t bg_streams;
    int64_t demand_accesses;
    int64_t wb_transfers;
    double demand_wait_cycles;
    double demand_ckpt_wait_cycles;
    int64_t *l1_hits;
    int64_t *l1_misses;
    int64_t *l2_hits;
    int64_t *l2_misses;
    int64_t *epochs;
    double *ckpt_wait;
    int64_t energy_l1;
    int64_t energy_l2;
    int64_t energy_dir;
    int64_t energy_dram;
    int64_t energy_log;
    int64_t energy_wsig;
    int64_t energy_depreg;
    int64_t fast_loads;
    int64_t fast_stores;
    int64_t invalidations_sent;
    int64_t forced_delayed_writebacks;
    int64_t base_messages;
    int64_t dep_messages;
    mem_logent_t *log;
    int64_t log_n;
    int64_t log_seq;
    int64_t log_total;
    int64_t mem_writes;
    int64_t logged_writebacks;
    int64_t suppressed_logs;
    int failed;
    int64_t fail_addr;
    int64_t fail_loaded;
    int64_t fail_expected;
    int64_t fail_pid;
    ...;
} mem_core_t;

#define FAIL_CALLBACK ...
#define FAIL_GOLDEN ...
#define FAIL_INCLUSION ...
#define FAIL_OWNER ...
#define FAIL_BLOOM ...
#define LINE_LOG_CURRENT ...
#define LINE_LOG_DELAYED ...
#define HOOKS_NONE ...
#define HOOKS_GLOBAL ...
#define HOOKS_REBOUND ...
#define HOOKS_PYTHON ...

extern "Python" int mem_cb_dependence(void *, int, int, int64_t);
extern "Python" int mem_cb_wsig(void *, int, int64_t);
extern "Python" int mem_cb_line(void *, double, int, int64_t, int,
                                int64_t *);

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

#define OP_COMPUTE ...
#define OP_LOAD ...
#define OP_STORE ...
#define OP_END ...
#define EV_EXEC ...
#define EV_CALL ...
#define EV_PAUSE ...
#define ADV_DONE ...
#define ADV_PAUSE ...
#define ADV_CALL ...
#define ADV_POST_OP ...
#define ADV_RECORD ...
#define ADV_LIMIT ...
#define ADV_DEADLOCK ...
#define ADV_FAILED ...
#define SYNC_PASSED ...
#define SYNC_WAIT ...
#define SYNC_LAST ...

typedef struct {
    double when;
    int64_t seq;
    int32_t kind;
    int32_t pid;
    int64_t arg;
} mem_event_t;

typedef struct {
    int64_t ip;
    int64_t instr_count;
    int64_t instr_since_ckpt;
    int64_t epoch;
    int64_t store_seq;
    int64_t pending_delayed;
    int64_t delayed_ckpt_id;
    int64_t interval;
    int64_t block_site;
    double time;
    double not_before;
    double busy;
    double block_start;
    double sync_wait;
    uint8_t done;
    int8_t blocked;
} mem_hot_t;

typedef struct {
    int64_t lock_id;
    int64_t line;
    int32_t holder;
    int32_t n_waiting;
    int32_t waiting[64];
} mem_lock_t;

typedef struct {
    int64_t barrier_id;
    int64_t count_line;
    int64_t flag_line;
    int64_t gen;
    int32_t n;
    int32_t n_arrived;
    int32_t parts[64];
    int32_t arrived[64];
    int64_t crossed[64];
} mem_barrier_t;

typedef struct mem_loop {
    int n;
    mem_hot_t *hot;
    int64_t heap_n;
    int64_t seq;
    int64_t n_done;
    double now;
    int n_locks;
    int n_barriers;
    mem_lock_t *locks;
    mem_barrier_t *barriers;
    int64_t lock_acquisitions;
    int64_t barrier_episodes;
    int barrier_hooks;
    int64_t pops;
    int64_t residencies;
    int64_t records[8];
    int64_t returns[8];
    ...;
} mem_loop_t;

mem_loop_t *loop_new(int, int, int);
int loop_add_lock(mem_loop_t *, int64_t, int64_t);
int loop_add_barrier(mem_loop_t *, int64_t, int64_t, int64_t, const int32_t *,
                     int);
int sync_grant_next(mem_core_t *, mem_loop_t *, int64_t, double);
int sync_arrive(mem_core_t *, mem_loop_t *, int, int64_t, double, double *);
double sync_release(mem_core_t *, mem_loop_t *, int, int64_t, double, double);
mem_loop_t *loop_clone(const mem_loop_t *);
void loop_free(mem_loop_t *);
void loop_set_trace(mem_loop_t *, int, const int8_t *, const unsigned char *,
                    int64_t);
int loop_push_core(mem_loop_t *, int);
int loop_push(mem_loop_t *, double, int64_t, int);
int loop_pop(mem_loop_t *, mem_event_t *);
double loop_next_when(mem_loop_t *);
void loop_drop(mem_loop_t *, int);
int mem_advance(mem_core_t *, mem_loop_t *, double, double, int64_t,
                mem_event_t *);
void mem_bind_loop(mem_core_t *, mem_loop_t *);

#define SYN_EBOUND ...

typedef struct {
    int64_t total_instructions;
    int64_t jitter_bound;
    int64_t mem_every;
    int64_t lock_gap;
    int64_t lock_compute;
    double shared_frac;
    double write_frac;
    double reuse;
    int64_t private_start;
    int64_t private_len;
    int64_t shared_start;
    int64_t shared_len;
    const int64_t *peer_starts;
    int64_t n_peers;
    const int64_t *lock_ids;
    const int64_t *lock_lines;
    int64_t n_locks;
    const int64_t *barriers;
    int64_t n_barriers;
} syn_thread_t;

int64_t syn_capacity(const syn_thread_t *);
int64_t syn_thread_trace(const syn_thread_t *, uint32_t *, int, int8_t *,
                         int64_t *, int64_t, int64_t *);
"""


def source_text() -> str:
    """The extension's C source: every file of :data:`SOURCES`, in
    order (raises :class:`OSError` when one cannot be read)."""
    return "".join(path.read_text() for path in SOURCES)


def module_name(source: str) -> str:
    """The extension's name: a digest of everything that shapes it (the
    C source text, the in-process :data:`CDEF` and :data:`FLAGS`, the
    interpreter ABI and the cffi version)."""
    digest = hashlib.sha256()
    for part in (source, CDEF, " ".join(FLAGS),
                 importlib.machinery.EXTENSION_SUFFIXES[0],
                 _cffi_backend.__version__):
        digest.update(part.encode())
        digest.update(b"\0")
    return "_memsys_" + digest.hexdigest()[:16]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _intact(library: Path, stamp: Path) -> bool:
    try:
        return stamp.read_text().strip() == _sha256(library)
    except OSError:
        return False


def _compile_command(c_file: Path, output: Path) -> list[str]:
    """The compiler invocation for one build."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    command = [*compiler, *FLAGS,
               "-I" + sysconfig.get_paths()["include"],
               str(c_file), "-o", str(output)]
    if sys.platform == "darwin":
        command += ["-undefined", "dynamic_lookup"]
    return command


def emit(name: str, source: str, c_file: Path) -> None:
    """Write the C file cffi generates for extension ``name``: the
    wrappers around ``source``, which it includes verbatim."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(name, source)
    with contextlib.redirect_stdout(io.StringIO()):
        ffi.emit_c_code(str(c_file))


def _build(name: str, source: str, library: Path, stamp: Path) -> None:
    work = library.parent / f"{name}.{os.getpid()}.tmp"
    work.mkdir(parents=True, exist_ok=True)
    try:
        c_file = work / f"{name}.c"
        emit(name, source, c_file)
        built = work / library.name
        command = _compile_command(c_file, built)
        shown = " ".join(shlex.quote(part) for part in command)
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(
                f"cannot build the compiled memory system: `{shown}` "
                f"did not start: {exc}") from None
        if proc.returncode != 0:
            raise ImportError(
                f"cannot build the compiled memory system: `{shown}` "
                f"exited with status {proc.returncode}:\n"
                f"{proc.stderr.strip()}")
        digest = _sha256(built)
        os.replace(built, library)
        (work / stamp.name).write_text(digest + "\n")
        os.replace(work / stamp.name, stamp)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load(build_dir: Path = BUILD_DIR):
    """The compiled extension module, built first if needed; a process
    loads each build once and gets the same module on every call.

    A source that cannot be read (an install without ``memsys.c`` or
    ``synthetic.c``) or a build directory that cannot be written raises
    :class:`ImportError` naming the path and the cause."""
    try:
        source = source_text()
    except OSError as exc:
        raise ImportError(
            f"cannot build the compiled memory system: its source "
            f"cannot be read: {exc}") from None
    name = module_name(source)
    library = build_dir / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    if library in _LOADED:
        return _LOADED[library]
    stamp = library.with_name(library.name + ".sha256")
    if not _intact(library, stamp):
        try:
            build_dir.mkdir(parents=True, exist_ok=True)
            _build(name, source, library, stamp)
        except OSError as exc:
            raise ImportError(
                f"cannot build the compiled memory system in {build_dir}: "
                f"{exc}") from None
    loader = importlib.machinery.ExtensionFileLoader(name, str(library))
    spec = importlib.util.spec_from_file_location(name, library,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    _LOADED[library] = module
    return module
