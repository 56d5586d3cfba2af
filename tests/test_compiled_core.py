"""Contracts of the compiled memory system (``repro/coherence/memsys.c``):
its place in the code fingerprint, its core-count limit, its build
(concurrent, corrupted, no compiler, declared by the C sources' marked
blocks), the ``ctypes`` views of its rows, forking and deep-copying a
machine, the handles it does not expose, and failures raised inside it or its
machine loop (callback exceptions, golden checks, the cycle limit,
deadlocks), which leave the machine refusing to advance."""

from __future__ import annotations

import copy
import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness.engine as harness_engine
import repro.sim.machine as machine_module
from repro.coherence import build
from repro.coherence.core import CompiledEngine, ffi, lib
from repro.coherence.protocol import CoherenceEngine, DependenceTracker
from repro.core import register_scheme, unregister_scheme
from repro.core.dep_registers import DepRegisterSet
from repro.core.rebound_scheme import ReboundScheme
from repro.interconnect import Interconnect
from repro.mem import MainMemory, ReviveLog
from repro.params import MachineConfig, Scheme
from repro.sim.cores import Core
from repro.sim.machine import Machine, SimulationDeadlock
from repro.sim.sync import BarrierState, LockState
from repro.trace import COMPUTE, END, LOAD, LOCK, STORE
from repro.workloads import get_workload
from tests.conftest import lock_spec, make_machine, make_spec, tiny_config

SRC = Path(__file__).resolve().parents[1] / "src"

#: Loads a core from the build directory ``argv[1]`` and prints the
#: latency of a cold load (L2 hit cycles + memory round trip).
LOAD_SCRIPT = """
import sys
from pathlib import Path
from repro.coherence import build
module = build.load(Path(sys.argv[1]))
core = module.lib.mem_new(4, 4, 2, 8, 4, 2, 2, 8, 60, 200, 3, 6, 0, 0)
print(module.lib.mem_load(core, 0, 100, 0.0))
"""


def _spawn_load(build_dir: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", LOAD_SCRIPT, str(build_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})


def _finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.strip()


class TestFingerprint:
    def test_c_source_is_fingerprinted(self):
        assert set(build.SOURCES) <= set(harness_engine.fingerprint_paths())

    def test_editing_the_c_source_changes_the_fingerprint(
            self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        shutil.copytree(harness_engine._PACKAGE_DIR, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(harness_engine, "_PACKAGE_DIR", package)
        monkeypatch.setattr(harness_engine, "_FINGERPRINT", None)
        before = harness_engine.code_fingerprint()
        source = package / "coherence" / "memsys.c"
        source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        monkeypatch.setattr(harness_engine, "_FINGERPRINT", None)
        assert harness_engine.code_fingerprint() != before


def test_more_than_64_cores_is_refused():
    config = MachineConfig.scaled(n_cores=65, scheme=Scheme.NONE, scale=400)
    spec = make_spec([[(COMPUTE, 10), (END,)]] * 2)
    with pytest.raises(ValueError, match="at most 64 cores"):
        Machine(config, spec)


class TestBuild:
    def test_two_processes_build_an_empty_directory(self, tmp_path):
        procs = [_spawn_load(tmp_path) for _ in range(2)]
        assert [_finish(proc) for proc in procs] == ["208.0", "208.0"]
        assert [path.name for path in tmp_path.iterdir()
                if path.name.endswith(".tmp")] == []

    def test_truncated_library_is_rebuilt(self, tmp_path):
        assert _finish(_spawn_load(tmp_path)) == "208.0"
        library, = tmp_path.glob("*.so")
        intact = library.read_bytes()
        library.write_bytes(intact[:len(intact) // 2])
        assert _finish(_spawn_load(tmp_path)) == "208.0"
        assert build._intact(library,
                             library.with_name(library.name + ".sha256"))

    def test_missing_compiler_names_the_command(self, tmp_path, monkeypatch):
        monkeypatch.setattr(build.sysconfig, "get_config_var",
                            lambda name: "/nonexistent/cc")
        with pytest.raises(ImportError, match="/nonexistent/cc"):
            build.load(tmp_path)

    def test_failing_compiler_reports_its_stderr(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(build.sysconfig, "get_config_var",
                            lambda name: "sh -c 'echo no-such-header >&2; "
                                         "exit 3'")
        with pytest.raises(ImportError,
                           match=r"(?s)exited with status 3.*no-such-header"):
            build.load(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_missing_source_is_an_import_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(build, "SOURCES",
                            (build.SOURCES[0], tmp_path / "synthetic.c"))
        with pytest.raises(ImportError, match="source cannot be read"):
            build.load(tmp_path)

    def test_name_follows_the_declarations_in_this_process(
            self, monkeypatch, tmp_path):
        """The name digests the ``CDEF`` and flags the build emits, not
        ``build.py`` on disk: a process that imported an older
        ``build.py`` cannot publish its declarations under the new
        file's name.  The marked blocks of the C sources are the rest of
        the declarations cffi wraps: a prototype added to one renames
        the build and gets a wrapper in the emitted file."""
        source = build.source_text()
        name = build.module_name(source)
        monkeypatch.setattr(build, "CDEF",
                            build.CDEF + "int mem_extra(void);\n")
        assert build.module_name(source) != name
        monkeypatch.undo()
        monkeypatch.setattr(build, "FLAGS", build.FLAGS + ("-g",))
        assert build.module_name(source) != name
        assert build.module_name(source + "\n") != name
        monkeypatch.undo()
        end = "/* cdef: end */"
        assert source.count(end) == len(build.SOURCES)
        edited = source.replace(end, "int64_t mem_extra(mem_core_t *);\n"
                                + end, 1)
        assert "mem_extra" in build.declarations(edited)
        assert build.module_name(edited) != name
        build.emit(build.module_name(edited), edited, tmp_path / "x.c")
        assert "_cffi_f_mem_extra" in (tmp_path / "x.c").read_text()

    def test_a_build_deletes_the_builds_it_supersedes(self, tmp_path,
                                                      monkeypatch):
        """Two sources built into one directory leave only the second
        build: the first library and its stamp go, while another
        interpreter's build and a build in progress stay."""
        source = build.source_text()
        suffix = build.importlib.machinery.EXTENSION_SUFFIXES[0]
        other_abi = tmp_path / f"{build.PREFIX}{'0' * 16}.other-abi.so"
        in_progress = tmp_path / f"{build.PREFIX}{'1' * 16}.99.tmp"
        kept = []
        for edit in ("/* first */\n", "/* second */\n"):
            monkeypatch.setattr(build, "source_text",
                                lambda edit=edit: source + edit)
            build.load(tmp_path)
            name = build.module_name(source + edit)
            kept = [name + suffix, name + suffix + ".sha256"]
            assert {path.name for path in tmp_path.iterdir()} \
                >= set(kept)
            other_abi.write_text("")
            in_progress.mkdir(exist_ok=True)
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == sorted(kept + [other_abi.name, in_progress.name])

    def test_a_process_loads_each_build_once(self):
        assert build.load() is build.load()

    def test_unwritable_build_directory_is_an_import_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ImportError,
                           match=f"in {blocker / 'build'}"):
            build.load(blocker / "build")


def test_fork_at_several_points_matches_a_fresh_run():
    """Forks of a paused machine finish exactly like a fresh run, and
    their callbacks land in the fork: the leader does not move."""
    config = MachineConfig.scaled(n_cores=16, scheme=Scheme.REBOUND,
                                  scale=150)
    spec = get_workload("ocean", 16, config, intervals=2.0, seed=1)
    reference = Machine(config, spec).run()
    leader = Machine(config, spec)
    leader.start()
    for frac in (0.1, 0.45, 0.8):
        assert leader.advance(pause_at=frac * reference.runtime)
        before = (leader.log.total_entries, leader.memory.logged_writebacks,
                  leader.engine.tally(), leader.engine.energy_events())
        fork = leader.fork()
        engine = fork.engine
        assert type(engine) is CompiledEngine
        assert ffi.from_handle(engine._c.owner)() is engine
        assert engine.tracker is fork.scheme
        assert engine.memory is fork.memory
        assert engine.memory.log is fork.log
        fork.advance()
        assert fork.finalize() == reference
        assert (leader.log.total_entries, leader.memory.logged_writebacks,
                leader.engine.tally(),
                leader.engine.energy_events()) == before
    assert not leader.advance()
    assert leader.finalize() == reference


def test_a_deep_copy_runs_like_a_fresh_machine():
    """``copy.deepcopy`` of a machine gives a copy whose memory system
    reads the copy's core rows, and leaves the original intact."""
    config = MachineConfig.scaled(n_cores=16, scheme=Scheme.REBOUND,
                                  scale=150)
    spec = get_workload("water_sp", 16, config, intervals=1.5, seed=1)
    reference = Machine(config, spec).run()
    original = Machine(config, spec)
    clone = copy.deepcopy(original)
    assert clone.run() == reference
    assert original.run() == reference


@pytest.mark.parametrize("view, struct", [
    (Core, "mem_hot_t"), (LockState, "mem_lock_t"),
    (BarrierState, "mem_barrier_t"), (DepRegisterSet, "mem_dep_t")])
def test_row_views_lay_over_their_structs(view, struct):
    """Each ``ctypes`` view has every field of its C struct, under its
    name or with a leading underscore, at the struct's offset and size,
    and reads the ``_Bool`` fields as ``bool``."""
    assert ctypes.sizeof(view) == ffi.sizeof(struct)
    row = view.from_buffer(bytearray(ctypes.sizeof(view)))
    for name, field in ffi.typeof(struct).fields:
        attr = name if name in dict(view._fields_) else "_" + name
        assert getattr(view, attr).offset == field.offset
        assert getattr(view, attr).size == ffi.sizeof(field.type)
        if field.type.cname == "_Bool":
            assert getattr(row, attr) is False


class _ExplodingTracker(DependenceTracker):
    enabled = True

    def on_write(self, pid, addr):
        raise KeyError("wsig exploded")


def test_callback_exception_surfaces_at_the_access():
    config = tiny_config(2)
    engine = CompiledEngine(config, ReviveLog(), Interconnect(config),
                            _ExplodingTracker())
    with pytest.raises(KeyError, match="wsig exploded"):
        engine.store(0, 5, 1, 0.0)
    # The core stays poisoned: no access runs on half-updated state.
    with pytest.raises(RuntimeError, match="failed earlier"):
        engine.load(1, 6, 1.0)


class _ExplodingLineTracker(DependenceTracker):
    """Out-of-tree: overrides a line hook, so the core calls it back;
    the first Delayed line that leaves a cache explodes."""

    def __init__(self):
        self.calls = []

    def interval_of(self, pid):
        self.calls.append(("interval_of", pid))
        return 0

    def delayed_interval_of(self, pid):
        return 0

    def on_line_left_cache(self, pid, addr, now):
        self.calls.append(addr)
        raise KeyError(f"writeback {len(self.calls)} exploded")


def test_first_callback_exception_wins():
    """A failed core sends no further event: the first exception of a
    walk surfaces, and nothing more reaches the log."""
    config = tiny_config(2)
    tracker = _ExplodingLineTracker()
    engine = CompiledEngine(config, ReviveLog(), Interconnect(config),
                            tracker)
    engine.store(0, 5, 1, 0.0)
    engine.mark_delayed(0)
    # Fill core 1's set of line 5 with dirty lines: taking line 5 from
    # core 0 (a Delayed writeback, the first event) then evicts one of
    # them (a second writeback, which must not happen).
    sets = config.l2.n_sets
    for k in range(1, config.l2.assoc + 1):
        engine.store(1, 5 + k * sets, 2, 10.0)
    logged = engine.memory.log.total_entries
    with pytest.raises(KeyError, match="writeback 1 exploded"):
        engine.store(1, 5, 3, 20.0)
    assert tracker.calls == [5]
    assert engine.memory.log.total_entries == logged


class _ExplodingWsigScheme(ReboundScheme):
    """Out-of-tree: a Rebound whose WSIG stamp is its own (called back)."""

    def on_write(self, pid, addr):
        raise KeyError("wsig exploded")


@pytest.fixture
def exploding_wsig_scheme():
    tag = register_scheme("exploding_wsig", _ExplodingWsigScheme,
                          is_local=True, delayed_writebacks=True)
    yield tag
    unregister_scheme(tag.value)


def test_callback_exception_stops_the_machine_loop(exploding_wsig_scheme):
    machine = make_machine([[(STORE, 3), (END,)], [(COMPUTE, 5), (END,)]],
                           config=tiny_config(2, exploding_wsig_scheme))
    assert machine.engine.hooks == lib.HOOKS_PYTHON
    with pytest.raises(KeyError, match="wsig exploded"):
        machine.run()


def test_wsig_false_negative_fails_the_core():
    """The WSIG's no-false-negative check runs in the core, under
    ``python -O`` too: a WSIG that lost a written line fails the next
    dependence on it."""
    machine = make_machine([[(STORE, 3), (COMPUTE, 50), (END,)],
                            [(COMPUTE, 500), (LOAD, 3), (END,)]],
                           config=tiny_config(2, Scheme.REBOUND))
    assert machine.engine.hooks == lib.HOOKS_REBOUND
    machine.start()
    machine.advance(pause_at=100.0)
    wsig = machine.scheme.files[0].active.wsig
    assert 3 in wsig.exact
    words = wsig.words
    for i in range(len(words)):
        words[i] = 0
    with pytest.raises(AssertionError,
                       match="false negative: core 0 wrote line 0x3"):
        machine.advance()


def test_golden_violation_in_the_machine_loop_is_an_assertion():
    machine = make_machine([[(STORE, 3), (COMPUTE, 50), (END,)],
                            [(COMPUTE, 500), (LOAD, 3), (END,)]],
                           config=tiny_config(2, Scheme.NONE))
    machine.start()
    machine.advance(pause_at=100.0)
    machine.engine.golden[3] = 12345
    with pytest.raises(AssertionError, match="coherence violation at 0x3"):
        machine.advance()


def test_compiled_engine_exposes_no_cache_handles():
    """Schemes cannot poke the caches or the directory of a compiled
    machine: those handles exist only on the Python oracle."""
    machine = make_machine([[(STORE, 3), (END,)], [(LOAD, 3), (END,)]])
    assert type(machine.engine) is CompiledEngine
    for name in ("l1s", "l2s", "directory"):
        assert not hasattr(machine.engine, name)


def _failure(build, max_cycles=None):
    """``(type, message, machine.now)`` of what ``run()`` raises on the
    compiled machine and on the oracle machine; both then refuse to
    advance."""
    outcomes = []
    for engine in (CompiledEngine, CoherenceEngine):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(machine_module, "CompiledEngine", engine)
            machine = build()
            with pytest.raises(Exception) as caught:
                machine.run(max_cycles=max_cycles)
            with pytest.raises(RuntimeError, match="cannot go on"):
                machine.advance()
        outcomes.append((caught.type, str(caught.value), machine.now))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class _ExplodingDependenceScheme(ReboundScheme):
    """Out-of-tree: a Rebound whose dependence record is its own."""

    def record_dependence(self, consumer, producer, addr):
        raise LookupError(f"dependence {producer}->{consumer} exploded")


@pytest.fixture
def exploding_dependence_scheme():
    tag = register_scheme("exploding_dependence",
                          _ExplodingDependenceScheme, is_local=True,
                          delayed_writebacks=True)
    yield tag
    unregister_scheme(tag.value)


def test_dependence_exception_in_a_fused_batch(exploding_dependence_scheme):
    """Core 1's batch fuses its COMPUTE with the load that reads core
    0's store; the dependence callback's exception surfaces as is."""
    kind, message, _ = _failure(lambda: make_machine(
        [[(STORE, 3), (END,)], [(COMPUTE, 50), (LOAD, 3), (END,)]],
        config=tiny_config(2, exploding_dependence_scheme)))
    assert (kind, message) == (LookupError, "dependence 0->1 exploded")


def test_cycle_limit_overrun_in_a_batch():
    kind, message, now = _failure(lambda: make_machine(
        [[(COMPUTE, 40), (LOAD, 5)] * 50 + [(END,)]],
        config=tiny_config(2, Scheme.NONE)), max_cycles=1000)
    assert (kind, message) == (RuntimeError,
                               "simulation exceeded 1,000 cycles")
    assert now > 1000


def test_lock_deadlock():
    def build():
        spec = make_spec([[(LOCK, 0), (END,)],
                          [(COMPUTE, 10), (LOCK, 0), (END,)]],
                         locks=[lock_spec()])
        return Machine(tiny_config(2, Scheme.NONE), spec)

    kind, message, _ = _failure(build)
    assert kind is SimulationDeadlock
    assert message == ("no runnable core; waiting: core 1: "
                       "blocked=lock site=0 ip=1")


class TestUndoneEntries:
    def test_restore_reads_like_the_oracles_list(self):
        """The compiled restore hands back a sequence that builds each
        undone LogEntry only when read: the oracle MainMemory's list,
        newest first."""
        machine = make_machine([[(COMPUTE, 1)], [(COMPUTE, 1)]])
        memory = machine.memory
        oracle = MainMemory(ReviveLog())
        for mem in (memory, oracle):
            for step, (addr, interval) in enumerate(
                    [(10, 1), (11, 2), (10, 3), (12, 2), (13, 1)]):
                mem.writeback(float(step), 0, addr, 100 + step,
                              interval=interval)
        def fields(entries):
            return [(e.seq, e.time, e.pid, e.addr, e.old_value, e.interval)
                    for e in entries]

        expected = fields(oracle.restore({0: 1}))
        undone = memory.restore({0: 1})
        assert len(undone) == len(expected) == 3
        assert fields(undone) == expected
        assert fields(undone[i] for i in range(-3, 3)) == expected * 2
        assert fields(undone[1:]) == expected[1:]
        with pytest.raises(IndexError):
            undone[3]
        assert memory.snapshot() == oracle.snapshot()
