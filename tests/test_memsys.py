"""Pinned-digest suite for the memory system.

Every load and store enters :class:`~repro.coherence.protocol.
CoherenceEngine`, which serves private hits at the head of
``load``/``store`` and sends only misses to the directory.  This suite
pins what that produces: for every registered scheme — with fault
campaigns, output-I/O injection, cluster mode and golden-model
coherence checking in the mix — a SHA-256 over **every** field of each
run's :class:`SimStats` (runtime, the cycle-bucket partition inputs,
per-core stats, checkpoint/rollback event lists, message, log, energy
and memory-system counters) must equal the digest recorded when the
suite was written.  Any change to the kernel that moves a simulated
result fails here, naming the case.

The hash canonicalizes values the way ``perfbench/workloads.py``
does: dataclasses become (field, value) tuples in declaration order,
dicts are sorted by key repr, enums become their values.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import pytest

from repro.params import MachineConfig, Scheme
from repro.sim.machine import Machine
from repro.workloads import get_workload, inject_output_io
from tests.invariants import assert_run_invariants

SCALE = 150
INTERVALS = 1.8
APP = "blackscholes"


def _config(n_cores, scheme, cluster=1, **overrides):
    return MachineConfig.scaled(n_cores=n_cores, scheme=scheme,
                                scale=SCALE, dep_cluster_size=cluster,
                                **overrides)


def _spec(n_cores, config, io_every=None, app=APP, seed=1):
    spec = get_workload(app, n_cores, config, intervals=INTERVALS,
                        seed=seed)
    if io_every is not None:
        spec = inject_output_io(spec=spec, pid=0,
                                every_instructions=io_every)
    return spec


def _run(config, spec, faults):
    return Machine(config, spec, faults=list(faults) or None).run()


def _canon(value):
    """A representation of ``value`` that is equal exactly when the
    values are, independent of dict insertion order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((f.name, _canon(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _digest(stats_list) -> str:
    """SHA-256 over every SimStats field of each run, in order."""
    hasher = hashlib.sha256()
    for stats in stats_list:
        hasher.update(repr(_canon(stats)).encode())
    return hasher.hexdigest()


def _campaign(config):
    """Three replicas: an early fault, a two-fault sequence, fault-free."""
    interval = config.checkpoint_interval
    return [
        [(0.9 * interval, 0)],
        [(1.1 * interval, 2), (1.45 * interval, 1)],
        [],
    ]


#: (scheme, n_cores, io_every-in-intervals, cluster, with-faults) —
#: every registered scheme appears; NONE has no recovery support, so
#: its runs must be fault-free.
MATRIX = [
    (Scheme.REBOUND, 8, None, 1, True),
    (Scheme.REBOUND, 4, 0.5, 1, True),           # output-I/O injection
    (Scheme.REBOUND, 8, None, 4, True),          # cluster mode (Ch. 8)
    (Scheme.GLOBAL, 8, None, 1, True),
    (Scheme.GLOBAL_DWB, 4, None, 1, True),
    (Scheme.REBOUND_NODWB, 4, 0.5, 1, True),
    (Scheme.REBOUND_BARR, 4, None, 1, True),
    (Scheme.REBOUND_NODWB_BARR, 4, None, 1, True),
    (Scheme.NONE, 4, None, 1, False),
]

#: SHA-256 of each MATRIX case's campaign (every run, in campaign order).
PINNED = {
    "rebound-8-None-1-True":
        "8732c5842d29d626f92c82ea2351973e707524be23bc736d84d46892d425f99a",
    "rebound-4-0.5-1-True":
        "bf1fe7402a78da5a21ea7291548233a8b4868d5e18a17a312e7026f27d215424",
    "rebound-8-None-4-True":
        "18185b6d3c92d56a724251ff17592d38801d11d0da6d280839ad17900ba7e1a0",
    "global-8-None-1-True":
        "bb2ba7b93a351bc4b2748ce147ee2314684f812ac60619ec3ef1d2da3e490fcb",
    "global_dwb-4-None-1-True":
        "9656e0781cbc2c0e1ced67e8155c03839559be63267e361f99293c13fa598777",
    "rebound_nodwb-4-0.5-1-True":
        "730f7e3f4a96a00f2ba49d2ad1a70d737f6357673bdc19f3e4a53038beb815de",
    "rebound_barr-4-None-1-True":
        "ba80772f849d76eca3459900788018fb857f3820edeb200de7fd7cac9ad58d80",
    "rebound_nodwb_barr-4-None-1-True":
        "c5b9c0c11d386525927f07c8ddf439a42a0d60e6bd07dd3312c3c79da9cf10f4",
    "none-4-None-1-False":
        "9c8a79523c9691750435c1378ba881ffc3752ef48a4e6bd7c4a4d47c17f2b97e",
}

#: The golden-checked campaign (Rebound x8, ``check_coherence`` on).
PINNED_GOLDEN_CHECKED = (
    "b42ca960af6809a98b52ea3350ed433fbaa47b4a019d6999557150e96148d2f3")


def _case_id(scheme, n_cores, io_frac, cluster, with_faults):
    return "-".join(str(getattr(v, "value", v))
                    for v in (scheme, n_cores, io_frac, cluster,
                              with_faults))


def _matrix_runs(scheme, n_cores, io_frac, cluster, with_faults):
    config = _config(n_cores, scheme, cluster)
    io_every = int(io_frac * config.checkpoint_interval) \
        if io_frac is not None else None
    spec = _spec(n_cores, config, io_every)
    fault_lists = _campaign(config) if with_faults else [[]]
    return [_run(config, spec, faults) for faults in fault_lists]


def _golden_checked_runs():
    config = _config(8, Scheme.REBOUND, check_coherence=True)
    spec = _spec(8, config)
    return [_run(config, spec, faults) for faults in _campaign(config)]


@pytest.mark.parametrize("scheme,n_cores,io_frac,cluster,with_faults",
                         MATRIX,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_stats_match_pinned_digest(scheme, n_cores, io_frac, cluster,
                                   with_faults):
    runs = _matrix_runs(scheme, n_cores, io_frac, cluster, with_faults)
    for stats in runs:
        assert_run_invariants(stats)
        # Private hits genuinely occur on these workloads.
        assert stats.fastpath_loads > 0
        assert stats.mem_accesses > 0
        assert 0.0 < stats.fastpath_hit_rate <= 1.0
    case = _case_id(scheme, n_cores, io_frac, cluster, with_faults)
    assert _digest(runs) == PINNED[case], f"{case}: SimStats moved"


def test_golden_checked_campaign_matches_pinned_digest():
    """With ``check_coherence`` on, every hit is validated against the
    golden memory image — a value served from a stale line would trip
    the assertion inline — and the stats still match the pin."""
    assert _digest(_golden_checked_runs()) == PINNED_GOLDEN_CHECKED


# -- memsys counter plumbing ------------------------------------------------

def test_memsys_counters_are_internally_consistent():
    config = _config(4, Scheme.REBOUND)
    stats = _run(config, _spec(4, config), [])
    # The L1 is write-through presence-only: probed by loads, bypassed
    # by stores — so its totals count the loads, a strict subset of the
    # accesses (which tally one L1 energy event per load *and* store).
    loads = stats.l1_hits + stats.l1_misses
    assert 0 < loads < stats.mem_accesses
    assert stats.fastpath_loads <= loads
    assert stats.l2_hits + stats.l2_misses <= stats.mem_accesses
    assert stats.fastpath_loads + stats.fastpath_stores \
        <= stats.mem_accesses
    assert stats.fastpath_epoch_bumps > 0      # interval advances alone
    assert stats.energy_events.get("l1", 0) == stats.mem_accesses


def test_engine_memsys_totals_sum_runs():
    from repro.harness.engine import ExperimentEngine, RunKey
    engine = ExperimentEngine(jobs=1, use_disk_cache=False)
    keys = [RunKey(app=APP, n_cores=4, scheme=scheme,
                   intervals=INTERVALS, seed=1, scale=SCALE)
            for scheme in (Scheme.REBOUND, Scheme.GLOBAL)]
    results = engine.run_many(keys)
    totals = engine.memsys_counters()
    for name in ("l1_hits", "l2_hits", "fastpath_loads", "mem_accesses"):
        assert totals[name] == sum(getattr(results[key], name)
                                   for key in keys)
    assert totals["mem_accesses"] > 0
