"""Per-application communication/sharing profiles.

The paper evaluates 13 SPLASH-2 codes, 4 PARSEC codes and Apache
(Figure 4.3b).  We cannot run the binaries under Pin, so each app is
modeled by the behavioural parameters that drive every Chapter 6 result
(quoted at paper scale; the generators rescale them with the checkpoint
interval):

* ``barrier_every`` — instructions between global barriers.  The paper
  states Ocean synchronizes every ~50k instructions; barrier-heavy codes
  are what make ICHK ≈ 100% and what the BarCK optimization targets.
* ``cluster_frac`` — the fraction of the machine a thread communicates
  with directly (communication locality).  Blackscholes and Apache have
  strong locality (ICHK ≈ 20%); FFT/Radix are all-to-all.
* ``lock_rate`` / ``lock_scope`` — dynamic-lock intensity.  Raytrace and
  Radiosity use global task queues, chaining everyone into one
  interaction set.
* footprint parameters — private/shared working-set lines and write
  fraction, calibrated so the per-interval log volume preserves the
  relative ordering of Table 6.1 (Ocean >> FFT > LU > ... > Water-Sp).

Values are expressed per *paper-scale* interval (4M instructions) and
rescaled by the generator to the configured interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Paper-scale checkpoint interval the profile numbers are quoted at.
REFERENCE_INTERVAL = 4_000_000


@dataclass(frozen=True)
class AppProfile:
    """Behavioural model of one application (see module docstring)."""

    name: str
    suite: str                       # "splash2" | "parsec" | "server"
    barrier_every: Optional[int]     # instructions; None = no barriers
    cluster_frac: float              # communication locality (0..1]
    lock_rate: float                 # lock sections per 1k instructions
    lock_scope: str                  # "none" | "cluster" | "global"
    private_lines: int               # per-thread private working set
    shared_lines: int                # per-thread owned shared region
    shared_frac: float               # fraction of accesses hitting shared
    write_frac: float                # fraction of accesses that store
    mem_every: int = 50              # instructions per explicit memory op
    reuse: float = 0.6               # temporal locality of private data

    @property
    def barrier_intensive(self) -> bool:
        """Apps Figure 6.4 includes in the barrier-optimization study."""
        return self.barrier_every is not None and self.barrier_every <= 100_000


def _p(name, suite, barrier_every, cluster_frac, lock_rate, lock_scope,
       private_lines, shared_lines, shared_frac, write_frac,
       mem_every=50, reuse=0.6) -> AppProfile:
    return AppProfile(name, suite, barrier_every, cluster_frac, lock_rate,
                      lock_scope, private_lines, shared_lines, shared_frac,
                      write_frac, mem_every, reuse)


#: The 18 applications of Figure 4.3(b).
PROFILES: dict[str, AppProfile] = {p.name: p for p in [
    # ---- SPLASH-2 (evaluated at up to 64 processors) --------------------
    # Barnes: octree build uses clustered locks; a barrier per time step
    # (steps span millions of instructions).
    _p("barnes", "splash2", 5_000_000, 0.15, 0.10, "cluster", 120, 24, 0.20, 0.25),
    # Cholesky: global task queue, no barriers inside factorization.
    _p("cholesky", "splash2", None, 0.25, 0.25, "global", 250, 32, 0.25, 0.30),
    # FFT: all-to-all transpose between barrier-separated phases.
    _p("fft", "splash2", 80_000, 1.00, 0.00, "none", 400, 64, 0.30, 0.35),
    # FMM: tree interactions, clustered; a barrier per step.
    _p("fmm", "splash2", 6_000_000, 0.15, 0.08, "cluster", 180, 32, 0.22, 0.28),
    # Radix: all-to-all key permutation each rank step.
    _p("radix", "splash2", 70_000, 1.00, 0.00, "none", 200, 48, 0.35, 0.45),
    # LU contiguous / non-contiguous: barrier per elimination step.
    _p("lu_c", "splash2", 60_000, 0.20, 0.00, "none", 350, 48, 0.25, 0.40),
    _p("lu_nc", "splash2", 60_000, 0.20, 0.00, "none", 360, 48, 0.28, 0.40),
    # Volrend: task stealing from a global queue, low rate.
    _p("volrend", "splash2", None, 0.20, 0.15, "global", 150, 24, 0.18, 0.22),
    # Water-Spatial: neighbour cells only, tiny write footprint; one
    # barrier per long time step.
    _p("water_sp", "splash2", 8_000_000, 0.10, 0.04, "cluster", 60, 12, 0.15, 0.15),
    # Water-Nsquared: all-pairs forces, per-molecule locks.
    _p("water_nsq", "splash2", 6_000_000, 0.30, 0.12, "cluster", 220, 32, 0.22, 0.28),
    # Radiosity: global distributed task queues, lock-dominated.
    _p("radiosity", "splash2", None, 1.00, 0.50, "global", 90, 24, 0.25, 0.22),
    # Ocean: a barrier every ~50k instructions (stated in Section 6.1)
    # and the largest per-interval log footprint of the suite.
    _p("ocean", "splash2", 50_000, 0.10, 0.00, "none", 500, 64, 0.30, 0.45),
    # Raytrace: very frequent dynamic locks on a global work queue.
    _p("raytrace", "splash2", None, 1.00, 0.60, "global", 90, 16, 0.22, 0.20),
    # ---- PARSEC (evaluated at up to 24 processors) -----------------------
    # Blackscholes: embarrassingly parallel; strong locality.
    _p("blackscholes", "parsec", None, 0.20, 0.00, "none", 120, 16, 0.08, 0.25),
    # Fluidanimate: neighbour-cell locks, barrier per frame.
    _p("fluidanimate", "parsec", 100_000, 0.20, 0.30, "cluster", 200, 32, 0.25, 0.30),
    # Ferret: pipeline stages connected by queues.
    _p("ferret", "parsec", None, 0.25, 0.20, "cluster", 180, 32, 0.22, 0.26),
    # Streamcluster: frequent barriers between phases.
    _p("streamcluster", "parsec", 60_000, 0.20, 0.00, "none", 70, 16, 0.20, 0.22),
    # ---- Server ----------------------------------------------------------
    # Apache (ab driven): per-connection locality, shared-cache locks.
    _p("apache", "server", None, 0.20, 0.08, "cluster", 200, 32, 0.15, 0.30),
]}

#: Subsets used by the harness.
SPLASH2 = [n for n, p in PROFILES.items() if p.suite == "splash2"]
PARSEC = [n for n, p in PROFILES.items() if p.suite == "parsec"]
PARSEC_APACHE = PARSEC + ["apache"]
ALL_APPS = list(PROFILES)

#: Barrier-intensive applications (Figure 6.4).
BARRIER_INTENSIVE = [n for n, p in PROFILES.items() if p.barrier_intensive]

#: Low-ICHK applications used in the output-I/O study (Figure 6.7).
LOW_ICHK = ["blackscholes", "apache", "water_sp", "barnes", "fmm"]


def get_profile(name: str) -> AppProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {sorted(PROFILES)}"
        ) from None
