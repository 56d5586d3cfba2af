"""Timing model of the off-chip memory channels (DRAMsim substitute).

Two DDR2-style channels (Figure 4.3a).  Each channel serves two traffic
classes:

* **Demand** accesses (cache misses) have priority: they queue only
  behind other demand accesses, plus a bounded interference term for the
  non-preemptible writeback transfer that may already occupy the pins
  (writebacks "have lower priority than and are bypassed by the normal
  reads and writes", Section 4.1).
* **Writebacks** (checkpoint bursts, evictions, background drains) queue
  behind both classes; a processor stalling on its checkpoint writebacks
  therefore observes the full backlog — which is exactly where global
  checkpointing's WBDelay/WBImbalanceDelay comes from.

The model reports how much of each demand wait was caused by checkpoint
traffic so the harness can reproduce the Figure 6.5 breakdown.
"""

from __future__ import annotations

from repro.params import MachineConfig


class MemoryChannels:
    """Two-priority occupancy/queueing model with checkpoint attribution."""

    def __init__(self, config: MachineConfig):
        self.config = config
        # Lines interleave across channels by address: ``addr % n``.
        self.n = config.n_mem_channels
        # Demand-priority horizon: when the channel can take a new read.
        self.demand_busy = [0.0] * self.n
        # Writeback horizon: when all queued writebacks will have drained.
        self.wb_busy = [0.0] * self.n
        # Portion of the writeback horizon caused by checkpoint traffic.
        self.ckpt_wb_busy = [0.0] * self.n
        # Number of active background (delayed-writeback) streams.
        self.bg_streams = 0
        # Statistics.
        self.demand_accesses = 0
        self.wb_transfers = 0
        self.demand_wait_cycles = 0.0
        self.demand_ckpt_wait_cycles = 0.0

    # -- demand path --------------------------------------------------------
    def demand_access(self, now: float, addr: int) -> tuple[float, float]:
        """A cache miss serviced by memory.

        Returns ``(extra_latency, ckpt_induced_wait)``: latency beyond the
        fixed ``memory_cycles`` round trip, and how much of it checkpoint
        traffic caused (feeds IPCDelay).
        """
        ch = addr % self.n
        occ = self.config.dram_occupancy
        busy = self.demand_busy[ch]
        start = busy if busy > now else now
        queue_wait = start - now
        # Writeback interference on a demand read is bounded by how much
        # of the channel the writeback traffic can occupy: at least one
        # non-preemptible transfer, and proportionally more while many
        # background streams drain concurrently.  A machine-wide delayed
        # writeback (all cores at once) therefore pressures reads far
        # more than one interaction set's drain — the reason Global_DWB
        # alone is "not good enough" (Section 6.2).
        # (Conditional expressions instead of max()/min() calls: same
        # values, cheaper on this per-miss path.)
        wb_busy = self.wb_busy[ch]
        wb_backlog = wb_busy - start
        wb_backlog = wb_backlog if wb_backlog > 0.0 else 0.0
        cap = float(self.config.logged_wb_occupancy) * (1.0 + self.bg_streams)
        interference = cap if cap < wb_backlog else wb_backlog
        ckpt_backlog = self.ckpt_wb_busy[ch] - start
        ckpt_backlog = ckpt_backlog if ckpt_backlog > 0.0 else 0.0
        ckpt_share = (ckpt_backlog if ckpt_backlog < interference
                      else interference)
        self.demand_busy[ch] = start + occ
        # Demand traffic steals bandwidth from the writeback queue.
        self.wb_busy[ch] = (now if now > wb_busy else wb_busy) + occ
        self.demand_accesses += 1
        extra = queue_wait + interference
        self.demand_wait_cycles += extra
        self.demand_ckpt_wait_cycles += ckpt_share
        return extra, ckpt_share

    # -- writeback paths ----------------------------------------------------
    def writeback(self, now: float, addr: int, logged: bool,
                  checkpoint: bool) -> float:
        """One line writeback; returns its completion time.

        ``logged`` adds the old-value read + log append occupancy
        (Section 3.3.3); ``checkpoint`` marks the busy window as
        checkpoint-induced for IPCDelay attribution.
        """
        ch = addr % self.n
        occ = (self.config.logged_wb_occupancy if logged
               else self.config.dram_occupancy)
        start = max(now, self.wb_busy[ch], self.demand_busy[ch])
        done = start + occ
        self.wb_busy[ch] = done
        if checkpoint:
            self.ckpt_wb_busy[ch] = done
        self.wb_transfers += 1
        return done

    def priority_writeback(self, now: float, addr: int) -> float:
        """Flush one line at demand priority.

        Used when a store hits a still-Delayed line: the write cannot
        complete until the checkpointed copy reaches memory, so the flush
        jumps the writeback queue (Section 4.1) — but it still arbitrates
        against the transfers of every concurrently draining L2, so a
        machine-wide drain (Global_DWB) makes these flushes far more
        expensive than one interaction set's drain.  Returns completion.
        """
        ch = addr % self.n
        occ = self.config.logged_wb_occupancy
        contention = occ * self.bg_streams / (4.0 * self.n)
        start = max(now, self.demand_busy[ch]) + contention
        done = start + occ
        self.demand_busy[ch] = done
        self.ckpt_wb_busy[ch] = max(self.ckpt_wb_busy[ch], done)
        self.wb_transfers += 1
        return done

    def restore(self, now: float, n_entries: int) -> float:
        """Roll back ``n_entries`` log entries (read log + write memory).

        The log is multi-banked by address (Section 3.3.3) so restoration
        parallelizes across the channels; returns the completion time.
        """
        if n_entries == 0:
            return now
        per_channel = -(-n_entries // self.n)  # ceil division
        done = now
        for ch in range(self.n):
            start = max(now, self.wb_busy[ch])
            end = start + per_channel * self.config.restore_occupancy
            self.wb_busy[ch] = end
            done = max(done, end)
        return done

    # -- background streams --------------------------------------------------
    def bg_start(self) -> None:
        self.bg_streams += 1

    def bg_stop(self) -> None:
        self.bg_streams = max(0, self.bg_streams - 1)

    def bg_drain_time(self, n_lines: int, period: int) -> float:
        """Duration of a background drain of ``n_lines``.

        Each L2 controller trickles one line per ``period`` cycles and the
        drain slows as more streams contend for the same channels.
        """
        contention = 1.0 + 0.5 * max(0, self.bg_streams - self.n) / self.n
        return max(1.0, n_lines * period * contention)

    def bg_account(self, now: float, n_lines: int, window: float) -> None:
        """Account a drain's channel occupancy over ``[now, now+window]``.

        The occupancy lands on the writeback horizon (the drain has lower
        priority than demand traffic), so demand misses inside the window
        observe the bounded checkpoint-attributable interference.
        """
        if n_lines == 0:
            return
        occ_total = n_lines * self.config.logged_wb_occupancy / self.n
        cap = now + window
        for ch in range(self.n):
            horizon = max(self.wb_busy[ch], now) + occ_total
            self.wb_busy[ch] = min(max(horizon, self.wb_busy[ch]),
                                   max(cap, self.wb_busy[ch]))
            self.ckpt_wb_busy[ch] = max(self.ckpt_wb_busy[ch],
                                        self.wb_busy[ch])
        self.wb_transfers += n_lines
