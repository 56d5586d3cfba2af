"""RL006 fixture: scheme code mutating cache/directory state directly."""


def poke(self, machine, pid, addr):
    machine.engine.l2s[pid].invalidate(addr)
    machine.engine.l1s[pid].invalidate_all()
    machine.engine.l2s[pid].peek(addr).delayed = False
    machine.engine.directory.entry(addr).lw_id = None
    # Legal: a line the engine handed out is mutated through a bare
    # local — the engine-side call that produced it is the audited
    # entry point, so the rule does not chase dataflow into locals.
    line = machine.engine.l2s[pid].peek(addr)
    line.delayed = False
    machine.engine.l2s[pid].invalidate(addr)  # reprolint: disable=RL006
