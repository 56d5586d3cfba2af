"""RL001 fixture: every closure-scheduling spelling the rule must
catch.  Lines are pinned by tests/test_reprolint.py."""

import heapq

_CLOSURE = 1


class BadScheme:
    def arm(self, machine, when):
        machine.schedule(when, self.fire)          # RL001: legacy path

    def arm_lambda(self, machine, when):
        machine.push_drain(when, lambda t: None, 0)   # RL001: lambda

    def arm_local(self, machine, heap, when):
        def callback(t):
            self.fire(t)
        heapq.heappush(heap, (when, 0, _CLOSURE, callback, None))  # RL001

    def fire(self, when):
        pass
