"""Multistage-interconnect model: latencies and message accounting.

The paper's timing model (Figure 4.3a) uses average round-trip latencies
rather than a routed topology: the latencies are ``MachineConfig``
constants, and the network here keeps exact message *counts*, split into
the classes needed by Table 6.1 (base coherence traffic vs. the extra
messages that maintain LW-ID and the Dep registers) and the software
checkpoint/rollback protocol messages.  Table 6.1's percentage is
``SimStats.dep_message_percent``.
"""

from __future__ import annotations

from repro.params import MachineConfig


class MessageClass:
    """Message accounting buckets."""

    BASE = "base"            # ordinary coherence protocol messages
    DEP = "dep"              # extra messages for LW-ID / Dep registers
    PROTOCOL = "protocol"    # software checkpoint/rollback protocol


class Interconnect:
    """Per-class message counters.

    The counters are plain int attributes: the coherence engine bumps
    ``base_messages``/``dep_messages`` directly on its hot paths, and
    :meth:`send` serves callers that pick the class at run time.
    """

    __slots__ = ("config", "base_messages", "dep_messages",
                 "protocol_messages")

    def __init__(self, config: MachineConfig):
        self.config = config
        self.base_messages = 0
        self.dep_messages = 0
        self.protocol_messages = 0

    # -- accounting -----------------------------------------------------------
    def send(self, msg_class: str, n: int = 1) -> None:
        if msg_class == MessageClass.BASE:
            self.base_messages += n
        elif msg_class == MessageClass.DEP:
            self.dep_messages += n
        elif msg_class == MessageClass.PROTOCOL:
            self.protocol_messages += n
        else:
            raise KeyError(msg_class)
