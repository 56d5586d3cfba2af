"""Trace record definitions and the compiled columnar trace IR.

A thread's execution is a sequence of compact records.  Compute bursts
are run-length encoded; only the memory accesses that matter for
coherence, checkpointing and dependence tracking are explicit (the
synthetic generators in :mod:`repro.workloads` emit exactly those).

Record formats (tuple form / IR column values)::

    record            op    arg            notes
    ----------------  ----  -------------  --------------------------------
    (COMPUTE, n)      0     n              n instructions, run-length coded
    (LOAD, line)      1     line_addr      one coherent read
    (STORE, line)     2     line_addr      one coherent write
    (BARRIER, id)     3     barrier_id     global barrier arrival
    (LOCK, id)        4     lock_id        lock acquire (RMW in the sim)
    (UNLOCK, id)      5     lock_id        lock release (RMW in the sim)
    (OUTPUT, n)       6     n_bytes        output I/O: ckpt-before-commit
    (END,)            7     0              end of trace; usually implicit
                                           (the machine synthesizes it
                                           past the last record)

Traces exist in two interchangeable representations:

* **Tuple traces** — plain Python lists of the tuples above.  Handy for
  hand-written tests and still accepted everywhere; the simulator
  compiles them once at machine construction via :func:`compile_trace`.
* **Compiled traces** — :class:`CompiledTrace`, the columnar IR: two
  parallel arrays, ``ops`` (``array('b')``) and ``args``
  (``array('q')``), one entry per record.  This is what the workload
  generators emit (through :class:`TraceBuilder`), what the simulator's
  fused hot loop indexes, and what the harness's content-addressed
  workload store serializes (:meth:`CompiledTrace.to_bytes`).

Addresses are cache-line numbers.  The :class:`AddressSpace` helper hands
out non-overlapping line regions for private data, shared data and
synchronization variables.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, Iterator

COMPUTE = 0
LOAD = 1
STORE = 2
BARRIER = 3
LOCK = 4
UNLOCK = 5
OUTPUT = 6
END = 7

OP_NAMES = {
    COMPUTE: "compute",
    LOAD: "load",
    STORE: "store",
    BARRIER: "barrier",
    LOCK: "lock",
    UNLOCK: "unlock",
    OUTPUT: "output",
    END: "end",
}

#: Ops that retire exactly one instruction (COMPUTE retires ``arg``;
#: BARRIER and END retire none).  The single source of truth for
#: instruction accounting — io-injection imports it too.
ONE_INSTR_OPS = frozenset((LOAD, STORE, LOCK, UNLOCK, OUTPUT))

#: Typecodes of the IR columns: signed byte ops, signed 64-bit args
#: (line addresses include the ``AddressSpace.SYNC_BASE`` region).
OP_TYPECODE = "b"
ARG_TYPECODE = "q"

#: Bump when the serialized column layout changes incompatibly.
TRACE_WIRE_FORMAT = 1

_HEADER = struct.Struct("<HHQQ")   # wire format, reserved, n records, n instr

#: Every defined op value as a byte string: ``bytes.translate`` with
#: this as the deletion set validates a whole ops column at C speed
#: (anything surviving the deletion is an unknown op).
_VALID_OP_BYTES = bytes(range(COMPUTE, END + 1))


class CompiledTrace:
    """Columnar trace IR: parallel ``ops``/``args`` arrays.

    Behaves as an immutable sequence of record tuples (indexing and
    iteration reconstruct the tuple form, so existing record-level code
    keeps working), while the simulator's hot loop reads the columns
    directly and the workload store moves traces as flat bytes.
    """

    __slots__ = ("ops", "args", "n_instructions")

    def __init__(self, ops: Iterable[int], args: Iterable[int],
                 n_instructions: int | None = None):
        ops = ops if isinstance(ops, array) and ops.typecode == OP_TYPECODE \
            else array(OP_TYPECODE, ops)
        args = args if isinstance(args, array) \
            and args.typecode == ARG_TYPECODE else array(ARG_TYPECODE, args)
        if len(ops) != len(args):
            raise ValueError(
                f"ops/args column length mismatch: {len(ops)} != {len(args)}")
        # C-speed exact validation, as in from_buffer: any byte left
        # after deleting every defined op is an unknown op.
        bad = ops.tobytes().translate(None, delete=_VALID_OP_BYTES)
        if bad:
            raise ValueError(
                f"unknown trace op {array(OP_TYPECODE, bad[:1])[0]!r}")
        self.ops = ops
        self.args = args
        if n_instructions is None:
            n_instructions = sum(
                arg if op == COMPUTE else 1
                for op, arg in zip(ops, args)
                if op == COMPUTE or op in ONE_INSTR_OPS)
        self.n_instructions = n_instructions

    # -- sequence protocol (tuple-record view) -----------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [(END,) if op == END else (op, arg)
                    for op, arg in zip(self.ops[index], self.args[index])]
        op = self.ops[index]
        return (END,) if op == END else (op, self.args[index])

    def __iter__(self) -> Iterator[tuple]:
        for op, arg in zip(self.ops, self.args):
            yield (END,) if op == END else (op, arg)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CompiledTrace):
            return self.ops == other.ops and self.args == other.args
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # mutable array columns; never used as a dict key

    def __repr__(self) -> str:
        return (f"CompiledTrace({len(self)} records, "
                f"{self.n_instructions} instructions)")

    # -- conversions -------------------------------------------------------
    def to_tuples(self) -> list[tuple]:
        """The equivalent tuple-trace list (debugging / compatibility)."""
        return list(self)

    def instruction_count(self) -> int:
        """Instructions this trace retires (precomputed, O(1))."""
        return self.n_instructions

    # -- wire format (workload store) --------------------------------------
    def to_bytes(self) -> bytes:
        """Flat serialized form: fixed header + raw column bytes.

        Native byte order (the store's fingerprint pins the platform);
        the header is little-endian so a mismatched file is rejected
        rather than misread.
        """
        return (_HEADER.pack(TRACE_WIRE_FORMAT, 0, len(self.ops),
                             self.n_instructions)
                + self.ops.tobytes() + self.args.tobytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompiledTrace":
        """Inverse of :meth:`to_bytes` (raises ValueError on mismatch)."""
        if len(data) < _HEADER.size:
            raise ValueError("truncated compiled-trace header")
        version, _, n, n_instr = _HEADER.unpack_from(data)
        if version != TRACE_WIRE_FORMAT:
            raise ValueError(
                f"compiled-trace wire format {version} != "
                f"{TRACE_WIRE_FORMAT}")
        ops = array(OP_TYPECODE)
        args = array(ARG_TYPECODE)
        ops_end = _HEADER.size + n * ops.itemsize
        args_end = ops_end + n * args.itemsize
        if len(data) != args_end:
            raise ValueError(
                f"compiled-trace payload is {len(data)} bytes, "
                f"expected {args_end}")
        ops.frombytes(data[_HEADER.size:ops_end])
        args.frombytes(data[ops_end:args_end])
        return cls(ops, args, n_instructions=n_instr)

    @classmethod
    def from_buffer(cls, data, offset: int = 0) -> "CompiledTrace":
        """Zero-copy view constructor over a serialized trace.

        ``data`` is any buffer (an ``mmap``, ``bytes``, a
        ``memoryview``) holding a :meth:`to_bytes` image at ``offset``.
        The returned trace's ``ops``/``args`` columns are **read-only
        memoryviews aliasing the buffer** — nothing is copied, and the
        views keep the underlying buffer (and a mapped store file)
        alive.  View-backed traces behave identically to array-backed
        ones everywhere the simulator reads them (in place from C,
        indexing, equality); the read-only contract
        is enforced both by the views themselves (writes raise) and
        statically by reprolint rule RL005.

        Returns the parsed trace; the caller advances its own cursor by
        ``_HEADER.size + n * 9`` (see ``WorkloadSpec.from_buffer``,
        which carries explicit section lengths instead).
        """
        view = memoryview(data).toreadonly().cast("B")
        if len(view) - offset < _HEADER.size:
            raise ValueError("truncated compiled-trace header")
        version, _, n, n_instr = _HEADER.unpack_from(view, offset)
        if version != TRACE_WIRE_FORMAT:
            raise ValueError(
                f"compiled-trace wire format {version} != "
                f"{TRACE_WIRE_FORMAT}")
        ops_start = offset + _HEADER.size
        args_start = ops_start + n          # array('b').itemsize == 1
        end = args_start + n * 8            # array('q').itemsize == 8
        if len(view) < end:
            raise ValueError(
                f"compiled-trace payload needs {end - offset} bytes, "
                f"buffer holds {len(view) - offset}")
        ops_raw = view[ops_start:args_start]
        # C-speed exact validation: delete every defined op byte; any
        # survivor is an unknown op (min()/max() over a memoryview
        # would iterate in Python).
        bad = bytes(ops_raw).translate(None, delete=_VALID_OP_BYTES)
        if bad:
            raise ValueError(f"unknown trace op {bad[0]!r}")
        trace = cls.__new__(cls)
        trace.ops = ops_raw.cast(OP_TYPECODE)
        trace.args = view[args_start:end].cast(ARG_TYPECODE)
        trace.n_instructions = n_instr
        return trace


class TraceBuilder:
    """Incremental :class:`CompiledTrace` builder.

    The workload generators append records directly into the IR columns
    (no intermediate tuple list); the running instruction count comes
    for free.
    """

    __slots__ = ("_ops", "_args", "_n_instructions")

    def __init__(self):
        self._ops = array(OP_TYPECODE)
        self._args = array(ARG_TYPECODE)
        self._n_instructions = 0

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def n_instructions(self) -> int:
        return self._n_instructions

    def append(self, op: int, arg: int = 0) -> None:
        """Append one record (generic form; see the typed emitters)."""
        if op not in OP_NAMES:
            raise ValueError(f"unknown trace op {op!r}")
        self._ops.append(op)
        self._args.append(arg)
        if op == COMPUTE:
            self._n_instructions += arg
        elif op in ONE_INSTR_OPS:
            self._n_instructions += 1

    def extend(self, records: Iterable[tuple]) -> None:
        """Append tuple records (compatibility with tuple-trace code)."""
        for record in records:
            self.append(record[0], record[1] if len(record) > 1 else 0)

    # -- typed emitters (the generators' fast path) ------------------------
    def compute(self, n_instructions: int) -> None:
        self._ops.append(COMPUTE)
        self._args.append(n_instructions)
        self._n_instructions += n_instructions

    def load(self, line_addr: int) -> None:
        self._ops.append(LOAD)
        self._args.append(line_addr)
        self._n_instructions += 1

    def store(self, line_addr: int) -> None:
        self._ops.append(STORE)
        self._args.append(line_addr)
        self._n_instructions += 1

    def barrier(self, barrier_id: int) -> None:
        self._ops.append(BARRIER)
        self._args.append(barrier_id)

    def lock(self, lock_id: int) -> None:
        self._ops.append(LOCK)
        self._args.append(lock_id)
        self._n_instructions += 1

    def unlock(self, lock_id: int) -> None:
        self._ops.append(UNLOCK)
        self._args.append(lock_id)
        self._n_instructions += 1

    def output(self, n_bytes: int) -> None:
        self._ops.append(OUTPUT)
        self._args.append(n_bytes)
        self._n_instructions += 1

    def build(self) -> CompiledTrace:
        """The finished trace (the builder must not be reused after)."""
        return CompiledTrace(self._ops, self._args,
                             n_instructions=self._n_instructions)


def compile_trace(trace) -> CompiledTrace:
    """One-shot shim: a tuple trace (or anything record-iterable)
    compiled to the columnar IR.  Compiled traces pass through untouched,
    so the simulator accepts both representations everywhere."""
    if isinstance(trace, CompiledTrace):
        return trace
    builder = TraceBuilder()
    builder.extend(trace)
    return builder.build()


class AddressSpace:
    """Sequential allocator of disjoint line-address regions."""

    #: synchronization variables live in their own region so they never
    #: collide with data lines (they are still ordinary coherent lines).
    SYNC_BASE = 1 << 40

    def __init__(self, base: int = 0):
        self._next = base
        self._next_sync = self.SYNC_BASE

    def region(self, n_lines: int) -> range:
        """Allocate ``n_lines`` consecutive line addresses."""
        start = self._next
        self._next += n_lines
        return range(start, start + n_lines)

    def sync_line(self) -> int:
        """Allocate one line for a lock word / barrier counter / flag."""
        line = self._next_sync
        self._next_sync += 1
        return line


def trace_instruction_count(trace) -> int:
    """Number of instructions a trace represents (memory ops count as 1).

    Compiled traces answer from their precomputed count; tuple traces
    (and generic record iterables) are walked record by record.
    """
    if isinstance(trace, CompiledTrace):
        return trace.n_instructions
    total = 0
    for rec in trace:
        op = rec[0]
        if op == COMPUTE:
            total += rec[1]
        elif op in ONE_INSTR_OPS:
            total += 1
    return total
