"""The memory system's line index (``mem_index_t`` in ``memsys.c``),
held to a dict.

The directory, the memory image and golden answer a small non-negative
line from a direct table and every other key (negative, sync lines,
sparse addresses) from the hash.  Through ``mem_map_get``/``mem_map_set``
/``mem_map_key`` and the directory's views, and after every operation
against the index's own arrays:

* every key maps to its insertion position, and the keys list keeps
  insertion order;
* each key has one home: the hash holds exactly the keys the direct
  table does not cover;
* the direct table stays within ``DIRECT_SPAN`` keys per entry (and the
  directory's range, which the image and golden follow);
* widening the table moves the keys it now covers out of the hash, and
  a clone (``mem_clone``) is independent of its source.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.core import ffi, lib
from repro.params import Scheme
from repro.trace import COMPUTE, AddressSpace
from tests.conftest import make_machine, tiny_config

IMAGE, GOLDEN = 0, 1
SYNC = AddressSpace.SYNC_BASE

KEYS = st.one_of(
    st.integers(0, 300),
    st.integers(0, 40_000),
    st.integers(-60, -1),
    st.sampled_from([SYNC + 1, SYNC + 2, 1 << 62, -(1 << 63)]),
    st.integers(-(1 << 63), (1 << 63) - 1),
)


def _machine(check: bool = True):
    config = tiny_config(2, Scheme.NONE, check_coherence=check)
    return make_machine([[(COMPUTE, 1)], [(COMPUTE, 1)]], config=config)


def _check_index(ix, keys: list[int], span_of: int) -> None:
    """``ix`` holds ``keys`` in this order, each in one home, and its
    direct table is within DIRECT_SPAN keys per entry of ``span_of``."""
    assert [ix.keys[i] for i in range(ix.n)] == keys
    hashed = [key for key in keys if not 0 <= key < ix.ndirect]
    assert ix.hashed == len(hashed)
    slots = [s for s in ffi.unpack(ix.slots, ix.nslots) if s]
    assert sorted(keys[s - 1] for s in slots) == sorted(hashed)
    for pos, key in enumerate(keys):
        if 0 <= key < ix.ndirect:
            assert ix.direct[key] == pos + 1
    if ix.ndirect:
        filled = sum(1 for d in ffi.unpack(ix.direct, ix.ndirect) if d)
        assert filled == len(keys) - len(hashed)
        assert ix.ndirect <= max(lib.DIRECT_MIN,
                                 lib.DIRECT_SPAN * max(1, span_of))


def _check_engine(engine, image: dict, golden: dict, directory: list):
    c = engine._c
    for which, ref in ((IMAGE, image), (GOLDEN, golden)):
        assert lib.mem_map_size(c, which) == len(ref)
        assert [lib.mem_map_key(c, which, i)
                for i in range(len(ref))] == list(ref)
        out = ffi.new("int64_t *")
        for key, value in ref.items():
            assert lib.mem_map_get(c, which, key, out)
            assert out[0] == value
    assert [e.addr for e in engine.directory_entries()] == directory
    for addr in directory:
        assert engine.peek_entry(addr) is not None
    span = len(directory)
    _check_index(c.dir.ix, directory, span)
    _check_index(c.image.ix, list(image), max(span, len(image)))
    _check_index(c.golden.ix, list(golden), max(span, len(golden)))


OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from([IMAGE, GOLDEN]), KEYS,
              st.integers(-5, 5)),
    st.tuples(st.just("get"), st.sampled_from([IMAGE, GOLDEN]), KEYS),
    st.tuples(st.just("load"), st.integers(0, 1), KEYS),
    st.tuples(st.just("clone")),
), max_size=60)


class TestLineIndex:
    @given(OPS)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict(self, ops):
        machine = _machine(check=False)
        engine = machine.engine
        image: dict[int, int] = {}
        golden: dict[int, int] = {}
        directory: list[int] = []
        out = ffi.new("int64_t *")
        now = 0.0
        for op in ops:
            c = engine._c
            if op[0] == "set":
                _, which, key, value = op
                assert lib.mem_map_set(c, which, key, value)
                (golden if which else image)[key] = value
            elif op[0] == "get":
                _, which, key = op
                ref = golden if which else image
                found = lib.mem_map_get(c, which, key, out)
                assert bool(found) == (key in ref)
                if found:
                    assert out[0] == ref[key]
            elif op[0] == "load":
                _, pid, key = op
                now += engine.load(pid, key, now)
                if key not in directory:
                    directory.append(key)
            else:
                # The clone carries on; the source must not see it.
                before = (dict(image), dict(golden), list(directory))
                source = machine
                machine = copy.deepcopy(machine)
                engine = machine.engine
                lib.mem_map_set(engine._c, IMAGE, 7, 99)
                lib.mem_map_set(engine._c, IMAGE, SYNC + 5, 98)
                _check_engine(source.engine, *before)
                image[7], image[SYNC + 5] = 99, 98
            _check_engine(engine, image, golden, directory)

    def test_widening_moves_covered_keys_out_of_the_hash(self):
        machine = _machine()
        c = machine.engine._c
        ix = c.image.ix
        lib.mem_map_set(c, IMAGE, 5000, 1)      # too sparse yet: hashed
        assert ix.ndirect <= 5000 and ix.hashed == 1
        for key in range(10):
            lib.mem_map_set(c, IMAGE, key, key)
        lib.mem_map_set(c, IMAGE, 200, 200)     # widens, 5000 stays out
        assert lib.DIRECT_MIN < ix.ndirect <= 5000 and ix.hashed == 1
        _check_index(ix, [5000, *range(10), 200], 12)
        for key in range(10, 300):
            if key != 200:
                lib.mem_map_set(c, IMAGE, key, key)
        assert ix.ndirect <= 5000 and ix.hashed == 1
        lib.mem_map_set(c, IMAGE, 6000, 2)      # now dense enough
        assert ix.ndirect > 6000 and ix.hashed == 0
        out = ffi.new("int64_t *")
        assert lib.mem_map_get(c, IMAGE, 5000, out) and out[0] == 1
        assert lib.mem_map_get(c, IMAGE, 6000, out) and out[0] == 2
        _check_index(ix, [5000, *range(10), 200,
                          *(key for key in range(10, 300) if key != 200),
                          6000], 302)

    def test_sparse_keys_keep_the_direct_table_small(self):
        machine = _machine()
        engine = machine.engine
        c = engine._c
        keys = [i << 20 for i in range(1, 400)]
        for pid, key in enumerate(keys):
            engine.load(pid % 2, key, 0.0)
            lib.mem_map_set(c, IMAGE, key, pid)
            lib.mem_map_set(c, GOLDEN, -key, pid)
        for ix in (c.dir.ix, c.image.ix, c.golden.ix):
            assert ix.ndirect == lib.DIRECT_MIN
            assert ix.hashed == len(keys)
        _check_index(c.dir.ix, keys, len(keys))

    def test_the_image_follows_the_directorys_range(self):
        """A memory read of a line the image has never held is answered
        by the direct table once the directory covers the line."""
        machine = _machine()
        engine = machine.engine
        c = engine._c
        for line in range(0, 4000, 3):
            engine.load(0, line, 0.0)
        assert c.dir.ix.ndirect > 4000
        assert c.image.ix.ndirect == c.golden.ix.ndirect == \
            c.dir.ix.ndirect
        # Without check mode golden is never read: it keeps its table.
        plain = _machine(check=False)
        for line in range(0, 4000, 3):
            plain.engine.load(0, line, 0.0)
        assert plain.engine._c.golden.ix.ndirect == lib.DIRECT_MIN
