"""Property tests for the SPM allocator's accounting invariants.

Hypothesis drives randomized alloc/free/in-flight traces against a
shadow model: used bytes always equal the sum of live buffers, capacity
is never exceeded, and the in-flight discipline (no free while a slot
is in flight, no double free) is enforced on every path.  A buffer's
plan answers what its array would: ``tile`` raises what ``slot`` raises
and gives the slot's size and element width without creating the array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataIntegrityError, HardwareError, SynchronizationError
from repro.sunway.spm import ScratchPadMemory, SPMOverflowError

CAPACITY = 4096

NAMES = ("a", "b", "c", "d")

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("alloc"),
            st.sampled_from(NAMES),
            st.integers(min_value=1, max_value=80),
        ),
        st.tuples(st.just("free"), st.sampled_from(NAMES), st.just(0)),
        st.tuples(
            st.just("mark"),
            st.sampled_from(NAMES),
            st.integers(min_value=0, max_value=1),
        ),
        st.tuples(
            st.just("clear"),
            st.sampled_from(NAMES),
            st.integers(min_value=0, max_value=1),
        ),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(ops)
def test_accounting_matches_shadow_model(trace):
    spm = ScratchPadMemory(CAPACITY, owner="prop")
    live = {}  # name -> nbytes
    inflight = set()  # (name, slot)
    for op, name, arg in trace:
        if op == "alloc":
            nbytes = arg * 8
            if name in live:
                with pytest.raises(HardwareError):
                    spm.alloc(name, (arg,))
            elif sum(live.values()) + nbytes > CAPACITY:
                with pytest.raises(SPMOverflowError):
                    spm.alloc(name, (arg,))
            else:
                assert spm.alloc(name, (arg,)).nbytes == nbytes
                # alloc records a plan; the zero-filled array exists once
                # the data is touched.
                buffer = spm.buffer(name)
                assert buffer.shape == (arg,) and not buffer.any()
                live[name] = nbytes
        elif op == "free":
            if name not in live:
                with pytest.raises(HardwareError):
                    spm.free(name)
            elif any(key[0] == name for key in inflight):
                with pytest.raises(SynchronizationError):
                    spm.free(name)
            else:
                spm.free(name)
                del live[name]
        elif op == "mark":
            if name in live:
                spm.mark_inflight(name, arg, "dma/test")
                inflight.add((name, arg))
        elif op == "clear":
            if name in live:
                spm.clear_inflight(name, arg)
                inflight.discard((name, arg))
        # Invariants after every step.
        assert spm.used_bytes == sum(live.values())
        assert spm.used_bytes <= CAPACITY
        assert {name for name in NAMES if name in spm} == set(live)
    # Full teardown always restores a pristine allocator.
    spm.free_all()
    assert spm.used_bytes == 0 and not any(name in spm for name in NAMES)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=64),
)
def test_alloc_free_cycle_is_exact(rows, cols):
    spm = ScratchPadMemory(CAPACITY * 8, owner="prop")
    spm.alloc("tile", (rows, cols))
    assert spm.used_bytes == rows * cols * 8
    spm.free("tile")
    assert spm.used_bytes == 0
    # The name is reusable after free.
    spm.alloc("tile", (1,))
    assert spm.used_bytes == 8


def test_free_while_in_flight_names_slot_and_cause():
    spm = ScratchPadMemory(CAPACITY, owner="CPE(0,0)")
    spm.alloc("buf", (2, 4))
    spm.mark_inflight("buf", 1, "dma_iget/get_replyA#1")
    with pytest.raises(SynchronizationError) as err:
        spm.free("buf")
    message = str(err.value)
    assert "buf" in message and "[1]" in message
    assert "dma_iget/get_replyA#1" in message
    # Clearing the slot unblocks the free.
    spm.clear_inflight("buf", 1)
    spm.free("buf")
    assert "buf" not in spm


def test_free_drops_checksums_with_buffer():
    spm = ScratchPadMemory(CAPACITY)
    spm.alloc("buf", (4,))
    spm.record_checksum("buf", 0, 0xDEAD, 4)
    with pytest.raises(DataIntegrityError):
        spm.verify_checksum("buf", 0, 4)
    spm.free("buf")
    spm.alloc("buf", (4,))
    spm.verify_checksum("buf", 0, 4)  # the record went with the buffer


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    st.sampled_from([np.float64, np.float32]),
    st.integers(min_value=-2, max_value=7),
)
def test_plan_checks_what_the_array_would(shape, dtype, index):
    spm = ScratchPadMemory(CAPACITY * 8, owner="prop")
    spm.alloc("buf", tuple(shape), dtype=dtype)
    try:
        plan = spm.tile("buf", index)
    except HardwareError as exc:
        planned = str(exc)
    else:
        planned = None
    assert not spm._arrays, "checking a slot touched no data"
    try:
        view = spm.slot("buf", index)
    except HardwareError as exc:
        assert planned == str(exc)
    else:
        assert planned is None
        assert (plan.slot_elems, plan.itemsize) == (view.size, view.itemsize)
