"""Property tests: the CXL.mem line-span datapath ≡ the per-line walk.

``Type3Device.write_lines`` / ``read_lines`` move whole spans per call
(bulk media writes, run-coalesced write-buffer eviction, an overlay of
buffered lines).  Their contract is that they leave the device exactly
as a per-line ``process_rwd`` / ``process_req`` walk would:

* write-buffer items *in insertion order* (the order decides which lines
  a partial-holdup power failure carries to media);
* media bytes, ``stats``, the poison and quarantine sets;
* what a non-battery ``power_fail()`` leaves behind.

A batched read over poisoned lines fails wholesale: it scrubs every
poisoned line in the span, services none and counts none, so its
reference is one ``scrub_line`` per poisoned line.

At the port level, ``CxlMemPort.write_lines`` / ``read_lines`` must keep
``PortStats`` (flits, wire bytes, counts) identical to the
``write_line`` / ``read_line`` loop.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest
from hypothesis import event, given, settings, strategies as st

from repro import units
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.host import CxlMemPort
from repro.cxl.link import CxlLink
from repro.cxl.spec import (
    CACHELINE_BYTES,
    CxlVersion,
    M2SReqOpcode,
    M2SRwDOpcode,
)
from repro.cxl.transaction import M2SReq, M2SRwD
from repro.errors import CxlPoisonError
from repro.machine.dram import DDR4_1333

K = Type3Device.WRITE_BUFFER_LINES
#: lines the spans land in: six write buffers' worth, so random spans both
#: hit and miss the buffered addresses
REGION_LINES = 6 * K
REGION_BYTES = REGION_LINES * CACHELINE_BYTES
#: a dense window over part of the region (namespaces map media densely)
DENSE = (K * CACHELINE_BYTES, 2 * K * CACHELINE_BYTES)


def _device(battery_backed: bool, dense: bool) -> Type3Device:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(1), 0.6, 130.0)
    dev = Type3Device("dut", media, battery_backed=battery_backed,
                      gpf_supported=True)
    if dense:
        dev.memory.map_dense(*DENSE)
    return dev


def _state(dev: Type3Device):
    return (
        list(dev._write_buffer.items()),
        dev.memory.read(0, REGION_BYTES),
        dict(dev.stats),
        set(dev._poison),
        set(dev._quarantined),
    )


def _payload(seed: int, nlines: int) -> bytes:
    return random.Random(seed).randbytes(nlines * CACHELINE_BYTES)


# -- the per-line reference walk -------------------------------------------

def _walk_write(dev: Type3Device, dpa: int, data: bytes) -> None:
    for off in range(0, len(data), CACHELINE_BYTES):
        dev.process_rwd(M2SRwD(M2SRwDOpcode.MEM_WR, dpa + off, 0,
                               data[off:off + CACHELINE_BYTES]))


def _walk_read(dev: Type3Device, dpa: int, count: int) -> bytes:
    end = dpa + count * CACHELINE_BYTES
    hit = sorted(a for a in dev._poison if dpa <= a < end)
    if hit:
        for addr in hit:
            dev.scrub_line(addr)
        raise CxlPoisonError("poisoned span", dpas=tuple(hit))
    return b"".join(
        dev.process_req(M2SReq(M2SReqOpcode.MEM_RD, a, 0)).data
        for a in range(dpa, end, CACHELINE_BYTES))


# -- strategies -------------------------------------------------------------

_span_lines = st.one_of(
    st.integers(1, 48),                       # kvserve-sized spans
    st.sampled_from([K - 1, K, K + 1]),       # around the buffer size
    st.integers(1, 2 * K + 64),               # up to past two buffers
)


@st.composite
def _span(draw):
    n = draw(_span_lines)
    # half the spans start near line 0, so successive ones overlap
    start = draw(st.one_of(st.integers(0, REGION_LINES - n),
                           st.integers(0, min(64, REGION_LINES - n))))
    return start * CACHELINE_BYTES, n


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _span(), st.integers(0, 2**32)),
        st.tuples(st.just("read"), _span()),
        st.tuples(st.just("poison"),
                  st.integers(0, REGION_LINES - 1).map(
                      lambda line: line * CACHELINE_BYTES)),
        st.tuples(st.just("flush")),
    ),
    min_size=1, max_size=14,
)


# -- device level -----------------------------------------------------------

@given(ops=_ops, dense=st.booleans(),
       holdup=st.sampled_from([None, 0.0, 0.3, 0.75, 1.0]))
@settings(max_examples=120, deadline=None)
def test_device_spans_match_per_line_walk(ops, dense, holdup):
    span_dev = _device(battery_backed=False, dense=dense)
    walk_dev = _device(battery_backed=False, dense=dense)
    for op in ops:
        kind = op[0]
        if kind == "write":
            (dpa, n), seed = op[1], op[2]
            data = _payload(seed, n)
            buffered = span_dev._write_buffer.keys()
            event("write overlaps buffer" if not buffered.isdisjoint(
                range(dpa, dpa + n * CACHELINE_BYTES, CACHELINE_BYTES))
                else "write misses buffer")
            event(f"write span {'<' if n < K else '==' if n == K else '>'}"
                  " buffer")
            span_dev.write_lines(dpa, data)
            _walk_write(walk_dev, dpa, data)
        elif kind == "read":
            dpa, n = op[1]
            try:
                got = span_dev.read_lines(dpa, n)
            except CxlPoisonError as exc:
                event("read hits poison")
                with pytest.raises(CxlPoisonError) as ref:
                    _walk_read(walk_dev, dpa, n)
                assert exc.dpas == ref.value.dpas
            else:
                assert got == _walk_read(walk_dev, dpa, n)
        elif kind == "poison":
            span_dev.inject_poison(op[1])
            walk_dev.inject_poison(op[1])
        else:
            assert span_dev.flush() == walk_dev.flush()
        assert _state(span_dev) == _state(walk_dev)

    # what the buffer order means: a power failure without battery
    # (and no hold-up energy for GPF) keeps only what reached media, a
    # partial hold-up drains the oldest lines first
    if holdup is None:
        lost = (span_dev.power_fail(gpf_energy_ok=False),
                walk_dev.power_fail(gpf_energy_ok=False))
    else:
        lost = (span_dev.power_fail(holdup_fraction=holdup),
                walk_dev.power_fail(holdup_fraction=holdup))
    assert lost[0] == lost[1]
    assert span_dev.shutdown_state is walk_dev.shutdown_state
    assert _state(span_dev) == _state(walk_dev)


@given(n=_span_lines, seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_span_read_sees_its_own_write(n, seed):
    dev = _device(battery_backed=True, dense=False)
    data = _payload(seed, n)
    dev.write_lines(3 * CACHELINE_BYTES, data)
    assert dev.read_lines(3 * CACHELINE_BYTES, n) == data
    assert dev.dirty_lines == min(n, K)


# -- port level -------------------------------------------------------------

def _port(credits: int) -> CxlMemPort:
    link = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
    return CxlMemPort(link, _device(battery_backed=True, dense=False),
                      req_credits=credits, rwd_credits=credits)


_port_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _span(), st.integers(0, 2**32)),
        st.tuples(st.just("read"), _span()),
    ),
    min_size=1, max_size=8,
)


@given(ops=_port_ops, credits=st.sampled_from([8, 32, 64]))
@settings(max_examples=60, deadline=None)
def test_port_spans_match_per_line_walk(ops, credits):
    span_port = _port(credits)
    walk_port = _port(credits)
    for op in ops:
        dpa, n = op[1]
        if op[0] == "write":
            data = _payload(op[2], n)
            span_port.write_lines(dpa, data)
            for off in range(0, len(data), CACHELINE_BYTES):
                walk_port.write_line(dpa + off,
                                     data[off:off + CACHELINE_BYTES])
        else:
            got = span_port.read_lines(dpa, n)
            assert got == b"".join(
                walk_port.read_line(a) for a in range(
                    dpa, dpa + n * CACHELINE_BYTES, CACHELINE_BYTES))
        assert asdict(span_port.stats) == asdict(walk_port.stats)
    span_port.flush_flits()
    walk_port.flush_flits()
    assert asdict(span_port.stats) == asdict(walk_port.stats)
    assert _state(span_port.device) == _state(walk_port.device)
