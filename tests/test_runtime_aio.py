"""Unit tests for the asyncio runtime's tightened data path.

Datagram framing, timer coalescing, and the optional loop/recv hooks
are all testable without protocol stacks; the buffered-recv path gets a
real end-to-end exercise in the slow socket tests.
"""

import asyncio
import math
import socket

import pytest

from repro.runtime.aio import (
    AsyncioRuntime,
    _frame_datagram,
    _new_event_loop,
    _unframe_datagram,
)


def _sockets_available():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


SOCKETS = _sockets_available()
needs_sockets = pytest.mark.skipif(not SOCKETS,
                                   reason="UDP sockets unavailable")


# ---------------------------------------------------------------- framing

def test_frame_datagram_round_trips_every_payload_type():
    for payload in (b"abc", bytearray(b"abc"), memoryview(b"abc"), b""):
        datagram = _frame_datagram("totem", payload)
        port, body = _unframe_datagram(datagram)
        assert port == "totem" and bytes(body) == bytes(payload)
        assert isinstance(datagram, bytes)


def test_frame_datagram_prefix_matches_manual_encoding():
    name = "orb-reply"
    datagram = _frame_datagram(name, b"xyz")
    expected = bytes([len(name)]) + name.encode("ascii") + b"xyz"
    assert datagram == expected
    # A second call exercises the cached-prefix branch identically.
    assert _frame_datagram(name, b"xyz") == expected


def test_frame_datagram_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _frame_datagram("p" * 256, b"")
    with pytest.raises(TypeError):
        _frame_datagram("totem", "not-bytes")
    with pytest.raises(TypeError):
        _frame_datagram("totem", ("tuple",))


# ------------------------------------------------------------ loop + timers

def test_new_event_loop_falls_back_without_uvloop():
    # uvloop is absent in this environment, so the preference must
    # degrade to a stock asyncio loop rather than raising.
    loop = _new_event_loop(prefer_uvloop=True)
    try:
        assert isinstance(loop, asyncio.AbstractEventLoop)
    finally:
        loop.close()


def test_timer_slack_validation():
    with pytest.raises(ValueError):
        AsyncioRuntime(timer_slack=-0.001)


def test_call_after_coalesces_deadlines_onto_slack_grid():
    slack = 0.010
    runtime = AsyncioRuntime(timer_slack=slack)
    try:
        fired = []
        # Aim both deadlines early inside the next whole grid window, so
        # they share its ceiling even if a few ms pass before call_after
        # reads the clock again (deadlines only drift later).
        now = runtime.loop.time()
        window_start = (math.floor(now / slack) + 1) * slack
        first = runtime.call_after(window_start + 0.1 * slack - now,
                                   lambda: fired.append("a"))
        second = runtime.call_after(window_start + 0.4 * slack - now,
                                    lambda: fired.append("b"))
        # Both deadlines land on the same 10ms grid point: one wakeup.
        assert first.when() == second.when()
        remainder = first.when() % slack
        assert min(remainder, slack - remainder) < 1e-6
        runtime.run_for(0.05)
        assert sorted(fired) == ["a", "b"]
    finally:
        runtime.close()


def test_call_after_without_slack_keeps_exact_deadlines():
    runtime = AsyncioRuntime()
    try:
        fired = []
        runtime.call_after(0.001, lambda: fired.append(1))
        runtime.call_after(-5.0, lambda: fired.append(2))  # clamps to 0
        runtime.run_for(0.05)
        assert sorted(fired) == [1, 2]
    finally:
        runtime.close()


# ------------------------------------------------- buffered recv (sockets)

@needs_sockets
@pytest.mark.slow
def test_buffered_recv_loop_delivers_datagrams_end_to_end():
    runtime = AsyncioRuntime(buffered_recv=True)
    try:
        a = runtime.add_node("a")
        b = runtime.add_node("b")
        received = []
        b.bind("p", lambda src, data, size: received.append(
            (src, bytes(data))))
        assert a.send("b", "p", b"hello")
        deadline = 50
        while not received and deadline:
            runtime.run_for(0.01)
            deadline -= 1
        assert received == [("a", b"hello")]
        # Broadcast reaches both (self included by default).
        a.bind("p", lambda src, data, size: received.append(
            (src, bytes(data))))
        assert set(b.broadcast("p", b"all")) == {"a", "b"}
        deadline = 50
        while len(received) < 3 and deadline:
            runtime.run_for(0.01)
            deadline -= 1
        assert sorted(received[1:]) == [("b", b"all"), ("b", b"all")]
    finally:
        runtime.close()


@needs_sockets
@pytest.mark.slow
def test_buffered_recv_ring_forms_and_orders():
    from repro.totem import TotemCluster
    from repro.totem.config import TotemConfig

    runtime = AsyncioRuntime(buffered_recv=True, timer_slack=0.0005)
    cluster = TotemCluster(
        ["n1", "n2", "n3"], config=TotemConfig.realtime(), runtime=runtime
    ).start()
    try:
        cluster.run_until_stable(timeout=15.0, step=0.02)
        for sender, tag in (("n1", "a"), ("n2", "b"), ("n3", "c")):
            cluster.processors[sender].send(("app", ("g",), tag), size=32)
        runtime.run_for(1.0)
        orders = {
            node: [d.payload[2] for d in deliveries
                   if isinstance(d.payload, tuple) and d.payload[0] == "app"]
            for node, deliveries in cluster.deliveries.items()
        }
        assert sorted(orders["n1"]) == ["a", "b", "c"]
        assert orders["n1"] == orders["n2"] == orders["n3"]
    finally:
        runtime.close()
