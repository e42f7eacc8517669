"""Unit tests for the event scheduler and simulator facade."""

import pytest

from repro.runtime.sim import SimRuntime
from repro.simnet import Node, Simulator
from repro.simnet.errors import SimulationError
from repro.simnet.scheduler import EventScheduler


def test_events_run_in_time_order():
    sched = EventScheduler()
    order = []
    sched.schedule(0.3, lambda: order.append("c"))
    sched.schedule(0.1, lambda: order.append("a"))
    sched.schedule(0.2, lambda: order.append("b"))
    sched.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sched = EventScheduler()
    order = []
    for name in "abcde":
        sched.schedule(1.0, lambda n=name: order.append(n))
    sched.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sched = EventScheduler()
    seen = []
    sched.schedule(2.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [2.5]
    assert sched.now == 2.5


def test_cancelled_events_do_not_run():
    sched = EventScheduler()
    ran = []
    handle = sched.schedule(1.0, lambda: ran.append(1))
    handle.cancel()
    sched.run()
    assert ran == []
    assert sched.pending() == 0


def test_lazy_compaction_drops_cancelled_majority():
    sched = EventScheduler()
    handles = [
        sched.schedule(float(i + 1), lambda: None) for i in range(200)
    ]
    assert sched.compactions == 0
    for handle in handles[:150]:
        handle.cancel()
    # More than half the heap was cancelled: it must have been rebuilt,
    # and cancelled entries can never be the heap majority afterwards.
    assert sched.compactions >= 1
    assert sched.pending() == 50
    assert len(sched._heap) < 200
    assert sched._cancelled * 2 <= len(sched._heap) + 1


def test_compaction_preserves_order_and_survivors():
    sched = EventScheduler()
    ran = []
    keep = []
    for i in range(200):
        handle = sched.schedule(float(i + 1), lambda i=i: ran.append(i))
        if i % 4 == 0:
            keep.append(i)
        else:
            handle.cancel()
    assert sched.compactions >= 1
    sched.run()
    assert ran == keep


def test_small_heaps_are_not_compacted():
    sched = EventScheduler()
    handles = [sched.schedule(float(i + 1), lambda: None) for i in range(10)]
    for handle in handles:
        handle.cancel()
    assert sched.compactions == 0
    assert sched.pending() == 0
    sched.run()


def test_cancel_is_idempotent_for_accounting():
    sched = EventScheduler()
    keep = sched.schedule(1.0, lambda: None)
    handle = sched.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sched.pending() == 1
    sched.run()
    assert sched.pending() == 0
    keep.cancel()  # cancelling an already-run event must not underflow
    assert sched.pending() == 0


def test_negative_delay_rejected():
    sched = EventScheduler()
    with pytest.raises(ValueError):
        sched.schedule(-1.0, lambda: None)


def test_schedule_in_past_clamped_to_now():
    sched = EventScheduler()
    times = []
    sched.schedule(1.0, lambda: sched.schedule_at(0.0, lambda: times.append(sched.now)))
    sched.run()
    assert times == [1.0]


def test_run_until_stops_at_boundary_and_advances_clock():
    sched = EventScheduler()
    ran = []
    sched.schedule(1.0, lambda: ran.append(1))
    sched.schedule(2.0, lambda: ran.append(2))
    sched.schedule(3.0, lambda: ran.append(3))
    count = sched.run_until(2.0)
    assert count == 2
    assert ran == [1, 2]
    assert sched.now == 2.0
    sched.run()
    assert ran == [1, 2, 3]


def test_events_scheduled_during_run_execute():
    sched = EventScheduler()
    order = []

    def first():
        order.append("first")
        sched.schedule(0.5, lambda: order.append("nested"))

    sched.schedule(1.0, first)
    sched.schedule(2.0, lambda: order.append("second"))
    sched.run()
    assert order == ["first", "nested", "second"]


def test_run_exhaustion_raises():
    sched = EventScheduler()

    def rearm():
        sched.schedule(0.001, rearm)

    sched.schedule(0.0, rearm)
    with pytest.raises(SimulationError):
        sched.run(max_events=100)


def test_simulator_run_for():
    sim = Simulator(seed=1)
    ticks = []
    sim.schedule(0.5, lambda: ticks.append(sim.now))
    sim.schedule(1.5, lambda: ticks.append(sim.now))
    sim.run_for(1.0)
    assert ticks == [0.5]
    assert sim.now == 1.0
    sim.run_for(1.0)
    assert ticks == [0.5, 1.5]


def test_rng_streams_independent_and_deterministic():
    sim_a = Simulator(seed=42)
    sim_b = Simulator(seed=42)
    seq_a = [sim_a.rng.uniform("x", 0, 1) for _ in range(5)]
    # Interleave a draw on another stream in sim_b: "x" must be unaffected.
    seq_b = []
    for _ in range(5):
        sim_b.rng.uniform("y", 0, 1)
        seq_b.append(sim_b.rng.uniform("x", 0, 1))
    assert seq_a == seq_b


def test_rng_chance_extremes():
    sim = Simulator(seed=7)
    assert sim.rng.chance("c", 0.0) is False
    assert sim.rng.chance("c", 1.0) is True


def test_trace_counters():
    sim = Simulator(seed=0)
    sim.emit("cat", {"k": 1}, size=10)
    sim.emit("cat", {"k": 2}, size=5)
    assert sim.trace.count("cat") == 2
    assert sim.trace.bytes("cat") == 15
    before = sim.trace.snapshot()
    sim.emit("cat")
    assert sim.trace.count("cat") - before["cat"] == 1


def test_trace_records_kept_when_enabled():
    sim = Simulator(seed=0, keep_trace_records=True)
    sim.emit("a", {"v": 1})
    sim.emit("b", {"v": 2})
    assert len(sim.trace.matching("a")) == 1
    assert sim.trace.matching("b")[0].detail == {"v": 2}


# ----------------------------------------------------------------------
# Tuple-keyed heap: ordering, accounting and node-timer guards
# ----------------------------------------------------------------------

def test_equal_times_keep_insertion_order_across_cancel_and_compaction():
    sched = EventScheduler()
    ran = []
    handles = [sched.schedule_at(1.0, lambda i=i: ran.append(i))
               for i in range(200)]
    keep = [i for i in range(200) if i % 3 == 0]
    for i, handle in enumerate(handles):
        if i % 3:
            handle.cancel()
    assert sched.compactions >= 1
    # Entries are plain (time, seq, event) tuples after the rebuild too.
    assert all(type(entry) is tuple and entry[2].seq == entry[1]
               for entry in sched._heap)
    late = [sched.schedule_at(1.0, lambda i=i: ran.append(i))
            for i in range(200, 205)]
    late[1].cancel()
    sched.run()
    assert ran == keep + [200, 202, 203, 204]


def test_guarded_and_plain_events_share_one_tie_break_sequence():
    sim = Simulator(seed=0)
    node = Node(sim, "n1")
    order = []
    sim.schedule(0.5, lambda: order.append("plain-1"))
    node.timer(0.5, lambda: order.append("timer-1"))
    sim.schedule_at(0.5, lambda: order.append("plain-2"))
    node.timer(0.5, lambda: order.append("timer-2"))
    sim.run()
    assert order == ["plain-1", "timer-1", "plain-2", "timer-2"]


def test_pending_processed_and_compactions_keep_their_meaning():
    sched = EventScheduler()
    handles = [sched.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert (sched.pending(), sched.processed, sched.compactions) == (100, 0, 0)
    for handle in handles[:50]:
        handle.cancel()
    # Cancelled entries are still in the heap but no longer pending.
    assert sched.pending() == 50
    assert len(sched._heap) == 100
    assert sched.compactions == 0
    handles[50].cancel()
    # 51 of 100 cancelled, a majority: one rebuild dropped them all.
    assert sched.compactions == 1
    assert len(sched._heap) == sched.pending() == 49
    assert sched.run_until(60.0) == 9
    assert (sched.pending(), sched.processed) == (40, 9)
    assert sched.step() is True
    assert (sched.pending(), sched.processed) == (39, 10)
    assert sched.run() == 39
    assert (sched.pending(), sched.processed, sched.compactions) == (0, 49, 1)
    assert sched.step() is False


def test_timers_of_a_crashed_or_restarted_node_never_fire():
    sim = Simulator(seed=0)
    node = Node(sim, "n1")
    fired = []
    node.timer(1.0, lambda: fired.append("crashed"))
    node.timer(3.0, lambda: fired.append("restarted"))
    sim.schedule(0.5, node.crash)
    sim.schedule(2.0, node.recover)
    sim.schedule(2.5, lambda: node.timer(1.0, lambda: fired.append("new")))
    sim.run()
    assert fired == ["new"]
    # A skipped timer still consumed its slot: clock and count advance.
    assert sim.now == 3.5
    assert sim.scheduler.processed == 6


def test_endpoint_timers_carry_the_incarnation_guard():
    runtime = SimRuntime(seed=0)
    endpoint = runtime.add_node("n1")
    fired = []
    endpoint.timer(1.0, lambda: fired.append("before-crash"))
    handle = endpoint.timer(1.0, lambda: fired.append("cancelled"))
    handle.cancel()
    runtime.sim.schedule(0.2, lambda: (endpoint.crash(), endpoint.recover()))
    runtime.sim.schedule(0.4, lambda: endpoint.timer(
        0.6, lambda: fired.append("after-recover")))
    runtime.run_for(2.0)
    assert fired == ["after-recover"]
    with pytest.raises(ValueError):
        endpoint.timer(-0.1, lambda: None)
