"""Host CPU of the simulated hot path: token hops and the scheduler.

Virtual time is the protocol model; what a simulated run costs the host
is set by a handful of operations that run on every token hop.  This
benchmark times them in isolation and end to end:

- **token codec**: encode one ``Token`` frame and decode it back, on a
  4- and an 8-member ring (steady state: the ring section is cached on
  the ``RingId`` and the decode hits the interned ring);
- **scheduler**: one ``schedule`` plus the ``step`` that runs it, on a
  heap already holding background events, for plain events and for
  node timers carrying the incarnation guard;
- **sweep seed**: one seed of the campaign sweep at its pinned scale
  (``tests/test_campaign_sweep.py``), reported as scheduler events per
  host CPU second.

Micro-benchmarks report the best of several repetitions (the least
disturbed by other load on the host).  All figures are host-dependent;
compare them only against runs on the same machine.

Script mode::

    PYTHONPATH=src python benchmarks/bench_hostcpu.py
"""

import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_e12_chaos_oltp as e12
from repro.bench import ResultTable
from repro.runtime.sim import SimRuntime
from repro.simnet import Node, Simulator
from repro.totem.messages import RingId, Token
from repro.wire.codec import decode_one, encode

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"
REPEATS = 3 if _SMOKE else 7
CODEC_LOOPS = 2_000 if _SMOKE else 20_000
SCHEDULER_LOOPS = 5_000 if _SMOKE else 50_000
#: Events already queued while the scheduler loop runs.
BACKGROUND_EVENTS = 256
RING_SIZES = (4, 8)

#: The campaign sweep's pinned scale (tests/test_campaign_sweep.py SCALE)
#: and the seed timed here (one the sweep expects to pass).
SWEEP_SCALE = {
    "RATE": 6,
    "TRAFFIC_DURATION": 2.0,
    "CAMPAIGN_DURATION": 2.0,
    "SETTLE": 4.0,
}
SWEEP_SEED = 0


def _best_us(loops, body):
    """Best-of-REPEATS host CPU microseconds per call of ``body(loops)``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        body(loops)
        best = min(best, time.process_time() - start)
    return best / loops * 1e6


def token_codec_us(members):
    """(encode µs, decode µs) for one token frame on a ring of ``members``."""
    ring = RingId(4, ["s%d" % (index + 1) for index in range(members)])
    token = Token(ring, token_id=1000, seq=500, rotation_min=490,
                  safe_seq=480)
    frame = encode(token, ring=1)
    assert decode_one(frame) == token

    def encodes(loops):
        for _ in range(loops):
            encode(token, ring=1)

    def decodes(loops):
        for _ in range(loops):
            decode_one(frame)

    return _best_us(CODEC_LOOPS, encodes), _best_us(CODEC_LOOPS, decodes)


def scheduler_us(guarded):
    """Host µs for one schedule + step with BACKGROUND_EVENTS queued."""

    def body(loops):
        sim = Simulator()
        sched = sim.scheduler
        node = Node(sim, "n1")
        for index in range(BACKGROUND_EVENTS):
            sched.schedule(1e6 + index, _noop)
        if guarded:
            for _ in range(loops):
                node.timer(0.001, _noop)
                sched.step()
        else:
            for _ in range(loops):
                sched.schedule(0.001, _noop)
                sched.step()

    return _best_us(SCHEDULER_LOOPS, body)


def _noop():
    pass


def sweep_seed_events():
    """(events, host CPU s) for one campaign-sweep seed at its pinned scale."""
    runtimes = []

    class RecordingRuntime(SimRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    saved = {name: getattr(e12, name) for name in SWEEP_SCALE}
    saved_runtime = e12.SimRuntime
    for name, value in SWEEP_SCALE.items():
        setattr(e12, name, value)
    e12.SimRuntime = RecordingRuntime
    try:
        start = time.process_time()
        _campaign, report, _slo = e12.run_sim(seed=SWEEP_SEED)
        elapsed = time.process_time() - start
    finally:
        e12.SimRuntime = saved_runtime
        for name, value in saved.items():
            setattr(e12, name, value)
    assert report.ok, "sweep seed %d violated invariants" % SWEEP_SEED
    return runtimes[0].sim.scheduler.processed, elapsed


def run_experiment():
    codec = {members: token_codec_us(members) for members in RING_SIZES}
    scheduler = {kind: scheduler_us(kind == "node timer")
                 for kind in ("plain event", "node timer")}
    events, host_s = sweep_seed_events()
    return codec, scheduler, (events, host_s)


def build_table(codec, scheduler, sweep):
    table = ResultTable(
        "Host CPU of simulated token hops and the scheduler "
        "(host process CPU, best of %d)" % REPEATS,
        ["measure", "case", "value", "unit"],
    )
    for members in RING_SIZES:
        encode_us, decode_us = codec[members]
        case = "%d-member ring" % members
        table.add_row("token encode", case, encode_us, "us/frame")
        table.add_row("token decode", case, decode_us, "us/frame")
        table.add_row("token encode+decode", case, encode_us + decode_us,
                      "us/hop")
    for kind, cost in scheduler.items():
        table.add_row("schedule+step", "%s, %d queued"
                      % (kind, BACKGROUND_EVENTS), cost, "us/event")
    events, host_s = sweep
    case = "sweep seed %d, pinned scale" % SWEEP_SEED
    table.add_row("scheduler events", case, events, "events")
    table.add_row("host CPU", case, host_s, "s")
    table.add_row("host events/s", case, events / host_s, "1/s")
    table.note("CPython %s on %s, %d CPUs; host figures hold only for "
               "the machine that ran them; the sweep seed's event count "
               "is deterministic, its CPU is not"
               % (platform.python_version(), platform.machine(),
                  os.cpu_count()))
    return table


def test_hostcpu(benchmark):
    codec, scheduler, sweep = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)
    build_table(codec, scheduler, sweep).emit("hostcpu")
    assert sweep[0] > 0


def main():
    codec, scheduler, sweep = run_experiment()
    build_table(codec, scheduler, sweep).emit("hostcpu")
    return 0


if __name__ == "__main__":
    sys.exit(main())
