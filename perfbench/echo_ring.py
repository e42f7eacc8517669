"""echo-ring: the Totem token path on the asyncio runtime.

Three ACTIVE replicas of an echo servant and one client node, all
in-process on one event loop over loopback UDP, with the runtime's
default configuration (``TotemConfig.realtime()``).  The client runs a
closed loop with one outstanding 512-byte ``echo``; a quiet window with
no requests follows, in which only the idle ring costs CPU.

It exercises totem, wire, orb, interception and the runtime, and
bypasses the gateway, reads, membership and state transfer.
"""

import random
import time

from repro.core import EternalSystem
from repro.replication import GroupPolicy, ReplicationStyle
from repro.runtime.aio import AsyncioRuntime
from repro.totem.config import TotemConfig
from repro.workloads import EchoServer
from repro.workloads.generators import RequestRecord

from common import Outcome, Workload, run_episodes
from driver import LoadDriver
from tracing import measure

NAME = "echo-ring"
WHY = ("asyncio, 3 ACTIVE replicas + client in-process over loopback UDP, "
       "closed loop of 512 B echoes then a quiet window: the token path, "
       "its CPU per op and idle CPU")
REPLICAS = ["s1", "s2", "s3"]
CLIENT = "client"
GROUP = "echo"
PAYLOAD_BYTES = 512
POOL = 64
QUIET_SECONDS = 3.0
DRAIN_SECONDS = 12.0     # past the ORB's 10 s request timeout
SLICE_SECONDS = 1.0
ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class Handle:
    def __init__(self, system, stub):
        self.system = system
        self.stub = stub
        self.runtime = system.runtime

    def close(self):
        self.runtime.close()


def build(seed):
    """A ready ring with the echo group; returns (handle, wall seconds)."""
    started = time.perf_counter()
    runtime = AsyncioRuntime(seed=seed)
    try:
        system = EternalSystem(
            REPLICAS + [CLIENT], seed=seed,
            totem_config=TotemConfig.realtime(), runtime=runtime,
        ).start()
        system.stabilize(timeout=15.0)
        ior = system.create_replicated(
            GROUP, EchoServer, REPLICAS,
            GroupPolicy(style=ReplicationStyle.ACTIVE))
        system.run_for(0.5)
        stub = system.stub(CLIENT, ior)
        system.call(stub.echo("w" * PAYLOAD_BYTES), timeout=30.0)
    except BaseException:
        runtime.close()
        raise
    return Handle(system, stub), time.perf_counter() - started


def payloads(seed):
    rng = random.Random(seed)
    return ["".join(rng.choice(ALPHABET) for _ in range(PAYLOAD_BYTES - 8))
            for _ in range(POOL)]


def run(seed, seconds, setups, tracer=None):
    return run_episodes(
        Outcome(), lambda: build(seed), lambda handle, outcome: episode(
            handle, seed, seconds, outcome, tracer), 1, setups)


def episode(handle, seed, seconds, outcome, tracer):
    runtime, stub = handle.runtime, handle.stub
    pool = payloads(seed)
    driver = LoadDriver(runtime)

    def make(index, due):
        payload = "%08d" % index + pool[index % POOL]
        record = RequestRecord("echo", (payload,), due)
        return record, lambda: stub.echo(payload)

    measure(runtime, driver,
            lambda: driver.closed_loop(runtime.now + seconds, make),
            outcome, tracer, seconds, QUIET_SECONDS, DRAIN_SECONDS,
            SLICE_SECONDS)
    wrong = [r for r in driver.records if r.ok and r.result != r.args[0]]
    if wrong:
        outcome.problems.append("%d echo replies differ from their payload"
                                % len(wrong))


WORKLOAD = Workload(NAME, WHY, True, run)
