"""Deterministic runtime over the simnet scheduler and LAN model.

This is a thin adapter: the simulator already provides everything the
:class:`~repro.runtime.base.Endpoint` contract asks for, so the classes
here only translate names and keep the sans-I/O cores ignorant of
:mod:`repro.simnet` internals.  All tier-1 behaviour (event ordering,
virtual timestamps, seeded loss) is unchanged.
"""

from repro.runtime.base import Endpoint, Runtime
from repro.simnet import LinkProfile, Network, Simulator


class SimEndpoint(Endpoint):
    """One simulated node viewed through the runtime contract."""

    __slots__ = ("net", "sim", "node")

    def __init__(self, network, node):
        self.net = network
        self.sim = network.sim
        self.node = node

    # -- identity and lifecycle ----------------------------------------

    @property
    def node_id(self):
        return self.node.node_id

    @property
    def alive(self):
        return self.node.alive

    @property
    def incarnation(self):
        return self.node.incarnation

    def on_crash(self, listener):
        self.node.on_crash(listener)

    def on_recover(self, listener):
        self.node.on_recover(listener)

    def crash(self):
        self.node.crash()

    def recover(self):
        self.node.recover()

    # -- clock, timers, randomness, trace ------------------------------

    @property
    def now(self):
        return self.sim.now

    @property
    def rng(self):
        return self.sim.rng

    def timer(self, delay, callback, label=""):
        # One call into the scheduler; the event carries the node's
        # incarnation guard (see Node.timer).
        return self.sim.scheduler.schedule_guarded(
            self.node, delay, callback, label)

    def emit(self, category, detail=None, size=0):
        self.sim.emit(category, detail, size)

    @property
    def telemetry(self):
        return self.sim.telemetry

    # -- datagram I/O ---------------------------------------------------

    def bind(self, port, handler):
        self.node.bind(port, handler)

    def unbind(self, port):
        self.node.unbind(port)

    def send(self, dst, port, data, size=None):
        return self.net.send(self.node_id, dst, port, data, size=size)

    def broadcast(self, port, data, size=None, include_self=True):
        return self.net.broadcast(
            self.node_id, port, data, size=size, include_self=include_self
        )


def endpoint_of(network_or_endpoint, node=None):
    """Normalize ``(network, node)`` legacy call sites to an endpoint.

    Protocol cores accept either a runtime endpoint (the new composition
    path) or the historic ``(Network, Node)`` pair; in the latter case a
    :class:`SimEndpoint` adapter is built on the spot.
    """
    if node is None:
        return network_or_endpoint
    return SimEndpoint(network_or_endpoint, node)


class SimRuntime(Runtime):
    """Deterministic virtual-time runtime (the tier-1 substrate).

    Wraps a :class:`~repro.simnet.Simulator` and
    :class:`~repro.simnet.Network`, either freshly built from ``seed``
    and ``profile`` or adopted from the caller.  Exposes the sim-only
    fault-injection surface (crash/recover/partition/merge) in addition
    to the portable :class:`~repro.runtime.base.Runtime` contract.
    """

    #: Default retention cap when ``keep_trace_records=True``: enough for
    #: any invariant checker in the repo, while bounding a long chaos
    #: campaign to ~hundreds of MB instead of multi-GB RSS.  Evictions are
    #: oldest-first and counted under ``trace.records.dropped``.
    TRACE_RECORD_LIMIT = 2_000_000

    def __init__(self, seed=0, profile=None, keep_trace_records=False,
                 sim=None, net=None, trace_record_limit=None):
        if trace_record_limit is None and keep_trace_records:
            trace_record_limit = self.TRACE_RECORD_LIMIT
        self.sim = sim if sim is not None else Simulator(
            seed=seed, keep_trace_records=keep_trace_records,
            trace_record_limit=trace_record_limit,
        )
        self.net = net if net is not None else Network(
            self.sim, profile=profile or LinkProfile()
        )
        self._endpoints = {}

    # -- runtime contract ----------------------------------------------

    @property
    def trace(self):
        return self.sim.trace

    @property
    def telemetry(self):
        return self.sim.telemetry

    @property
    def now(self):
        return self.sim.now

    @property
    def rng(self):
        return self.sim.rng

    def add_node(self, node_id):
        endpoint = SimEndpoint(self.net, self.net.add_node(node_id))
        self._endpoints[node_id] = endpoint
        return endpoint

    def endpoint(self, node_id):
        endpoint = self._endpoints.get(node_id)
        if endpoint is None:
            # Adopted networks may hold nodes created before this runtime.
            endpoint = SimEndpoint(self.net, self.net.node(node_id))
            self._endpoints[node_id] = endpoint
        return endpoint

    def node_ids(self):
        return self.net.node_ids()

    def alive(self, node_id):
        return self.net.node(node_id).alive

    def component_of(self, node_id):
        return self.net.component_of(node_id)

    def run_for(self, duration, max_events=10_000_000):
        return self.sim.run_for(duration, max_events)

    def wait_for(self, future, timeout=30.0, step=0.001):
        deadline = self.sim.now + timeout
        while not future.done() and self.sim.now < deadline:
            self.sim.run_for(min(step, deadline - self.sim.now))
        if not future.done():
            raise TimeoutError(
                "future unresolved after %.3fs of virtual time" % timeout)
        return future.result()

    # -- simulation-only fault injection --------------------------------

    def crash(self, node_id):
        self.net.node(node_id).crash()

    def recover(self, node_id):
        self.net.node(node_id).recover()

    def partition(self, components):
        self.net.partition(components)

    def merge(self):
        self.net.merge()
