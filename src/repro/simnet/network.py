"""LAN model: unicast and broadcast delivery with partitions and loss.

The network models a single broadcast domain (the paper's testbed LAN plus
Totem's use of UDP multicast): any node can unicast to any other and can
broadcast to every other node in one send.  Partitions split the domain into
components; messages never cross component boundaries while a partition is in
force, and delivery resumes (for *new* messages -- in-flight ones were lost)
when components remerge.
"""

from repro.simnet.errors import UnknownNodeError
from repro.simnet.link import LinkProfile
from repro.simnet.node import Node


def _wire_size(payload, size):
    """Resolve a send's simulated size: explicit wins, else real length."""
    if size is not None:
        return size
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    return 0


class Network:
    """A broadcast domain of :class:`Node` objects with a shared link profile."""

    def __init__(self, sim, profile=None):
        self.sim = sim
        self.profile = profile if profile is not None else LinkProfile()
        self.nodes = {}
        # Maps node_id -> component index.  All nodes share component 0
        # until partition() is called.
        self._component = {}
        # Per-sender time at which the NIC is free; models serialization.
        self._nic_free_at = {}
        # FIFO clamp per (src, dst): UDP on one LAN essentially never
        # reorders within a flow, and Totem's retransmission logic is
        # exercised through loss, not reordering.
        self._last_delivery = {}
        # Chaos overlay: transient degradation on top of the base link
        # profile.  Campaigns (repro.chaos) flip these at scheduled times;
        # the base profile stays untouched so clearing an overlay restores
        # the exact pre-fault behaviour.
        self.extra_loss = 0.0
        self.extra_latency = 0.0
        self._node_delay = {}

    # ------------------------------------------------------------------
    # Chaos overlay (loss bursts, latency spikes, slow nodes)
    # ------------------------------------------------------------------

    def set_extra_loss(self, rate):
        """Add ``rate`` to the per-message drop probability (0 clears)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("extra loss must be in [0, 1], got %r" % (rate,))
        self.extra_loss = rate
        self.sim.emit("chaos.net.loss", {"rate": rate})

    def set_extra_latency(self, extra):
        """Add ``extra`` seconds to every inter-node delivery (0 clears)."""
        if extra < 0:
            raise ValueError("extra latency must be >= 0, got %r" % (extra,))
        self.extra_latency = extra
        self.sim.emit("chaos.net.latency", {"extra": extra})

    def set_node_delay(self, node_id, delay):
        """Delay every delivery to or from ``node_id`` (a slow processor).

        ``delay=0`` clears the slow-node condition.  Raises
        :class:`UnknownNodeError` for unregistered nodes.
        """
        self.node(node_id)  # validates
        if delay < 0:
            raise ValueError("node delay must be >= 0, got %r" % (delay,))
        if delay:
            self._node_delay[node_id] = delay
        else:
            self._node_delay.pop(node_id, None)
        self.sim.emit("chaos.net.slow", {"node": node_id, "delay": delay})

    def node_delay(self, node_id):
        """The slow-node delay currently imposed on ``node_id`` (seconds)."""
        return self._node_delay.get(node_id, 0.0)

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    def add_node(self, node_id):
        """Create and register a node; ids must be unique."""
        if node_id in self.nodes:
            raise ValueError("duplicate node id: %r" % (node_id,))
        node = Node(self.sim, node_id)
        self.nodes[node_id] = node
        self._component[node_id] = 0
        self._nic_free_at[node_id] = 0.0
        return node

    def node(self, node_id):
        """Look up a node by id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def node_ids(self):
        """All node ids in insertion order."""
        return list(self.nodes)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def partition(self, components):
        """Split the network into the given components.

        ``components`` is an iterable of iterables of node ids.  Every node
        must appear in exactly one component.  Nodes in different components
        cannot exchange messages until :meth:`merge` restores a single
        component.
        """
        assignment = {}
        for index, component in enumerate(components):
            for node_id in component:
                if node_id not in self.nodes:
                    raise UnknownNodeError(node_id)
                if node_id in assignment:
                    raise ValueError(
                        "node %r appears in more than one component" % (node_id,)
                    )
                assignment[node_id] = index
        missing = set(self.nodes) - set(assignment)
        if missing:
            raise ValueError("nodes missing from partition: %s" % sorted(missing))
        self._component = assignment
        self.sim.emit("net.partition", {"components": [sorted(c) for c in components]})

    def merge(self):
        """Restore a single network component."""
        self._component = {node_id: 0 for node_id in self.nodes}
        self.sim.emit("net.merge", {})

    def reachable(self, src_id, dst_id):
        """True when a message sent now from src would arrive at dst."""
        src = self.node(src_id)
        dst = self.node(dst_id)
        if not (src.alive and dst.alive):
            return False
        return self._component[src_id] == self._component[dst_id]

    def component_of(self, node_id):
        """Sorted list of node ids sharing a component with ``node_id``."""
        index = self._component[self.node(node_id).node_id]
        return sorted(
            other for other, comp in self._component.items() if comp == index
        )

    # ------------------------------------------------------------------
    # Message transmission
    # ------------------------------------------------------------------

    def send(self, src_id, dst_id, port, payload, size=None):
        """Unicast ``payload`` from src to dst, delivered to ``port``.

        ``size`` is the simulated on-wire byte count; when omitted it
        defaults to the payload's real length for bytes-like payloads
        (the framed-traffic common case) and 0 otherwise.

        Returns True if the message was put on the wire (it may still be
        lost); False if the source is down.  Messages to unreachable or
        crashed destinations are silently dropped at delivery time -- the
        sender cannot tell, just as with UDP.
        """
        src = self.node(src_id)
        self.node(dst_id)
        if not src.alive:
            return False
        size = _wire_size(payload, size)
        depart = self._transmit_time(src_id, size)
        self.sim.emit("net.send", {"src": src_id, "dst": dst_id, "port": port}, size)
        self._deliver_later(src_id, dst_id, port, payload, size, depart)
        return True

    def broadcast(self, src_id, port, payload, size=None, include_self=True):
        """Broadcast ``payload`` to every node (one serialization on the NIC).

        Totem sends its regular messages by hardware multicast, so a
        broadcast costs one serialization delay regardless of fanout.
        ``size`` defaults as in :meth:`send`.
        Returns the list of destination ids the message departed toward.
        """
        src = self.node(src_id)
        if not src.alive:
            return []
        size = _wire_size(payload, size)
        depart = self._transmit_time(src_id, size)
        self.sim.emit("net.broadcast", {"src": src_id, "port": port}, size)
        destinations = []
        for dst_id in self.nodes:
            if dst_id == src_id and not include_self:
                continue
            destinations.append(dst_id)
            self._deliver_later(src_id, dst_id, port, payload, size, depart)
        return destinations

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _transmit_time(self, src_id, size):
        """Earliest time the message clears the sender's NIC."""
        serialization = self.profile.serialization_delay(size)
        free_at = max(self._nic_free_at[src_id], self.sim.now)
        depart = free_at + serialization
        self._nic_free_at[src_id] = depart
        return depart

    def _deliver_later(self, src_id, dst_id, port, payload, size, depart):
        if src_id != dst_id:
            if not self.reachable(src_id, dst_id):
                self.sim.emit("net.drop.unreachable", {"src": src_id, "dst": dst_id})
                return
            loss = min(1.0, self.profile.loss + self.extra_loss)
            if loss and self.sim.rng.chance("net.loss", loss):
                self.sim.emit("net.drop.loss", {"src": src_id, "dst": dst_id})
                return
        latency = 0.0 if src_id == dst_id else self.profile.latency
        if self.profile.jitter and src_id != dst_id:
            latency += self.sim.rng.uniform("net.jitter", 0.0, self.profile.jitter)
        if src_id != dst_id:
            latency += self.extra_latency
            if self._node_delay:
                latency += self.node_delay(src_id) + self.node_delay(dst_id)
        arrival = depart + latency
        # Clamp to FIFO order per (src, dst) flow.
        key = (src_id, dst_id)
        arrival = max(arrival, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = arrival

        def deliver():
            # Re-check reachability at arrival: a partition or crash that
            # happened while the message was in flight loses the message.
            if src_id != dst_id and not self.reachable(src_id, dst_id):
                self.sim.emit("net.drop.inflight", {"src": src_id, "dst": dst_id})
                return
            self.sim.emit("net.deliver", {"src": src_id, "dst": dst_id, "port": port}, size)
            self.nodes[dst_id].deliver(src_id, port, payload, size)

        self.sim.scheduler.schedule_at(
            arrival, deliver, "deliver:%s->%s" % (src_id, dst_id))
