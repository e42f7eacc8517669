"""Simulated processor (node) hosting protocol endpoints.

A node models one processor of the paper's testbed.  Protocol layers attach
to named ports (e.g. ``"totem"`` for the group-communication daemon,
``"tcp:<n>"`` for point-to-point ORB connections).  Crashing a node drops all
in-flight deliveries to it and bumps its incarnation number, which lets
long-lived timers detect that they belong to a dead incarnation.
"""

from repro.simnet.errors import NodeDownError


class Node:
    """One simulated processor identified by a string id."""

    def __init__(self, sim, node_id):
        self.sim = sim
        self.node_id = node_id
        self.alive = True
        self.incarnation = 0
        self._ports = {}
        self._crash_listeners = []
        self._recover_listeners = []

    def bind(self, port, handler):
        """Attach ``handler(src_id, payload, size)`` to a named port.

        Rebinding a port replaces the previous handler; layers that restart
        after recovery rebind their ports.
        """
        self._ports[port] = handler

    def unbind(self, port):
        """Detach the handler for ``port`` if present."""
        self._ports.pop(port, None)

    def deliver(self, src_id, port, payload, size):
        """Deliver a message to the handler bound at ``port``.

        Messages to crashed nodes or unbound ports vanish silently, matching
        UDP/TCP-RST semantics on a real network.
        """
        if not self.alive:
            return
        handler = self._ports.get(port)
        if handler is None:
            self.sim.emit("node.drop.unbound", {"node": self.node_id, "port": port})
            return
        handler(src_id, payload, size)

    def on_crash(self, listener):
        """Register ``listener(node)`` to run when this node crashes."""
        self._crash_listeners.append(listener)

    def on_recover(self, listener):
        """Register ``listener(node)`` to run when this node recovers."""
        self._recover_listeners.append(listener)

    def crash(self):
        """Crash the node: stop deliveries, notify layers (idempotent)."""
        if not self.alive:
            return
        self.alive = False
        self.sim.emit("node.crash", {"node": self.node_id})
        for listener in list(self._crash_listeners):
            listener(self)

    def recover(self):
        """Recover the node with a fresh incarnation (idempotent)."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        self.sim.emit("node.recover", {"node": self.node_id})
        for listener in list(self._recover_listeners):
            listener(self)

    def require_alive(self):
        """Raise :class:`NodeDownError` unless the node is up."""
        if not self.alive:
            raise NodeDownError(self.node_id)

    def timer(self, delay, callback, label=""):
        """Schedule a callback that is skipped if the node crashed or restarted.

        The callback only fires if the node is alive *and* still in the same
        incarnation as when the timer was armed.
        """
        return self.sim.scheduler.schedule_guarded(self, delay, callback, label)

    def __repr__(self):
        state = "up" if self.alive else "down"
        return "Node(%s, %s, inc=%d)" % (self.node_id, state, self.incarnation)
