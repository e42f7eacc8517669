"""Event scheduler: a deterministic priority queue of timed callbacks.

Ties on the virtual timestamp are broken by insertion order, which makes the
whole simulation reproducible: two runs with the same seed execute callbacks
in exactly the same order.

The heap holds ``(time, seq, event)`` tuples.  ``seq`` is unique, so
:mod:`heapq` orders entries by comparing two C-level floats and ints and
never reaches the event object -- no Python-level ``__lt__`` runs per
sift step.
"""

from heapq import heapify, heappop, heappush

from repro.simnet.errors import SchedulerExhaustedError


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    ``owner`` is set on node timers (:meth:`EventScheduler.schedule_guarded`):
    the callback is skipped unless the owner is still alive in the
    ``incarnation`` it had when the timer was armed.  A skipped timer still
    consumes its slot -- it advances the clock and counts as processed --
    so guarded and unguarded schedules step identically.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "owner",
                 "incarnation", "_sched")

    def __init__(self, time, seq, callback, label="", owner=None,
                 incarnation=0):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        self.owner = owner
        self.incarnation = incarnation
        self._sched = None

    def cancel(self):
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        sched = self._sched
        if sched is not None:
            # Lazy compaction: cancelled entries stay in the heap (popping
            # them is O(log n) each) until they are the majority, then one
            # O(n) rebuild drops them all.  Timer-heavy protocols
            # (retransmits, heartbeats) cancel far more events than they
            # run, so without this the heap grows with cancellations
            # rather than with genuinely pending work.
            sched._cancelled += 1
            if (sched._cancelled * 2 > len(sched._heap)
                    and len(sched._heap) >= sched.COMPACT_MIN_SIZE):
                sched._compact()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        label = self.label
        if not label:
            label = ("timer@%s" % self.owner.node_id
                     if self.owner is not None else "<fn>")
        return "ScheduledEvent(t=%.9f, seq=%d, %s, %s)" % (
            self.time, self.seq, label, state,
        )


class EventScheduler:
    """Min-heap of ``(time, seq, event)`` entries with a virtual clock.

    The scheduler owns the clock: ``now`` only advances when events are
    popped, so there is no wall-clock dependence anywhere in the system.
    """

    # Compact only when the heap is at least this large; below it, the
    # cancelled entries cost nothing worth a heapify.
    COMPACT_MIN_SIZE = 64

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._cancelled = 0
        self.now = 0.0
        self.processed = 0
        self.compactions = 0

    def schedule_at(self, time, callback, label=""):
        """Schedule ``callback()`` at absolute virtual ``time``.

        Times in the past are clamped to ``now`` (the event runs next).
        Returns a :class:`ScheduledEvent` handle usable for cancellation.
        """
        if time < self.now:
            time = self.now
        self._seq = seq = self._seq + 1
        event = ScheduledEvent(time, seq, callback, label)
        event._sched = self
        heappush(self._heap, (time, seq, event))
        return event

    def schedule(self, delay, callback, label=""):
        """Schedule ``callback()`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("delay must be >= 0, got %r" % (delay,))
        return self.schedule_at(self.now + delay, callback, label)

    def schedule_guarded(self, owner, delay, callback, label=""):
        """Schedule a timer that only fires while ``owner`` lives on.

        ``owner`` is anything with ``alive`` and ``incarnation`` attributes
        (a :class:`~repro.simnet.node.Node`).  The callback runs only if,
        at its time, the owner is alive and still in the incarnation it
        had now.  Same delay rules and sequence numbering as
        :meth:`schedule`, in a single call.
        """
        if delay < 0:
            raise ValueError("delay must be >= 0, got %r" % (delay,))
        time = self.now + delay
        self._seq = seq = self._seq + 1
        event = ScheduledEvent(time, seq, callback, label, owner,
                               owner.incarnation)
        event._sched = self
        heappush(self._heap, (time, seq, event))
        return event

    def pending(self):
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - self._cancelled

    def _compact(self):
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def step(self):
        """Run the single next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, event = heappop(heap)
            callback = event.callback
            if callback is None:  # cancelled while queued
                self._cancelled -= 1
                continue
            self.now = time
            self.processed += 1
            event.callback = None
            # The event left the heap; a late cancel() must not count it
            # against the heap's cancelled tally.
            event._sched = None
            owner = event.owner
            if (owner is None or (owner.alive
                                  and owner.incarnation == event.incarnation)):
                callback()
            return True
        return False

    def run(self, max_events=10_000_000):
        """Run until the event queue drains.

        ``max_events`` is a safety valve against livelocked protocols (for
        example a fault-detector that re-arms forever); hitting it raises
        :class:`SchedulerExhaustedError` rather than hanging the test suite.
        """
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise SchedulerExhaustedError(
                    "processed %d events without draining the queue" % count
                )
        return count

    def run_until(self, time, max_events=10_000_000):
        """Run events with timestamp <= ``time``; then advance the clock to it.

        Returns the number of events processed.  Periodic protocols (token
        passing, heartbeats) never drain the queue, so simulations are driven
        with ``run_until`` rather than ``run``.
        """
        count = 0
        heap = self._heap
        while heap:
            at, _, event = heap[0]
            callback = event.callback
            if callback is None:  # cancelled while queued
                heappop(heap)
                self._cancelled -= 1
                continue
            if at > time:
                break
            # step(), inlined: this loop runs every event of a simulation.
            heappop(heap)
            self.now = at
            self.processed += 1
            event.callback = None
            event._sched = None
            owner = event.owner
            if (owner is None or (owner.alive
                                  and owner.incarnation == event.incarnation)):
                callback()
            count += 1
            if count >= max_events:
                raise SchedulerExhaustedError(
                    "processed %d events before reaching t=%r" % (count, time)
                )
            heap = self._heap  # a compaction inside the callback rebinds it
        if time > self.now:
            self.now = time
        return count
