"""The benchmark's own load generator, on either runtime.

Every request has a *due* time: in an open loop the Poisson schedule
fixes it in advance; in a closed loop it is the instant the previous
reply resolved.  Latency runs from the due time to the moment the
reply's future resolves -- taken inside the future's done-callback, so
neither a stalled generator nor the caller's polling step can hide
time.  How late the generator actually issued each request is kept
separately (``lateness``).

A request that fails or times out still resolves its future (the ORB
arms a request timeout on every invocation), so it is recorded with the
time the client gave up and counted by :meth:`LoadDriver.failed`; it
never aborts the run.
"""

from repro.orb.exceptions import ApplicationError

#: Runtime seconds per step while draining outstanding requests.
DRAIN_STEP = 0.05


class LoadDriver:
    """Issues requests on the runtime's own timers and records outcomes."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.records = []
        self.lateness = []
        self.outstanding = 0
        sim = getattr(runtime, "sim", None)
        if sim is not None:
            self._call_at = lambda when, cb: sim.schedule_at(
                max(when, sim.now), cb, "perfbench.arrival")
        else:
            loop = runtime.loop
            self._call_at = loop.call_at

    # -- issuing ---------------------------------------------------------

    def _issue(self, record, invoke, on_done=None):
        self.lateness.append(self.runtime.now - record.send_time)
        self.records.append(record)
        self.outstanding += 1
        future = invoke()

        def done(fut):
            record.complete_time = self.runtime.now
            record.error = fut.exception()
            if record.error is None:
                record.result = fut.result()
            self.outstanding -= 1
            if on_done is not None:
                on_done(record)

        future.add_done_callback(done)

    def open_loop(self, offsets, make):
        """Issue ``make(index, due)`` at each offset from now.

        ``make`` returns ``(record, invoke)``: the record (whose
        ``send_time`` must be ``due``) and a zero-argument callable that
        sends the request and returns its future.
        """
        start = self.runtime.now
        for index, offset in enumerate(offsets):
            due = start + offset
            self._call_at(due, lambda i=index, d=due: self._issue(*make(i, d)))

    def closed_loop(self, until, make):
        """One outstanding request, the next due when the last resolves."""
        counter = [0]

        def fire(due):
            if self.runtime.now >= until:
                return
            index = counter[0]
            counter[0] += 1
            record, invoke = make(index, due)
            self._issue(record, invoke, on_done=lambda r: self._call_at(
                r.complete_time, lambda: fire(r.complete_time)))

        now = self.runtime.now
        self._call_at(now, lambda: fire(now))

    # -- draining and accounting -----------------------------------------

    def drain(self, limit):
        """Drive the runtime until nothing is outstanding (or ``limit``)."""
        deadline = self.runtime.now + limit
        while self.outstanding and self.runtime.now < deadline:
            self.runtime.run_for(DRAIN_STEP)

    def latencies(self):
        """Seconds from due to resolution, failures included."""
        return [r.latency for r in self.records if r.latency is not None]

    def failed(self):
        """Requests that got no answer: timed out, or failed below the
        application (an application exception is an answer)."""
        return [r for r in self.records
                if r.complete_time is None
                or (r.error is not None
                    and not isinstance(r.error, ApplicationError))]

