"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public layer entry points while it is
installed, and records nothing once removed:

- handlers registered through ``Endpoint.bind`` -- thread CPU per port;
- callbacks armed through ``Endpoint.timer`` -- thread CPU per layer,
  the layer being the ``repro`` subpackage that defined the callback;
- ``Endpoint.send`` / ``Endpoint.broadcast`` -- datagrams, bytes and the
  largest frame per port, plus Totem token frames;
- every module-level alias of the wire codec's and the ORB's
  encode/decode functions -- calls and time per group;
- a gateway's ``poa.default_handler`` -- how long it held a request.

Counts the program keeps itself (``trace.counters``, the scheduler's
``processed``, telemetry spans and histograms) are read through their
public attributes by :func:`layer_metrics`.

Install before the system under test is built: handlers and timers are
wrapped when they are registered.
"""

import sys
import time
from collections import Counter

from repro.orb import cdr, giop
from repro.runtime.aio import AsyncioEndpoint
from repro.runtime.sim import SimEndpoint
from repro.telemetry import LAYER_INTERVALS
from repro.telemetry.metrics import CounterMetric
from repro.wire import codec, framing
from repro.wire.codec import KIND_TOTEM_TOKEN

from common import (cpu_now, mean, median, ms, percentile, ratio,
                    reference_seconds, scaled)

#: Function groups timed as one unit; nested calls within a group count once.
CODEC_GROUPS = {
    "wire.encode": (codec.encode, codec.encode_body, framing.encode_frame,
                    framing.encode_batch),
    "wire.decode": (codec.decode_payload, codec.decode_one,
                    framing.decode_frame),
    "orb.marshal": (giop.encode_message, giop.decode_message,
                    cdr.encode_value, cdr.decode_value),
}

_FRAME_KIND_OFFSET = 3   # magic(2) version(1) kind(1) ...
#: Runtime seconds per slice of a quiet window.
QUIET_SLICE_SECONDS = 0.25
#: Seconds by which a span's layer intervals may miss its duration.
TILE_TOLERANCE = 1e-9


def _layer_of(callback):
    module = getattr(callback, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return module or "other"


class Tracer:
    def __init__(self):
        self._active = set()
        self._undo = []
        self.port_cpu = Counter()       # port -> thread CPU seconds
        self.timer_cpu = Counter()      # layer -> thread CPU seconds
        self.datagrams = Counter()      # port -> datagrams sent
        self.bytes = Counter()          # port -> payload bytes sent
        self.max_frame = Counter()      # port -> largest payload sent
        self.token_frames = 0
        self.codec_calls = Counter()    # group -> outermost calls
        self.codec_time = Counter()     # group -> seconds
        self.gateway_hold = []          # seconds per forwarded request

    def reset(self):
        """Zero every accumulator (the start of a measured window).

        Clears in place: wrapped handlers hold the accumulators.
        """
        for accumulator in (self.port_cpu, self.timer_cpu, self.datagrams,
                            self.bytes, self.max_frame, self.codec_calls,
                            self.codec_time, self.gateway_hold):
            accumulator.clear()
        self.token_frames = 0

    # -- install / remove ------------------------------------------------

    def install(self):
        for cls in (AsyncioEndpoint, SimEndpoint):
            self._patch_endpoint(cls)
        for group, functions in CODEC_GROUPS.items():
            for function in functions:
                self._patch_function(group, function)
        return self

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_endpoint(self, cls):
        tracer = self
        bind, timer = cls.bind, cls.timer
        send, broadcast = cls.send, cls.broadcast

        def traced_bind(ep, port, handler):
            return bind(ep, port, tracer._timed(tracer.port_cpu, port, handler))

        def traced_timer(ep, delay, callback, label=""):
            wrapped = tracer._timed(tracer.timer_cpu, _layer_of(callback),
                                    callback)
            return timer(ep, delay, wrapped, label)

        def traced_send(ep, dst, port, data, size=None):
            sent = send(ep, dst, port, data, size)
            if sent:
                tracer._count(port, data, 1)
            return sent

        def traced_broadcast(ep, port, data, size=None, include_self=True):
            destinations = broadcast(ep, port, data, size, include_self)
            if destinations:
                tracer._count(port, data, len(destinations))
            return destinations

        self._set(cls, "bind", traced_bind)
        self._set(cls, "timer", traced_timer)
        self._set(cls, "send", traced_send)
        self._set(cls, "broadcast", traced_broadcast)

    def _patch_function(self, group, function):
        tracer = self
        perf = time.perf_counter

        def timed(*args, **kwargs):
            if group in tracer._active:
                return function(*args, **kwargs)
            tracer._active.add(group)
            start = perf()
            try:
                return function(*args, **kwargs)
            finally:
                tracer.codec_time[group] += perf() - start
                tracer.codec_calls[group] += 1
                tracer._active.discard(group)

        # Rebind every module-level alias (``from x import f`` copies).
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._set(module, name, timed)

    # -- recording -------------------------------------------------------

    def _timed(self, sink, key, callback):
        clock = time.thread_time

        def wrapped(*args):
            start = clock()
            try:
                return callback(*args)
            finally:
                sink[key] += clock() - start

        return wrapped

    def _count(self, port, data, copies):
        size = len(data)
        self.datagrams[port] += copies
        self.bytes[port] += size * copies
        if size > self.max_frame[port]:
            self.max_frame[port] = size
        if (port == "totem" and size > _FRAME_KIND_OFFSET
                and data[_FRAME_KIND_OFFSET] == KIND_TOTEM_TOKEN):
            self.token_frames += copies

    def wrap_gateways(self, tier, clock):
        """Time how long each gateway of ``tier`` holds a request."""
        for gateway in tier.gateways:
            poa = gateway.orb.poa
            inner = poa.default_handler

            def handler(request, respond, inner=inner):
                start = clock()

                def timed_respond(reply):
                    self.gateway_hold.append(clock() - start)
                    respond(reply)

                return inner(request, timed_respond)

            poa.default_handler = handler


class StateTransfers:
    """Full-state transfers seen on the trace while attached.

    A sponsor emits ``ft.state.full.sent`` (with the encoded ``bytes``)
    as it sends a group's state; the transfer ends when a replica of that
    group adopts it, emitting ``ft.replica.ready`` (a joining replica) or
    ``ft.merge.adopted`` (the secondary side of a remerge).  Reads the
    runtime's trace through a sink, so it sees either transfer mode.
    """

    def __init__(self, trace):
        self.trace = trace
        self.bytes = 0
        self.durations = []
        self._sent = {}                 # group -> time of its latest send
        trace.add_sink(self._event)

    def _event(self, at, category, detail, _size):
        if category == "ft.state.full.sent":
            self.bytes += detail["bytes"]
            self._sent[detail["group"]] = at
        elif category in ("ft.replica.ready", "ft.merge.adopted"):
            sent = self._sent.pop(detail["group"], None)
            if sent is not None:
                self.durations.append(at - sent)

    def close(self):
        self.trace.remove_sink(self._event)


class Window:
    """Counter readings at the start of a measured window."""

    def __init__(self, runtime, tracer):
        self.runtime = runtime
        self.start = runtime.now
        self.events_at_start = Counter(runtime.trace.counters)
        self.counters_at_start = self._counters()
        self.transfers = StateTransfers(runtime.trace)
        sim = getattr(runtime, "sim", None)
        self.scheduled = sim.scheduler.processed if sim is not None else 0
        spans = runtime.telemetry.spans
        spans.finished.clear()
        spans.retain = 1 << 30
        tracer.reset()

    def _counters(self):
        metrics = self.runtime.telemetry.metrics
        return Counter({name: metrics.get(name).value
                        for name in metrics.names()
                        if isinstance(metrics.get(name), CounterMetric)})

    def events(self, category):
        """Trace events of ``category`` emitted since the start."""
        return (self.runtime.trace.counters[category]
                - self.events_at_start[category])

    def counter(self, name):
        """Growth of the telemetry counter ``name`` since the start."""
        return self._counters()[name] - self.counters_at_start[name]


def layer_metrics(runtime, tracer, window, ops, load_cpu, load_seconds,
                  lateness):
    """The per-layer metrics of one traced load window, read at its end.

    ``ops`` is the number of completed operations, ``load_cpu`` /
    ``load_seconds`` the process CPU and runtime-clock length of the load
    window, ``lateness`` the generator's lateness samples (seconds).
    ``totem.token_hops_idle_per_s`` belongs to the quiet window that
    follows; :func:`measure` fills it in.
    """
    metrics = runtime.telemetry.metrics
    spans = runtime.telemetry.spans
    by_layer = spans.layer_durations()
    layer_p50 = {layer: ms(median(by_layer[layer]))
                 for layer, _start, _end in LAYER_INTERVALS}
    window.transfers.close()
    rtt_histogram = metrics.get("ftdet.rtt")
    rtt = (rtt_histogram.window_samples(runtime.now,
                                        runtime.now - window.start)
           if rtt_histogram is not None else [])
    sim = getattr(runtime, "sim", None)
    events = (sim.scheduler.processed - window.scheduled) if sim else 0
    encodes = tracer.codec_calls["wire.encode"]
    cached = window.counter("wire.encode.cached")
    local_reads = window.events("read.local")
    fallbacks = window.events("read.fallback")
    totem_cpu = tracer.port_cpu["totem"] + tracer.timer_cpu["totem"]
    return {
        "totem.cpu_ms_per_op": ms(ratio(totem_cpu, ops)),
        "totem.order_ms": layer_p50["totem"],
        "totem.max_frame_bytes": tracer.max_frame["totem"],
        "totem.token_lost": window.events("totem.token.lost"),
        "totem.installs": window.events("totem.install"),
        "interception.intercept_ms": layer_p50["interception"],
        "wire.transit_ms": layer_p50["wire"],
        "replication.dispatch_ms": layer_p50["replication"],
        "replication.reply_leg_ms": layer_p50["runtime"],
        "replication.dup_suppressed": (window.events("ft.suppress.request")
                                       + window.events("ft.suppress.reply")),
        "replication.merge_stalls": window.events("ft.merge.stall"),
        "wire.encode_us": 1e6 * ratio(tracer.codec_time["wire.encode"],
                                      encodes),
        "wire.decode_us": 1e6 * ratio(tracer.codec_time["wire.decode"],
                                      tracer.codec_calls["wire.decode"]),
        "wire.frames_per_op": ratio(encodes, ops),
        "wire.encode_cached_frac": ratio(cached, cached + encodes),
        "orb.marshal_us": 1e6 * ratio(tracer.codec_time["orb.marshal"], ops),
        "runtime.datagrams_per_op": ratio(sum(tracer.datagrams.values()), ops),
        "runtime.bytes_per_op": ratio(sum(tracer.bytes.values()), ops),
        "runtime.cpu_busy_frac": ratio(load_cpu, load_seconds),
        "runtime.net_errors": window.events("net.error"),
        "runtime.gen_late_p99_ms": ms(percentile(lateness, 0.99)),
        "reads.local_frac": ratio(local_reads, local_reads + fallbacks),
        "reads.fallbacks": fallbacks,
        "gateway.forward_ms": ms(median(tracer.gateway_hold)),
        "simnet.events_per_vs": ratio(events, load_seconds) if sim else 0.0,
        "simnet.host_us_per_event": 1e6 * ratio(load_cpu, events),
        "state.transfer_vs": mean(window.transfers.durations),
        "state.bytes": window.transfers.bytes,
        "ftdet.rtt_ms": ms(median(rtt)),
    }


def run_sliced(runtime, seconds, slices, references=None):
    """Drive the runtime ``seconds`` in ``slices`` equal steps.

    Returns the process CPU rate (CPU seconds per runtime-clock second)
    of each step, so a caller can take their median: a burst of host
    contention then moves one slice, not the figure.  Given a
    ``references`` list, the reference loop runs between steps (off the
    clock), its times are appended there, and each rate is scaled to the
    reference host (:func:`common.scaled`).
    """
    rates = []
    step = seconds / slices
    before = reference_seconds() if references is not None else None
    for _ in range(slices):
        cpu, start = cpu_now(), runtime.now
        runtime.run_for(step)
        rate = ratio(cpu_now() - cpu, runtime.now - start)
        if references is not None:
            after = reference_seconds()
            references.append(after)
            rate, before = scaled(rate, before, after), after
        rates.append(rate)
    return rates


def spans_tile(runtime):
    """(complete spans, spans whose layer intervals do not tile them).

    A span is broken when a layer interval is negative or the intervals
    do not add up to its end-to-end duration.
    """
    spans = runtime.telemetry.spans.complete_spans()
    broken = [span for span in spans
              if min(span.layers().values()) < 0.0
              or abs(sum(span.layers().values()) - span.duration())
              > TILE_TOLERANCE]
    return len(spans), len(broken)


def measure(runtime, driver, load, outcome, tracer, window, quiet,
            drain_seconds, slice_seconds):
    """One load window, drained, then a quiet window; folded into outcome.

    ``load()`` starts the load driver; the runtime then runs ``window``
    seconds of load in slices of about ``slice_seconds`` and, after the
    drain, ``quiet`` seconds with no requests in slices of
    :data:`QUIET_SLICE_SECONDS`.  On the simulated runtime the CPU rates
    are scaled to the reference host; the loop runs off the virtual clock
    there, whereas on asyncio it would stall the event loop.
    """
    references = outcome.references if outcome.virtual else None
    trace_window = Window(runtime, tracer) if tracer is not None else None
    start = runtime.now
    load()
    load_rates = run_sliced(runtime, window,
                            max(1, round(window / slice_seconds)), references)
    driver.drain(drain_seconds)
    load_seconds = runtime.now - start
    load_cpu = median(load_rates) * load_seconds
    failed = len(driver.failed())
    if tracer is not None:
        outcome.layers = layer_metrics(
            runtime, tracer, trace_window, len(driver.records) - failed,
            load_cpu, load_seconds, driver.lateness)
        complete, broken = spans_tile(runtime)
        outcome.span_check[0] += complete
        outcome.span_check[1] += broken
    outcome.add_load(len(driver.records), failed, driver.latencies(),
                     load_rates, load_seconds)
    tokens = tracer.token_frames if tracer is not None else 0
    quiet_start = runtime.now
    outcome.quiet_rates.extend(run_sliced(
        runtime, quiet, max(1, round(quiet / QUIET_SLICE_SECONDS)),
        references))
    if tracer is not None:
        outcome.layers["totem.token_hops_idle_per_s"] = ratio(
            tracer.token_frames - tokens, runtime.now - quiet_start)
    if driver.outstanding:
        outcome.problems.append("%d requests never resolved"
                                % driver.outstanding)
