"""Shared pieces of the benchmark: metric catalogue, statistics, resources.

Every metric the benchmark reports is declared once in :data:`METRICS`
with its unit.  The gated subset (:data:`END_TO_END`, :data:`PER_LAYER`)
is what the final JSON line carries and what ``BENCHMARK.json`` lists;
the rest (``lat_p99_ms``, ``failed_frac``, ``invariant_violations``, the
virtual-time figures of the simulated workloads ...) is printed by name
and unit in the report above that line.  Metrics that can legitimately read 0 on a healthy run
(failures, violations) cannot be gated as a share of a median, so they
ride the result line's ``failed`` and ``correct`` fields instead.
"""

import os
import resource
import statistics
import sys
import time
from collections import namedtuple

# name -> (unit, better, description)
METRICS = {
    # -- end to end, gated on every workload ------------------------------
    "setup_s": ("s", "lower",
                "median time to build, start and stabilise the system and "
                "serve one warm-up call (scaled on the simulated runtime)"),
    "lat_p50_ms": ("ms", "lower",
                   "median request latency from its due time, on the "
                   "runtime's clock (wall on asyncio, virtual on sim)"),
    "cpu_per_op_ms": ("ms", "lower",
                      "host process CPU per completed operation over the "
                      "load window (scaled on the simulated runtime)"),
    "idle_cpu_frac": ("s/s", "lower",
                      "host CPU seconds per runtime-clock second in the "
                      "quiet window after the load (scaled on the "
                      "simulated runtime)"),
    "peak_rss_mb": ("MB", "lower", "peak resident set size of the process"),
    # -- end to end, reported only ----------------------------------------
    "lat_p99_ms": ("ms", "lower",
                   "99th-percentile request latency, same clock; a failed "
                   "request counts at the time the client gave up"),
    "failed_frac": ("ratio", "lower",
                    "failed or timed-out operations over attempted"),
    "ops_per_s": ("1/s", "higher",
                  "completed operations per runtime-clock second of load"),
    "invariant_violations": ("count", "lower",
                             "lost, duplicated or diverged operations found "
                             "by InvariantChecker"),
    "vlat_p50_ms": ("ms", "lower", "median latency in virtual time"),
    "vlat_p99_ms": ("ms", "lower", "99th-percentile latency, virtual time"),
    "failover_vs": ("s", "lower",
                    "mean virtual time from a crash to the first operation "
                    "served afterwards"),
    "failover_install_vs": ("s", "lower",
                            "mean virtual time from a crash to the next "
                            "ring installation (E12's failover figure)"),
    "sim_cpu_per_vs": ("s/s", "lower",
                       "host CPU seconds per virtual second of the campaign"),
    # -- per layer (traced run) -------------------------------------------
    "totem.token_hops_idle_per_s": ("1/s", "lower",
                                    "token frames sent per runtime-clock "
                                    "second in the quiet window"),
    "totem.cpu_ms_per_op": ("ms", "lower",
                            "thread CPU in the totem port handler and "
                            "totem-armed timers, per completed operation"),
    "totem.order_ms": ("ms", "lower",
                       "median span interval enqueue -> sent"),
    "totem.max_frame_bytes": ("bytes", "lower",
                              "largest datagram sent on the totem port"),
    "totem.token_lost": ("count", "lower", "totem.token.lost events"),
    "totem.installs": ("count", "lower", "totem.install events"),
    "interception.intercept_ms": ("ms", "lower",
                                  "median span interval intercept -> "
                                  "enqueue"),
    "wire.transit_ms": ("ms", "lower",
                        "median span interval sent -> delivered"),
    "replication.dispatch_ms": ("ms", "lower",
                                "median span interval delivered -> "
                                "executed"),
    "replication.reply_leg_ms": ("ms", "lower",
                                 "median span interval executed -> reply: "
                                 "the reply's own Totem round plus client "
                                 "resolution"),
    "replication.dup_suppressed": ("count", "lower",
                                   "ft.suppress.request + ft.suppress.reply"),
    "replication.merge_stalls": ("count", "lower", "ft.merge.stall events"),
    "wire.encode_us": ("us", "lower", "mean time per frame encode call"),
    "wire.decode_us": ("us", "lower", "mean time per frame decode call"),
    "wire.frames_per_op": ("count", "lower",
                           "frame encode calls per completed operation"),
    "wire.encode_cached_frac": ("ratio", "higher",
                                "reused encodings over all frame sends"),
    "orb.marshal_us": ("us", "lower",
                       "GIOP and CDR encode+decode time per completed "
                       "operation"),
    "runtime.datagrams_per_op": ("count", "lower",
                                 "datagrams sent per completed operation"),
    "runtime.bytes_per_op": ("bytes", "lower",
                             "payload bytes sent per completed operation"),
    "runtime.cpu_busy_frac": ("s/s", "lower",
                              "process CPU seconds per runtime-clock second "
                              "under load"),
    "runtime.net_errors": ("count", "lower", "net.error events"),
    "runtime.gen_late_p99_ms": ("ms", "lower",
                                "99th percentile of how late the load "
                                "generator issued a request"),
    "reads.local_frac": ("ratio", "higher",
                         "annotated reads served locally over all local "
                         "read outcomes"),
    "reads.fallbacks": ("count", "lower", "read.fallback events"),
    "gateway.forward_ms": ("ms", "lower",
                           "median time a gateway holds a forwarded "
                           "request"),
    "simnet.events_per_vs": ("1/s", "lower",
                             "scheduler events per virtual second"),
    "simnet.host_us_per_event": ("us", "lower",
                                 "host CPU per scheduler event"),
    "state.transfer_vs": ("s", "lower",
                          "mean time from a group's full-state send to a "
                          "replica adopting it (ready or remerge), runtime "
                          "clock"),
    "state.bytes": ("bytes", "lower",
                    "encoded bytes of the full-state captures sent"),
    "ftdet.rtt_ms": ("ms", "lower",
                     "median heartbeat / lease-renewal round trip"),
    "trace.overhead_cpu_per_op_ms": ("ms", "lower",
                                     "traced minus untraced cpu_per_op_ms"),
    "trace.overhead_lat_p50_ms": ("ms", "lower",
                                  "traced minus untraced lat_p50_ms"),
}

#: Gated end-to-end metrics, every workload, in BENCHMARK.json order.
#: No latency tail is gated: on a 2-vCPU virtual machine shared with other
#: tenants the wall-clock p95/p99 of echo-ring moved by 40% between runs
#: with the host's load, and oltp-sim's virtual p99 by 80% between
#: traffic seeds.
END_TO_END = ("lat_p50_ms", "cpu_per_op_ms", "idle_cpu_frac", "peak_rss_mb",
              "setup_s")

#: Bound (share of the parent's median) per gated end-to-end metric.
#: Host-CPU figures swing by a tenth between runs on such a machine even
#: when scaled to the reference loop, so they get the widest bound allowed.
BOUNDS = {
    "lat_p50_ms": 0.15,
    "cpu_per_op_ms": 0.25,
    "idle_cpu_frac": 0.25,
    "peak_rss_mb": 0.15,
    "setup_s": 0.25,
}

#: Per-layer metrics of the traced run, every workload.
PER_LAYER = tuple(name for name in METRICS if "." in name)

#: One benchmark workload; ``gated`` ones are listed in BENCHMARK.json.
#: ``run(seed, seconds, setups, tracer=None)`` returns an Outcome.
Workload = namedtuple("Workload", "name why gated run")


def ms(seconds):
    return seconds * 1000.0


def percentile(values, fraction):
    """Linear-interpolated percentile of an unsorted sample (0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ratio(part, whole):
    return part / whole if whole else 0.0


def peak_rss_mb():
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_now():
    """Process CPU seconds (user + system, all threads)."""
    return time.process_time()


#: CPU seconds :func:`reference_seconds` takes on the host that scaled
#: figures are quoted for.
REFERENCE_SECONDS = 0.004


def reference_seconds():
    """Process CPU time of a fixed piece of pure-Python work.

    On a virtual machine whose neighbours share its cores the interpreter's
    speed swings by up to two times within seconds; this work slows with
    it, somewhat more than the simulator does, so dividing by its time
    takes most of the host's speed out of a CPU figure.
    """
    start = cpu_now()
    table = {}
    for i in range(10000):
        key = "k%d" % (i % 512)
        table[key] = table.get(key, 0) + i
    return cpu_now() - start


def scaled(seconds, reference_before, reference_after):
    """``seconds`` of host CPU scaled to the :data:`REFERENCE_SECONDS` host,
    by the mean of the reference times measured around them."""
    return seconds * 2.0 * REFERENCE_SECONDS / (reference_before
                                                 + reference_after)


def environment():
    """What the figures depend on besides the code."""
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "platform": sys.platform,
    }


class Outcome:
    """What the episodes of one run produced.

    Each episode folds in its load window with :meth:`add_load`, the
    CPU rates of its quiet window into ``quiet_rates`` and its checks with
    :meth:`check`; :meth:`finish` then derives the metrics every workload
    shares.  CPU figures are medians over slices of the windows.
    ``layers`` holds the per-layer figures of the last traced episode.
    ``problems`` lists wrong outputs; any entry makes the run incorrect.
    """

    def __init__(self, virtual=False):
        self.virtual = virtual          # runtime clock is simulated
        self.metrics = {}
        self.layers = {}
        self.problems = []
        self.notes = []
        self.setup_times = []
        self.episodes = 0
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.latencies = []
        self.load_rates = []            # CPU s per runtime s, per slice
        self.load_seconds = 0.0
        self.quiet_rates = []
        self.violations = None
        self.span_check = [0, 0]        # complete spans, spans not tiling
        self.references = []            # reference_seconds() samples

    @property
    def correct(self):
        return not self.problems

    def add_load(self, attempted, failed, latencies, rates, seconds):
        self.attempted += attempted
        self.failed += failed
        self.completed += attempted - failed
        self.latencies.extend(latencies)
        self.load_rates.extend(rates)
        self.load_seconds += seconds

    def check(self, report):
        """Fold in an :class:`~repro.chaos.invariants.InvariantReport`."""
        self.violations = (self.violations or 0) + len(report.violations)
        if not report.ok:
            self.problems.append(report.format())

    def finish(self):
        lat_p50 = ms(percentile(self.latencies, 0.50))
        lat_p99 = ms(percentile(self.latencies, 0.99))
        busy = median(self.load_rates)
        self.metrics.update({
            "setup_s": median(self.setup_times),
            "lat_p50_ms": lat_p50,
            "lat_p99_ms": lat_p99,
            "cpu_per_op_ms": ms(ratio(busy * self.load_seconds,
                                      self.completed)),
            "idle_cpu_frac": median(self.quiet_rates),
            "ops_per_s": ratio(self.completed, self.load_seconds),
            "failed_frac": ratio(self.failed, self.attempted),
        })
        if self.violations is not None:
            self.metrics["invariant_violations"] = self.violations
        if self.virtual:
            self.metrics.update({
                "vlat_p50_ms": lat_p50,
                "vlat_p99_ms": lat_p99,
                "sim_cpu_per_vs": busy,
            })
        self.notes.append("episodes %d, %d latency samples"
                          % (self.episodes, len(self.latencies)))
        if self.references:
            self.notes.append(
                "host CPU figures scaled to a %.1f ms reference loop; it "
                "took %.2f ms here (median of %d)"
                % (ms(REFERENCE_SECONDS), ms(median(self.references)),
                   len(self.references)))


def repeated_setup(build, count, scale):
    """Build ``count`` times, keep the last system; returns it and the times.

    ``build()`` returns ``(handle, seconds)``; every handle but the last
    is closed straight away.  With ``scale`` the seconds are scaled to
    the reference host (see :func:`scaled`).
    """
    times = []
    handle = None
    for _ in range(max(count, 1)):
        if handle is not None:
            handle.close()
        before = reference_seconds() if scale else None
        handle, seconds = build()
        times.append(scaled(seconds, before, reference_seconds()) if scale
                     else seconds)
    return handle, times


def run_episodes(outcome, build, episode, episodes, setups):
    """``episodes`` measured episodes, each on a freshly built system.

    The first system is built ``setups`` times (``setup_s`` is the
    median over every build); ``episode(handle, outcome)`` measures on it.
    On the simulated runtime, where set-up is pure computation, set-up
    times are scaled to the reference host like the CPU figures.
    """
    for index in range(episodes):
        handle, times = repeated_setup(build, setups if index == 0 else 1,
                                       outcome.virtual)
        outcome.setup_times.extend(times)
        try:
            episode(handle, outcome)
        finally:
            handle.close()
        outcome.episodes += 1
    outcome.finish()
    return outcome
