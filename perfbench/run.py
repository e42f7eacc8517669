"""The repository's benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload echo-ring --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload oltp-sim --seed 1 --trace 1
    python3 perfbench/run.py --workload chaos-sim --campaign-seed 0
    python3 perfbench/run.py --write-benchmark-json BENCHMARK.json

Each workload runs the default configuration of its runtime.  The lines
before the last name every metric the workload defines, with its unit;
the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the gated end-to-end ones
(:data:`common.END_TO_END`); with ``--trace 1`` the workload runs once
untraced and once under :class:`tracing.Tracer`, each pass measuring at
most :data:`TRACE_SECONDS` of load, and the metrics are the per-layer
ones (:data:`common.PER_LAYER`), including the traced-minus-untraced
overhead.  The exit status is 1 when an output was wrong (an
echo that differs from its payload, an invariant violation), 2 when the
program under test is missing.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")
#: BENCHMARK.json's run_seconds, and the default --seconds.
RUN_SECONDS = 30
#: Load a traced run measures per pass (it makes two passes).
TRACE_SECONDS = 20.0
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5


def _load_workloads():
    import chaos_sim
    import echo_ring
    import oltp

    return {workload.name: workload for workload in (
        echo_ring.WORKLOAD, oltp.OLTP_SIM, oltp.OLTP_GATEWAY,
        chaos_sim.WORKLOAD)}


def benchmark_json(workloads):
    from common import BOUNDS, END_TO_END, METRICS, PER_LAYER

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in workloads.values() if workload.gated],
        "end_to_end": [{"name": name, "unit": METRICS[name][0],
                        "better": METRICS[name][1], "bound": BOUNDS[name]}
                       for name in END_TO_END],
        "per_layer": [{"name": name, "unit": METRICS[name][0],
                       "better": METRICS[name][1]} for name in PER_LAYER],
    }


def measure(workload, options):
    """Run the workload as ``--trace`` asks.

    Returns (outcome, untraced outcome, names of the result metrics).
    """
    from common import END_TO_END, PER_LAYER, peak_rss_mb
    from tracing import Tracer

    kwargs = {}
    if options.campaign_seed is not None:
        kwargs["campaign_seed"] = options.campaign_seed
    if not options.trace:
        outcome = workload.run(options.seed, options.seconds, setups=SETUPS,
                               **kwargs)
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        return outcome, outcome, END_TO_END
    seconds = min(options.seconds, TRACE_SECONDS)
    untraced = workload.run(options.seed, seconds, setups=1, **kwargs)
    tracer = Tracer().install()
    try:
        traced = workload.run(options.seed, seconds, setups=1, tracer=tracer,
                              **kwargs)
    finally:
        tracer.remove()
    for name in ("cpu_per_op_ms", "lat_p50_ms"):
        traced.layers["trace.overhead_" + name] = (
            traced.metrics[name] - untraced.metrics[name])
    traced.problems.extend(untraced.problems)
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    return traced, untraced, PER_LAYER


def report(name, outcome, untraced, options):
    from common import METRICS, environment

    env = environment()
    print("# workload %s seed %d seconds %s trace %d"
          % (name, options.seed, options.seconds, options.trace))
    print("# env " + " ".join("%s=%s" % item for item in sorted(env.items())))
    print("# network " + ("simulated" if outcome.virtual
                          else "loopback UDP, every node in this process"))
    for note in outcome.notes:
        print("# " + note)
    if options.trace:
        complete, broken = outcome.span_check
        print("# spans_tile complete=%d broken=%d ops=%d"
              % (complete, broken, outcome.completed))
        for metric, value in sorted(untraced.metrics.items()):
            print("untraced %s %.6g %s" % (metric, value, METRICS[metric][0]))
    for metric, value in sorted(outcome.metrics.items()):
        print("metric %s %.6g %s" % (metric, value, METRICS[metric][0]))
    for metric, value in sorted(outcome.layers.items()):
        print("layer %s %.6g %s" % (metric, value, METRICS[metric][0]))
    for problem in outcome.problems:
        for line in problem.splitlines():
            print("# WRONG: " + (line if len(line) <= 200
                                 else line[:200] + " ..."))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds of load on the runtime's clock "
                             "(chaos-sim always runs one campaign)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int, default=None,
                        help="chaos-sim only: campaign schedule seed "
                             "(default 0, E12's)")
    parser.add_argument("--write-benchmark-json", metavar="PATH",
                        help="write the benchmark definition and exit")
    options = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("perfbench: the program under test (src/repro) is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    workloads = _load_workloads()
    if options.write_benchmark_json:
        with open(options.write_benchmark_json, "w") as handle:
            json.dump(benchmark_json(workloads), handle, indent=2)
            handle.write("\n")
        return 0
    if options.workload not in workloads:
        parser.error("--workload must be one of %s" % ", ".join(workloads))
    if options.campaign_seed is not None and options.workload != "chaos-sim":
        parser.error("--campaign-seed applies to chaos-sim only")

    from common import METRICS

    outcome, untraced, names = measure(workloads[options.workload], options)
    report(options.workload, outcome, untraced, options)
    values = dict(outcome.metrics, **outcome.layers)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": METRICS[name][0]}
                    for name in names},
    }, sort_keys=True))
    sys.stdout.flush()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
