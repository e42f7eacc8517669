"""chaos-sim: E12's full chaos campaign over the OLTP application, simulated.

The E12 deployment (see :mod:`oltp`, without read leases) runs on the
stock ``SimRuntime`` and ``TotemConfig``.  While the outside client
offers E12's ``DEFAULT_MIX`` open-loop at 20/s for 8 virtual seconds, a
seeded campaign crashes and recovers nodes, partitions and remerges the
rings, and injects a loss burst, a latency spike and a slow node.  After
a settle window :class:`~repro.chaos.InvariantChecker` looks for lost,
duplicated and diverged operations and unbounded failover, and a quiet
window with no requests follows.

The campaign seed (``--campaign-seed``, default 0 as in E12) fixes the
fault schedule and the simulator; ``--seed`` fixes the traffic.  Every
virtual-time figure repeats exactly for the same pair; host CPU is what
tier-1 and the campaign sweep pay for the same code.  Some traffic seeds
end with a lost operation, so the workload is not gated until
exactly-once holds under the campaign.
"""

import time

from repro.chaos import CampaignSpec, ChaosCampaign, InvariantChecker, SimInjector
from repro.core import EternalSystem
from repro.runtime.sim import SimRuntime

import oltp
from common import Outcome, Workload, mean, run_episodes
from driver import LoadDriver
from tracing import measure

NAME = "chaos-sim"
WHY = ("sim, E12 campaign: crash-recover, partition-remerge, loss, latency "
       "and slow node under OLTP through the gateway; membership, recovery, "
       "state transfer, dedup, scheduler")
RATE = 20.0               # E12's arrivals per virtual second
TRAFFIC_SECONDS = 8.0     # E12's traffic window
CAMPAIGN_SECONDS = 6.0
FAILOVER_BOUND = 5.0      # crash -> next ring install, virtual seconds
SETTLE_SECONDS = 6.0
QUIET_SECONDS = 1.0
DRAIN_SECONDS = 30.0


def campaign_spec(seed):
    """E12's full-vocabulary campaign."""
    return CampaignSpec(
        nodes=oltp.ALL_NODES, seed=seed, start=1.0, duration=CAMPAIGN_SECONDS,
        crashes=2, crash_targets=tuple(oltp.CRASH_GROUPS), downtime=(0.8, 1.5),
        partitions=1, partition_targets=("s3", "s6"), heal=(1.0, 2.0),
        loss_bursts=1, loss_rate=(0.05, 0.12), loss_duration=(0.8, 1.5),
        latency_spikes=1, latency_extra=(0.5e-3, 2e-3),
        latency_duration=(0.8, 1.5),
        slow_nodes=1, slow_delay=(1e-3, 3e-3), slow_duration=(0.8, 1.5),
    )


def build(campaign_seed, tracer=None):
    """The deployed application; returns (app, wall seconds)."""
    started = time.perf_counter()
    runtime = SimRuntime(seed=campaign_seed, keep_trace_records=True)
    system = EternalSystem(oltp.SERVERS + oltp.GATEWAYS, runtime=runtime,
                           rings=oltp.RINGS).start()
    system.stabilize()
    app = oltp.deploy(system, oltp.outside_orb_on(runtime))
    if tracer is not None:
        tracer.wrap_gateways(app.tier, lambda: runtime.now)
    return app, time.perf_counter() - started


def run(seed, seconds, setups, tracer=None, campaign_seed=0):
    """One campaign; ``seconds`` is unused (the campaign fixes its length)."""
    failover, failover_install = [], []
    outcome = run_episodes(
        Outcome(virtual=True), lambda: build(campaign_seed, tracer),
        lambda app, outcome: episode(app, seed, campaign_seed, outcome,
                                     tracer, failover, failover_install),
        1, setups)
    outcome.metrics["failover_vs"] = mean(failover)
    outcome.metrics["failover_install_vs"] = mean(failover_install)
    return outcome


def episode(app, seed, campaign_seed, outcome, tracer, failover,
            failover_install):
    runtime, system = app.runtime, app.system
    traffic_seed = seed + outcome.episodes
    arrivals = oltp.plan(traffic_seed, oltp.arrival_offsets(
        traffic_seed, RATE, TRAFFIC_SECONDS))
    driver = LoadDriver(runtime)
    schedule = ChaosCampaign(campaign_spec(campaign_seed))
    if ChaosCampaign(campaign_spec(campaign_seed)).to_json() != \
            schedule.to_json():
        outcome.problems.append("campaign schedule is not reproducible")
    injector = SimInjector(runtime)

    def load():
        driver.open_loop([arrival[0] for arrival in arrivals],
                         oltp.request_maker(app, arrivals))
        injector.arm(schedule)

    horizon = max(TRAFFIC_SECONDS, 1.0 + schedule.end_time) + SETTLE_SECONDS
    measure(runtime, driver, load, outcome, tracer, horizon, QUIET_SECONDS,
            DRAIN_SECONDS, oltp.SLICE_SECONDS["sim"])
    report = oltp.check_invariants(system, driver.records)
    events = [(r.time, r.category, r.detail, 0) for r in runtime.trace.records]
    failover_install.extend(
        InvariantChecker(report).check_failover(events, FAILOVER_BOUND))
    outcome.check(report)
    failover.extend(oltp.failover_times(injector.injections, driver))


WORKLOAD = Workload(NAME, WHY, False, run)
