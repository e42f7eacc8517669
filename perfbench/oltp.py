"""The OLTP workloads: E12's application on either runtime.

The topology is E12's: two rings, accounts ACTIVE on ring 0, catalog
WARM_PASSIVE and orders ACTIVE on ring 1 (orders on the gateways, which
bridge both rings), and an outside node that reaches all three groups
through a :class:`~repro.gateway.GatewayTier` over plain IIOP.  Every
group enables read leases.  Load is open-loop Poisson; half of the
arrivals draw from E12's ``DEFAULT_MIX`` (ordered writes, the nested
cross-ring ``place_order``, ordered ``balance_of``/``stock_of``) and half
are ``READ_MIX`` reads annotated LINEARIZABLE, so writes and reads share
the layers.  After the load and a quiet window,
:class:`~repro.chaos.InvariantChecker` looks for lost, duplicated and
diverged operations.

- ``oltp-gateway`` runs every node in-process on one asyncio loop over
  loopback UDP with ``TotemConfig.realtime()``, at 20/s for the run's
  ``--seconds``.  With this mix a replicated message outgrows a UDP
  datagram after a couple of hundred operations: the send fails with
  ``net.error`` "Message too long", the message never arrives and the
  replicas diverge.  The workload shows that defect rather than avoiding
  it, so it is not gated until the defect is fixed.
- ``oltp-sim`` runs the same application on the stock ``SimRuntime``,
  whose network delivers any frame size, for a fixed virtual window per
  episode.  Each episode crashes and recovers one accounts and one
  catalog server and re-hosts their replicas, which initialise by state
  transfer, so membership, recovery and the state layer carry load too.

Traffic is generated here from the benchmark's seed, not by
``OltpTraffic``: the plan (due offsets, operations, arguments) is fixed
before the run, and :class:`driver.LoadDriver` times each request from
its due time.
"""

import random
import time

from repro.chaos import CampaignSpec, ChaosCampaign, InvariantChecker, SimInjector
from repro.core import EternalSystem
from repro.gateway import GatewayTier
from repro.orb import ORB
from repro.replication import (
    GroupPolicy,
    ReadConsistency,
    ReadOptions,
    ReplicationStyle,
)
from repro.runtime.aio import AsyncioRuntime
from repro.runtime.sim import SimRuntime
from repro.totem.config import TotemConfig
from repro.workloads import AccountsService, CatalogService, OrdersService
from repro.workloads.oltp import (
    DEFAULT_MIX,
    READ_MIX,
    READ_OPERATIONS,
    OltpRecord,
)

from common import Outcome, mean, run_episodes
from driver import LoadDriver
from tracing import measure

SERVERS = ["s%d" % (i + 1) for i in range(6)]
GATEWAYS = ["gw1", "gw2"]
RINGS = {0: SERVERS[:3] + GATEWAYS, 1: SERVERS[3:] + GATEWAYS}
OUTSIDE = "outside"
ALL_NODES = SERVERS + GATEWAYS + [OUTSIDE]
#: Crash victims and the groups they host.
CRASH_GROUPS = {"s2": ("accounts",), "s5": ("catalog",)}
GROUPS = ("accounts", "catalog", "orders")
ACCOUNTS = {"alice": 1000, "bob": 1000, "carol": 1000}
STOCK = {"widget": 500, "gadget": 500, "gizmo": 500}
ITEMS = tuple(sorted(STOCK))
INTERFACES = {"accounts": AccountsService, "catalog": CatalogService,
              "orders": OrdersService}
LINEARIZABLE = ReadOptions(mode=ReadConsistency.LINEARIZABLE)
SETTLE_SECONDS = 0.5       # runtime seconds after creating groups / the tier


class App:
    """The deployed application: the system, the tier and outside stubs."""

    def __init__(self, system, tier, stubs, read_stubs):
        self.system = system
        self.runtime = system.runtime
        self.tier = tier
        self.stubs = stubs
        self.read_stubs = read_stubs

    def close(self):
        self.runtime.close()


def deploy(system, outside_orb, read_leases=False):
    """Create the three groups and the gateway tier on a started system.

    ``outside_orb`` builds the outside node's ORB once the groups exist.
    With ``read_leases`` every group enables the local read path, and
    ``read_stubs`` annotate declared reads LINEARIZABLE.
    """
    def policy(style):
        return GroupPolicy(style=style, read_leases=read_leases)

    ior_accounts = system.create_replicated(
        "accounts", lambda: AccountsService(dict(ACCOUNTS)), SERVERS[:3],
        policy(ReplicationStyle.ACTIVE), ring=0)
    ior_catalog = system.create_replicated(
        "catalog", lambda: CatalogService(dict(STOCK)), SERVERS[3:],
        policy(ReplicationStyle.WARM_PASSIVE), ring=1)
    accounts_ref = ior_accounts.to_string()
    catalog_ref = ior_catalog.to_string()
    ior_orders = system.create_replicated(
        "orders", lambda: OrdersService(catalog_ref=catalog_ref,
                                        accounts_ref=accounts_ref),
        GATEWAYS, policy(ReplicationStyle.ACTIVE), ring=1)
    system.run_for(SETTLE_SECONDS)
    tier = GatewayTier("edge", [system.engine(gw) for gw in GATEWAYS])
    system.run_for(SETTLE_SECONDS)
    exported = {"accounts": tier.export(ior_accounts),
                "catalog": tier.export(ior_catalog),
                "orders": tier.export(ior_orders)}
    orb = outside_orb()
    stubs = {name: orb.stub(ref) for name, ref in exported.items()}
    read_stubs = {name: orb.stub(ref, interface=INTERFACES[name],
                                 read=LINEARIZABLE)
                  for name, ref in exported.items()} if read_leases else {}
    return App(system, tier, stubs, read_stubs)


def outside_orb_on(runtime):
    """An outside node's ORB on either runtime."""
    net = getattr(runtime, "net", None)
    if net is not None:
        return lambda: ORB(net, net.add_node(OUTSIDE))
    return lambda: ORB(runtime.add_node(OUTSIDE))


def warm_up(app, timeout):
    """One ordered read per group through the gateway tier."""
    call = app.runtime.wait_for
    call(app.stubs["accounts"].balance_of("alice"), timeout=timeout)
    call(app.stubs["catalog"].stock_of("widget"), timeout=timeout)
    call(app.stubs["orders"].order_count(), timeout=timeout)


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


def _pick(rng, pool):
    total = sum(weight for weight, _service, _op in pool)
    draw = rng.uniform(0.0, total)
    for weight, service, op in pool:
        draw -= weight
        if draw < 0.0:
            return service, op
    return pool[-1][1], pool[-1][2]


def arrival_offsets(seed, rate, seconds):
    """Poisson arrivals at ``rate`` over ``seconds``, conditioned on count.

    Exactly ``rate * seconds`` arrivals at sorted uniform offsets -- a
    Poisson process given its count -- so every seed offers the same
    amount of work.
    """
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, seconds)
                  for _ in range(int(round(rate * seconds))))


def plan(seed, offsets, read_fraction=None):
    """The seeded request plan: ``[(offset, op_id, service, op, args, read)]``.

    Each arrival draws from E12's ``DEFAULT_MIX``; with ``read_fraction``
    set, that share draws an annotated read from ``READ_MIX`` instead.
    """
    rng = random.Random(seed)
    arrivals = []
    for index, offset in enumerate(offsets):
        op_id = "b-%d" % index
        read = read_fraction is not None and rng.random() < read_fraction
        service, op = _pick(rng, READ_MIX if read else DEFAULT_MIX)
        account = rng.choice(sorted(ACCOUNTS))
        item = rng.choice(ITEMS)
        amount = rng.choice((5, 10, 20))
        args = {
            "place_order": (op_id, account, item, 1),
            "deposit": (op_id, account, amount),
            "debit": (op_id, account, amount),
            "balance_of": (account,),
            "get_balance": (account,),
            "restock": (op_id, item, amount),
            "stock_of": (item,),
            "browse_catalog": (),
            "order_status": ("b-%d" % max(index - 8, 0),),
        }[op]
        arrivals.append((offset, op_id, service, op, args, read))
    return arrivals


def request_maker(app, arrivals):
    """``make(index, due)`` for :meth:`driver.LoadDriver.open_loop`."""
    def make(index, due):
        _offset, op_id, service, op, args, read = arrivals[index]
        stubs = app.read_stubs if read else app.stubs
        record = OltpRecord(op_id, service, op, args, due)
        return record, lambda: getattr(stubs[service], op)(*args)

    return make


def crash_recover_spec(seed, start, duration):
    """One crash-recover cycle of each :data:`CRASH_GROUPS` node."""
    return CampaignSpec(
        nodes=ALL_NODES, seed=seed, start=start, duration=duration,
        crashes=len(CRASH_GROUPS), crash_targets=tuple(CRASH_GROUPS),
        downtime=(0.8, 1.5), capabilities=frozenset(("crash", "recover")))


def rehost_on_recovery(system, injections):
    """Restore each crash victim's replicas by state transfer.

    Plays the fault notifier and the operator for the campaign in
    ``injections``: at a crash the manager drops the node's replicas from
    its records; :data:`REJOIN_SECONDS` after the node recovers it hosts
    them again, and each initialises from a live replica's state.
    """
    sim, manager = system.runtime.sim, system.manager

    def rehost(node):
        for group in CRASH_GROUPS[node]:
            manager.add_member(group, node)

    for at, kind, target in injections:
        if kind == "crash":
            sim.schedule_at(at, lambda node=target: manager.handle_fault(node),
                            "perfbench.fault")
        elif kind == "recover":
            sim.schedule_at(at + REJOIN_SECONDS,
                            lambda node=target: rehost(node),
                            "perfbench.rehost")


def failover_times(injections, driver):
    """Per crash, runtime seconds to the first answered request to one of
    the victim's groups issued at or after the crash."""
    failed = set(map(id, driver.failed()))
    times = []
    for at, kind, target in injections:
        if kind != "crash":
            continue
        served = [r.complete_time - at for r in driver.records
                  if r.service in CRASH_GROUPS.get(target, ())
                  and r.send_time >= at and id(r) not in failed]
        if served:
            times.append(min(served))
    return times


def check_invariants(system, records):
    """Lost, duplicated and diverged operations; returns the report."""
    checker = InvariantChecker()
    states = {group: list(system.states_of(group).values())
              for group in GROUPS}
    ledgers = {group: states[group][0]["ledger"]
               for group in GROUPS if states[group]}
    by_service = {}
    for record in records:
        if record.operation not in READ_OPERATIONS:
            by_service.setdefault(record.service, []).append(record)
    for service, service_records in sorted(by_service.items()):
        checker.check_operations(service_records, ledgers.get(service, {}))
    checker.check_no_duplicates(ledgers)
    checker.check_convergence(states)
    return checker.report


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

RATE = 20.0                # arrivals per second, below saturation
READ_FRACTION = 0.5
FAULT_START = 2.0          # crash-recover window of a faulted episode,
FAULT_SECONDS = 6.0        # runtime seconds from the start of its load
REJOIN_SECONDS = 0.5       # from a node's recovery to re-hosting its replicas
SETUP_TIMEOUT = 15.0
#: Runtime seconds per CPU slice of a load window.  The simulated
#: runtime's are short so that few straddle a change in host speed.
SLICE_SECONDS = {"asyncio": 1.0, "sim": 0.25}


class OltpWorkload:
    """The OLTP application under open-loop load on one runtime.

    ``window`` is the load window of one episode in runtime seconds, or
    None for one episode whose window is the run's ``--seconds``; with a
    window, a run measures ``--seconds`` of load in as many episodes, each
    on a fresh system.  ``quiet``/``drain`` are in runtime seconds too.
    With ``faults`` (sim only) every episode crashes and recovers each
    :data:`CRASH_GROUPS` node once, on a schedule seeded like its traffic,
    and re-hosts its replicas by state transfer (:func:`rehost_on_recovery`).
    """

    def __init__(self, name, why, gated, runtime, window, quiet, drain,
                 faults=False):
        self.name = name
        self.why = why
        self.gated = gated
        self.runtime = runtime
        self.window = window
        self.quiet = quiet
        self.drain = drain
        self.faults = faults

    def build(self, seed, tracer):
        """The deployed application; returns (app, wall seconds)."""
        started = time.perf_counter()
        if self.runtime == "sim":
            runtime, config = SimRuntime(seed=seed), None
        else:
            runtime, config = AsyncioRuntime(seed=seed), TotemConfig.realtime()
        try:
            system = EternalSystem(SERVERS + GATEWAYS, seed=seed,
                                   totem_config=config, runtime=runtime,
                                   rings=RINGS).start()
            system.stabilize(timeout=SETUP_TIMEOUT)
            app = deploy(system, outside_orb_on(runtime), read_leases=True)
            if tracer is not None:
                tracer.wrap_gateways(app.tier, lambda: runtime.now)
            warm_up(app, SETUP_TIMEOUT)
        except BaseException:
            runtime.close()
            raise
        return app, time.perf_counter() - started

    def run(self, seed, seconds, setups, tracer=None):
        episodes = (1 if self.window is None
                    else max(1, int(round(seconds / self.window))))
        failover = []
        outcome = run_episodes(
            Outcome(virtual=self.runtime == "sim"),
            lambda: self.build(seed, tracer),
            lambda app, outcome: self.episode(app, seed, seconds, outcome,
                                              tracer, failover),
            episodes, setups)
        if self.faults:
            outcome.metrics["failover_vs"] = mean(failover)
        return outcome

    def episode(self, app, seed, seconds, outcome, tracer, failover):
        runtime = app.runtime
        window = self.window if self.window is not None else seconds
        episode_seed = seed + outcome.episodes
        arrivals = plan(episode_seed,
                        arrival_offsets(episode_seed, RATE, window),
                        READ_FRACTION)
        driver = LoadDriver(runtime)
        injector = SimInjector(runtime) if self.faults else None

        def load():
            driver.open_loop([arrival[0] for arrival in arrivals],
                             request_maker(app, arrivals))
            if injector is not None:
                injector.arm(ChaosCampaign(crash_recover_spec(
                    episode_seed, FAULT_START, FAULT_SECONDS)))
                rehost_on_recovery(app.system, injector.injections)

        measure(runtime, driver, load, outcome, tracer, window, self.quiet,
                self.drain, SLICE_SECONDS[self.runtime])
        outcome.check(check_invariants(app.system, driver.records))
        if injector is not None:
            failover.extend(failover_times(injector.injections, driver))
        failed = driver.failed()
        if failed:
            outcome.notes.append("first failed request index %d"
                                 % driver.records.index(failed[0]))


OLTP_GATEWAY = OltpWorkload(
    "oltp-gateway",
    "asyncio, E12 topology in-process over loopback UDP: gateway tier, 2 "
    "rings, nested writes and leased reads at 20/s; shows the oversized-"
    "datagram defect",
    gated=False, runtime="asyncio", window=None, quiet=3.0, drain=12.0)

OLTP_SIM = OltpWorkload(
    "oltp-sim",
    "sim, oltp-gateway's application and mix at 20/s in 10-virtual-s "
    "episodes, each crashing and recovering s2 and s5: gateway, 2 rings, "
    "reads, membership, state transfer",
    gated=True, runtime="sim", window=10.0, quiet=2.0, drain=30.0,
    faults=True)
