"""Stand up the whole UVa Campus Grid testbed on simulated machines.

Mirrors the paper's deployment: every grid machine runs a File System
service and an Execution service (web services in IIS) plus the
ProcSpawn and Processor Utilization Windows services; a central machine
hosts the single Notification Broker, the Scheduler and the Node Info
service.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gridapp.aggregator import AggregatorCatalogService, setup_aggregator
from repro.gridapp.client import GridClient
from repro.gridapp.execution_service import ExecutionService
from repro.gridapp.federation import FederationConfig, Zone
from repro.gridapp.filesystem_service import GRID_ROOT, FileSystemService
from repro.gridapp.node_info import NodeInfoService, setup_node_info
from repro.gridapp.scheduler import SCHEDULING_POLICIES, SchedulerService
from repro.gridapp.tracing import EventTrace
from repro.gridapp.utilization import ProcessorUtilizationService
from repro.gt4 import Gt4ExecutionService, LinuxMachine
from repro.net import Network
from repro.osim import Machine, MachineParams, ProgramRegistry
from repro.sim import Environment
from repro.wsn.batching import enable_batching
from repro.wsn.broker import (
    NotificationBrokerService,
    enable_redelivery,
    federate_brokers,
)
from repro.wsrf import deploy
from repro.wssec import CertificateAuthority
from repro.wssec.x509 import enroll

#: default grid account present on every machine
GRID_USER = "griduser"
GRID_PASSWORD = "gridpw-2004"


class Testbed:
    """One simulated campus grid, ready to run job sets."""

    __test__ = False  # not a pytest test class, despite living in test imports

    def __init__(
        self,
        n_machines: int = 4,
        machine_speeds: Optional[Sequence[float]] = None,
        seed: int = 42,
        utilization_threshold: float = 0.10,
        utilization_period: float = 1.0,
        start_utilization_services: bool = True,
        scheduling_policy: str = "best",
        cores_per_machine: int = 1,
        n_linux_machines: int = 0,
        retry_policy=None,
        fault_tolerance=None,
        broker_redelivery=None,
        observability: bool = False,
        perf=None,
        sanitize: bool = False,
        federation=None,
    ) -> None:
        """Assemble the grid in one pass: check the options, then deploy
        each service with its whole configuration.  The defaults build
        the paper's single-site Fig. 3 grid with every optional layer off.

        - ``n_machines``: Windows grid machines, each with an FSS and an ES (README.md)
        - ``machine_speeds``: one CPU speed each, default 1.0x-2.0x (EXPERIMENTS.md, FIG-3)
        - ``seed``: ``self.rng``; site *z*'s Scheduler uses ``seed + 1 + z`` (EXPERIMENTS.md, D-6)
        - ``utilization_threshold``: the change a NIS report waits for (EXPERIMENTS.md, D-7)
        - ``utilization_period``: seconds between utilization samples (EXPERIMENTS.md, D-7)
        - ``start_utilization_services``: start those samplers now (EXPERIMENTS.md, D-7)
        - ``scheduling_policy``: one of ``SCHEDULING_POLICIES`` (EXPERIMENTS.md, D-6)
        - ``cores_per_machine``: cores of each Windows grid machine (EXPERIMENTS.md, D-7)
        - ``n_linux_machines``: GT4 machines beside them (examples/mixed_campus_grid.py)
        - ``retry_policy``: every service's and client's retries (docs/fault_tolerance.md)
        - ``fault_tolerance``: Scheduler re-dispatch, off when None (docs/fault_tolerance.md)
        - ``broker_redelivery``: a RetryPolicy for every broker (docs/fault_tolerance.md)
        - ``observability``: metrics, spans and events as ``self.obs`` (docs/observability.md)
        - ``perf``: truthy turns the performance layer on (docs/performance.md)
        - ``sanitize``: the race sanitizer as ``self.san`` (docs/static_analysis.md)
        - ``federation``: a ``FederationConfig`` shards the grid (docs/federation.md)
        """
        if n_machines < 1:
            raise ValueError("a grid needs at least one machine")
        if machine_speeds is None:
            # Heterogeneous campus desktops: 1.0x to 2.0x, deterministic.
            machine_speeds = [1.0 + (i % 4) * 0.333 for i in range(n_machines)]
        if len(machine_speeds) != n_machines:
            raise ValueError("machine_speeds length must equal n_machines")
        if scheduling_policy not in SCHEDULING_POLICIES:
            raise ValueError(f"scheduling_policy {scheduling_policy!r} not in {SCHEDULING_POLICIES}")
        if federation is not None:
            if not isinstance(federation, FederationConfig):
                raise TypeError(f"federation must be a FederationConfig or None: {federation!r}")
            if n_linux_machines:
                raise ValueError("federation and n_linux_machines are mutually exclusive")
            if federation.n_zones > n_machines:
                raise ValueError(
                    f"{federation.n_zones} zones need at least that many grid "
                    f"machines (got {n_machines})"
                )

        self.env = Environment()
        self.network = Network(self.env)
        self.trace = self.network.trace = EventTrace(self.env)
        # The collector and the sanitizer attach before any service
        # deploys: every wrapper registers with the one and instruments
        # its store for the other at construction.
        self.obs = None
        if observability:
            from repro.obs import Observability

            self.obs = Observability(self.env).attach(self.network)
        self.san = None
        if sanitize:
            from repro.analysis.sanitizer import RaceSanitizer

            self.san = RaceSanitizer(self.env)
        self.rng = np.random.default_rng(seed)
        self.ca = CertificateAuthority()
        self.programs = ProgramRegistry()
        self.perf = bool(perf)
        self.retry_policy = retry_policy
        self.federation = federation
        self._broker_redelivery = broker_redelivery
        self._client_seq = 0

        # -- deploy: root, sites, then grid machines ------------------------------
        # The paper's Fig. 3 deployment is one site on uvacg-central.  A
        # federation (docs/federation.md) adds a root machine (root broker
        # + aggregator catalog) and has one site per zone, the grid
        # machines sharded round-robin across them.  Any Scheduler may
        # dispatch to any grid machine, so all share one certificate map
        # and one GT4 set, filled in as the machines enroll.
        machine_certs: Dict[str, object] = {}
        gt4_machines: set = set()
        shared = dict(
            federation=federation, fault_tolerance=fault_tolerance,
            scheduling_policy=scheduling_policy, machine_certs=machine_certs,
            gt4_machines=gt4_machines,
        )
        names = [("uvacg-central", None)]
        self.root: Optional[Machine] = None
        self.root_broker = self.aggregator = None
        if federation is not None:
            self.root = self._central_machine("uvacg-root")
            self.root_broker = self._add_broker(self.root, "root")
            self.aggregator = self._deploy(
                AggregatorCatalogService, self.root, "AggregatorCatalog", "root",
                staleness_s=federation.staleness_s,
            )
            shared.update(
                subscribe_broker_epr=self.root_broker.service_epr(),
                aggregator_epr=self.aggregator.service_epr(),
            )
            names = [(f"uvacg-z{z:02d}", f"z{z:02d}") for z in range(federation.n_zones)]
        sites = [
            self._add_site(host, zone, dict(shared, rng=np.random.default_rng(seed + 1 + z)))
            for z, (host, zone) in enumerate(names)
        ]
        self.zones: List[Zone] = sites if federation is not None else []

        self.machines: List[Machine] = []
        self.linux_machines: List[LinuxMachine] = []
        self.fss: Dict[str, object] = {}
        self.es: Dict[str, object] = {}
        self.utilization_services: Dict[str, ProcessorUtilizationService] = {}
        for i in range(n_machines + n_linux_machines):
            if i < n_machines:
                machine = Machine(
                    self.network,
                    f"node{i:02d}",
                    params=MachineParams(
                        cpu_speed=float(machine_speeds[i]), cores=cores_per_machine
                    ),
                    programs=self.programs,
                )
                machine.fs.mkdir(GRID_ROOT)
                es_cls = ExecutionService
            else:
                # Linux/GT4 machines (paper 6: UVaCG's Windows+Linux goal)
                machine = LinuxMachine(
                    self.network, f"linux{i - n_machines:02d}", programs=self.programs
                )
                machine.trusted_ca = self.ca
                self.linux_machines.append(machine)
                gt4_machines.add(machine.name)
                es_cls = Gt4ExecutionService
            util = self._add_grid_machine(
                machine, sites[i % len(sites)], es_cls,
                utilization_threshold, utilization_period,
            )
            machine_certs[machine.name] = machine.cert
            if start_utilization_services:
                util.start()

        # Seed the catalogs now that every machine exists.
        for site in sites:
            setup_node_info(site.node_info, site.machines)
        if federation is not None:
            setup_aggregator(self.aggregator, sites)

        # The first site doubles as the default one, so single-site
        # helpers (make_client, restart_host, existing assertions) keep
        # working against a federated testbed.
        self.central = sites[0].central
        self.broker = sites[0].broker
        self.node_info = sites[0].node_info
        self.scheduler = sites[0].scheduler

    def _deploy(self, service_cls, machine: Machine, path: str, zone: Optional[str],
                **wiring):
        """Deploy one service with its whole configuration: the perf
        layer, the zone it serves (None: single site), its client's
        retry policy and *wiring*, values for its ``DEPLOYMENT`` names."""
        wrapper = deploy(service_cls, machine, path, perf=self.perf)
        wrapper.zone = zone
        wrapper.client.retry_policy = self.retry_policy
        for name, value in wiring.items():
            setattr(wrapper, name, value)
        return wrapper

    def _add_broker(self, machine: Machine, zone: Optional[str]):
        """A broker whose producer redelivers under the testbed's policy,
        uplinked to the root broker once there is one.  Under the perf
        layer its fan-out batches: brokers are the producers with
        per-event subscriber multiplicity (the ES->broker leg is already
        a single message per event)."""
        broker = self._deploy(NotificationBrokerService, machine, "NotificationBroker", zone)
        enable_redelivery(broker, self._broker_redelivery)
        if self.perf:
            enable_batching(broker)
        if self.root_broker is not None:
            federate_brokers(broker, self.root_broker.service_epr())
        return broker

    def _central_machine(self, name: str) -> Machine:
        machine = Machine(
            self.network, name, params=MachineParams(cpu_speed=2.0),
            programs=self.programs,
        )
        self._enroll(machine)
        return machine

    def _add_site(self, host_name: str, zone: Optional[str], scheduler_wiring) -> Zone:
        """One central machine with its broker, NIS and Scheduler, the
        Scheduler wired to both and to *scheduler_wiring*."""
        central = self._central_machine(host_name)
        broker = self._add_broker(central, zone)
        node_info = self._deploy(NodeInfoService, central, "NodeInfo", zone)
        scheduler = self._deploy(
            SchedulerService, central, "Scheduler", zone,
            nis_epr=node_info.service_epr(), broker_epr=broker.service_epr(),
            **scheduler_wiring,
        )
        return Zone(name=zone, central=central, broker=broker, node_info=node_info,
                    scheduler=scheduler)

    def _add_grid_machine(
        self, machine: Machine, site: Zone, es_cls, threshold: float, period: float
    ) -> ProcessorUtilizationService:
        """Wire *machine* into *site*: grid account, X.509 identity, File
        System + Execution services, and the utilization reporter feeding
        the site's NIS (returned, not yet started)."""
        machine.users.add_user(GRID_USER, GRID_PASSWORD)
        self._enroll(machine)
        self.machines.append(machine)
        site.machines.append(machine)
        self.fss[machine.name] = self._deploy(
            FileSystemService, machine, "FileSystem", site.name
        )
        self.es[machine.name] = self._deploy(
            es_cls, machine, "ExecService", site.name,
            broker_epr=site.broker.service_epr(),
        )
        util = ProcessorUtilizationService(
            machine, site.node_info.service_epr(), threshold=threshold, period=period
        )
        self.utilization_services[machine.name] = util
        return util

    def _enroll(self, machine: Machine) -> None:
        machine.keys, machine.cert = enroll(self.ca, machine.name)

    # -- clients -----------------------------------------------------------------------

    def make_client(
        self,
        host_name: Optional[str] = None,
        username: str = GRID_USER,
        password: str = GRID_PASSWORD,
        grid_identity: bool = False,
        retry_policy=None,
    ) -> GridClient:
        """A scientist's machine, attached to the campus network.

        ``grid_identity=True`` enrolls the scientist with the campus CA
        and adds grid-mapfile entries on every Linux machine (mapping
        the subject to the shared grid account) — required before the
        Scheduler may dispatch this client's jobs to GT4 nodes.
        """
        if host_name is None:
            self._client_seq += 1
            host_name = f"client{self._client_seq:02d}"
        user_keys = user_cert = None
        if grid_identity:
            subject = f"CN={username}/O=UVaCG/host={host_name}"
            user_keys, user_cert = enroll(self.ca, subject)
            for machine in self.linux_machines:
                machine.add_gridmap_entry(subject, GRID_USER)
        return GridClient(
            self.network,
            host_name,
            username,
            password,
            scheduler_epr=self.scheduler.service_epr(),
            scheduler_cert=self.central.cert,
            user_keys=user_keys,
            user_cert=user_cert,
            retry_policy=(
                retry_policy if retry_policy is not None else self.retry_policy
            ),
        )

    def make_federated_client(self, **kwargs):
        """A scientist's machine with federation-aware routing.

        Wraps :meth:`make_client` in a
        :class:`repro.gridapp.federation.FederatedGridClient` that
        shards job sets across zones by consistent hash and fails over
        (and, by default, steals work) when a zone dies.
        """
        from repro.gridapp.federation import FederatedGridClient, ZoneRoute

        if not self.zones:
            raise ValueError(
                "make_federated_client needs Testbed(federation=...)"
            )
        routes = [
            ZoneRoute(z.name, z.scheduler.service_epr(), z.central.cert)
            for z in self.zones
        ]
        return FederatedGridClient(
            self.make_client(**kwargs), routes, self.federation
        )

    # -- execution helpers -----------------------------------------------------------------

    def run(self, coroutine):
        """Run a client coroutine to completion; returns its value."""
        proc = self.env.process(coroutine)
        self.env.run(until=proc)
        return proc.value

    def run_job_set(self, client: GridClient, spec):
        """Submit *spec* and simulate until it completes (or fails).

        Returns (outcome, jobset_epr, topic).
        """
        return self.run(client.run_job_set(spec))

    def settle(self, extra_time: float = 10.0) -> None:
        """Advance simulated time by *extra_time* so in-flight messages land.

        Idle utilization samplers park, so a finished grid's heap may
        drain before the deadline; the clock still ends there.
        """
        self.env.run(until=self.env.now + extra_time)

    # -- fault injection ---------------------------------------------------------------

    def restart_host(self, name: str, at: Optional[float] = None,
                     down_for: float = 5.0):
        """Schedule a crash-restart of machine *name* (docs/durability.md).

        At time *at* (immediately if None/past) the host's durable state
        is checkpointed — what its disks hold at the instant of the power
        cut — and the host goes down: requests and replies in flight die
        with ``DeliveryError``, handlers mid-dispatch become zombies that
        can no longer persist or send.  After *down_for* simulated
        seconds the host boots from the checkpoint: volatile state
        (caches, locks, watchers, processes) is gone, services re-adopt
        in-flight work via ``wsrf_recover``, and the boot epoch advances
        so leftovers of the old boot cannot write into the new one.

        Returns the simpy process so callers can wait on the reboot.
        """
        machine = self._machine_named(name)
        host = machine.host

        def _bounce(env):
            if at is not None and at > env.now:
                yield env.timeout(at - env.now)
            span = None
            if self.obs is not None:
                span = self.obs.start_span(
                    "host.restart", attrs={"host": name, "down_for": down_for}
                )
            snap = host.snapshot()
            host.down = True
            yield env.timeout(down_for)
            host.restore(snap)
            host.down = False
            if span is not None:
                self.obs.finish(span)

        return self.env.process(_bounce(self.env))

    def zone_hosts(self, index: int) -> set:
        """Host names belonging to zone *index* (central + grid machines)."""
        zone = self.zones[index]
        return {zone.central.name} | {m.name for m in zone.machines}

    def partition_zone(self, index: int) -> None:
        """Sever zone *index* from every other host on the network.

        The zone keeps running internally (its Scheduler can still talk
        to its own machines) but nothing crosses the cut — clients time
        out against its Scheduler and its broker's uplink to the root
        goes dark.  Undo with :meth:`heal_zone`.
        """
        inside = self.zone_hosts(index)
        for a in inside:
            for b in self.network.hosts:
                if b not in inside:
                    self.network.partition(a, b)

    def heal_zone(self, index: int) -> None:
        inside = self.zone_hosts(index)
        for a in inside:
            for b in list(self.network.hosts):
                if b not in inside:
                    self.network.heal(a, b)

    def _machine_named(self, name: str) -> Machine:
        if self.central.name == name:
            return self.central
        if self.root is not None and self.root.name == name:
            return self.root
        for zone in self.zones:
            if zone.central.name == name:
                return zone.central
        for machine in self.machines:
            if machine.name == name:
                return machine
        raise KeyError(f"no grid machine named {name!r}")
