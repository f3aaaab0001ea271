"""Scenario assembly: the replicated database model of Figure 2.

One :class:`Scenario` builds an entire experiment from a declarative
:class:`ScenarioConfig`: the SSF-style simulator, the network fabric,
per-site CPU pools / storage / lock manager / database server, the
centralized runtime, GCS stack and replication protocol (for replicated
configurations — looked up by name in :mod:`repro.protocols`, so the
same grid runs under any registered protocol), the TPC-C client
population, fault injectors, and the observation machinery.  ``Scenario.run()`` executes until the configured number of
transactions completed (plus a drain window) and returns a
:class:`ScenarioResult` with every log the paper's figures need.

Centralized baselines (``sites=1``) run without any replication or
group-communication machinery, exactly like the paper's 1/3/6-CPU
single-site reference curves.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..db.lock import LockManager
from ..db.server import DatabaseServer
from ..db.storage import Storage
from ..db.transactions import reset_tx_counter
from ..gcs.config import GcsConfig
from ..gcs.stack import GroupCommunication
from ..gcs.statetransfer import RecoveryEvent
from ..monitors import InvariantViolation, build_hub, resolve_monitors
from ..net.address import Endpoint, GroupAddress
from ..net.capture import PacketCapture
from ..net.network import Network
from ..net.udp import UdpSocket
from ..placement import PLACEMENT_POLICIES, fragment_of_site, sites_of_fragment
from ..protocols import (
    ProtocolContext,
    ProtocolGroup,
    ReplicationProtocol,
    build_protocol,
)
from ..tpcc.client import ClientPool
from ..tpcc.schema import warehouses_for_clients
from ..tpcc.workload import TpccWorkload
from .cpu import CpuPool
from .csrt import MODELED, SiteRuntime
from .faults import FaultInjector, FaultPlan
from .gcpause import paused_gc
from .kernel import Simulator
from .metrics import MetricsCollector, ResourceSampler, SampleSeries
from .rng import derive_rng
from .safety import CommitLog, check_consistency

__all__ = ["ScenarioConfig", "Scenario", "ScenarioResult", "Site"]

_GROUP_PORT = 7000

#: Artifact format tag; bump when the serialized layout changes.
RESULT_FORMAT = "repro.scenario_result/2"


@dataclass
class ScenarioConfig:
    """Everything that defines one experiment run."""

    sites: int = 1
    cpus_per_site: int = 1
    clients: int = 100
    #: Stop after this many client transactions completed (commit+abort).
    transactions: int = 2000
    seed: int = 42
    #: Replication protocol wired behind replicated configurations
    #: (``sites > 1``); see :mod:`repro.protocols`.  Centralized
    #: baselines ignore it.
    protocol: str = "dbsm"
    #: Number of data fragments (partial replication).  ``1`` — the
    #: default — is full replication: one global group, any protocol.
    #: ``fragments > 1`` splits the warehouses across per-fragment
    #: replica groups, each with its own GCS stack; only the
    #: ``"partial"`` protocol understands that topology.
    fragments: int = 1
    #: Warehouse->fragment placement policy (:mod:`repro.placement`).
    #: Ignored while ``fragments == 1``.
    placement: str = "range"
    #: Runtime invariant monitors wired into the event path (names from
    #: :mod:`repro.monitors`, or ``"all"``).  Empty — the default —
    #: means monitoring is off and the run is bit-identical to the
    #: pre-monitor code path; centralized baselines ignore it like
    #: they ignore ``protocol``.
    monitors: Tuple[str, ...] = ()
    gcs: GcsConfig = field(default_factory=GcsConfig)
    #: Site index -> fault plan (sites without an entry run fault-free).
    faults: Dict[int, FaultPlan] = field(default_factory=dict)
    clock_mode: str = MODELED
    #: Optional read-set table-lock escalation threshold (§3.3 ablation).
    readset_escalation_threshold: Optional[int] = None
    sample_interval: float = 5.0
    #: Hard wall on simulated time (faulty runs may never hit the target).
    max_sim_time: float = 20_000.0
    drain_time: float = 15.0
    probe_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.sites < 1 or self.cpus_per_site < 1 or self.clients < 1:
            raise ValueError("sites, cpus and clients must be positive")
        if self.transactions < 1:
            raise ValueError("transactions must be positive")
        # ``not x > 0`` rather than ``x <= 0``: NaN must fail too
        for name in ("sample_interval", "max_sim_time", "probe_interval"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.drain_time >= 0:
            raise ValueError("drain_time must be non-negative")
        if not self.protocol or not isinstance(self.protocol, str):
            raise ValueError("protocol must be a non-empty protocol name")
        if self.fragments < 1:
            raise ValueError("fragments must be positive")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {PLACEMENT_POLICIES}"
            )
        if self.fragments > 1:
            if self.protocol != "partial":
                raise ValueError(
                    "fragments > 1 requires the 'partial' protocol "
                    f"(got {self.protocol!r})"
                )
            if self.sites < self.fragments:
                raise ValueError(
                    f"{self.fragments} fragments need at least that many "
                    f"sites (have {self.sites})"
                )
            if warehouses_for_clients(self.clients) < self.fragments:
                raise ValueError(
                    f"{self.fragments} fragments need at least that many "
                    f"warehouses ({self.clients} clients size only "
                    f"{warehouses_for_clients(self.clients)})"
                )
        if isinstance(self.monitors, str):
            self.monitors = (self.monitors,)
        else:
            self.monitors = tuple(self.monitors)
        if self.monitors:
            resolve_monitors(self.monitors)  # unknown names fail here

    # ------------------------------------------------------------------
    # serialization (runner artifacts, resume-matching)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready encoding of the configuration: its fields, nothing else."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["monitors"] = list(self.monitors)
        data["gcs"] = self.gcs.to_dict()
        data["faults"] = {
            str(site): plan.to_dict() for site, plan in self.faults.items()
        }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioConfig":
        """Read :meth:`to_dict`'s encoding; an unknown key is a ValueError."""
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown ScenarioConfig keys {sorted(unknown)}")
        kwargs = dict(data)
        if "gcs" in kwargs:
            kwargs["gcs"] = GcsConfig.from_dict(kwargs["gcs"])
        if "faults" in kwargs:
            kwargs["faults"] = {
                int(site): FaultPlan.from_dict(plan)
                for site, plan in kwargs["faults"].items()
            }
        return cls(**kwargs)


@dataclass
class Site:
    """The assembled components of one database site."""

    index: int
    cpus: CpuPool
    storage: Storage
    server: DatabaseServer
    clients: ClientPool
    workload: TpccWorkload
    runtime: Optional[SiteRuntime] = None
    gcs: Optional[GroupCommunication] = None
    replica: Optional[ReplicationProtocol] = None
    injector: Optional[FaultInjector] = None


class ScenarioResult:
    """Run outputs, by value: metrics, resource samples, capture totals,
    commit logs, protocol counters, rejoin timelines and violations.

    ``Scenario.run`` and :meth:`from_dict` build it through this one
    constructor, so the result of a run you call yourself and every
    ``run_campaign`` cell — in-process, worker or artifact — carry the
    same attributes and answer every metric, commit-log and safety
    question identically.  No result holds the simulation graph; its
    live state stays on the :class:`Scenario` (``scenario.sites``).
    """

    def __init__(
        self,
        config: ScenarioConfig,
        metrics: MetricsCollector,
        sampler: SampleSeries,
        capture: PacketCapture,
        sim_time: float,
        commit_logs: List[CommitLog],
        site_stats: Dict[str, Dict[str, int]],
        recovery_events: List[RecoveryEvent],
        violations: List[InvariantViolation],
    ):
        self.config = config
        self.metrics = metrics
        self.sampler = sampler
        self.capture = capture
        self.sim_time = sim_time
        self._commit_logs = commit_logs
        #: Per-site protocol counters (protocol-specific; e.g. the
        #: certifier's for "dbsm").
        self.site_stats = site_stats
        #: Rejoin timelines (recovery-time metrics): one event per
        #: crash→recover or partition→heal rejoin across all sites.
        self.recovery_events = recovery_events
        #: Invariant breaches recorded by the run's monitors (empty when
        #: monitoring is off *or* every enabled monitor stayed quiet —
        #: the ``violations`` metric distinguishes the two).
        self.violations = violations

    def commit_logs(self) -> List[CommitLog]:
        return list(self._commit_logs)

    # -- recovery metrics -------------------------------------------------
    def completed_rejoins(self) -> List[RecoveryEvent]:
        return [e for e in self.recovery_events if e.live_at >= 0]

    def check_safety(self) -> Dict[str, int]:
        """All operational sites committed the same sequence (§5.3).

        One-copy equivalence holds *per fragment group*: sites
        replicating different fragments legitimately hold disjoint logs,
        so each group is checked against its own reference log (full
        replication is the one group of every site).  Commit logs are
        stored in site order, which makes the site→group mapping
        recoverable from the config without any artifact-format change.
        Centralized runs keep no commit log and check nothing.
        """
        config = self.config
        groups: Dict[int, List[CommitLog]] = {}
        for site, log in enumerate(self._commit_logs):
            fragment = fragment_of_site(site, config.sites, config.fragments)
            groups.setdefault(fragment, []).append(log)
        divergences: Dict[str, int] = {}
        for group_logs in groups.values():
            divergences.update(check_consistency(group_logs))
        return divergences

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready encoding carrying everything the figures need:
        transaction records, resource samples, commit logs, per-site
        protocol counters and the capture's byte/packet totals."""
        return {
            "format": RESULT_FORMAT,
            "config": self.config.to_dict(),
            "sim_time": self.sim_time,
            "metrics": self.metrics.to_dict(),
            "samples": self.sampler.to_dict(),
            "capture": {
                "total_bytes": self.capture.total_bytes,
                "total_packets": self.capture.total_packets,
            },
            "commit_logs": [log.to_dict() for log in self._commit_logs],
            "site_stats": self.site_stats,
            "recovery": [event.to_dict() for event in self.recovery_events],
            "violations": [v.to_dict() for v in self.violations],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioResult":
        if data.get("format") != RESULT_FORMAT:
            raise ValueError(
                f"unsupported result format {data.get('format')!r} "
                f"(expected {RESULT_FORMAT!r})"
            )
        capture = PacketCapture(keep_entries=False)
        capture.total_bytes = int(data["capture"]["total_bytes"])
        capture.total_packets = int(data["capture"]["total_packets"])
        return cls(
            ScenarioConfig.from_dict(data["config"]),
            MetricsCollector.from_dict(data["metrics"]),
            SampleSeries.from_dict(data["samples"]),
            capture,
            float(data["sim_time"]),
            [CommitLog.from_dict(log) for log in data["commit_logs"]],
            {
                site: {k: int(v) for k, v in stats.items()}
                for site, stats in data["site_stats"].items()
            },
            [RecoveryEvent.from_dict(event) for event in data["recovery"]],
            [InvariantViolation.from_dict(v) for v in data["violations"]],
        )


class Scenario:
    """Builds and runs one experiment."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # Fresh transaction-id stream per scenario: cell results become a
        # pure function of the config, so a campaign's cells can run in
        # any order — or in a worker pool — with bit-identical results.
        reset_tx_counter()
        self.sim = Simulator()
        self.capture = PacketCapture(keep_entries=False)
        self.network = Network(self.sim, capture=self.capture)
        self.metrics = MetricsCollector()
        self.sites: List[Site] = []
        # One GCS group per fragment, each with its own address/port,
        # sequencer, views and state transfer.  Full replication is the
        # one-fragment case: group "frag0" at port 7000, every site a
        # member.
        self._groups: List[GroupAddress] = [
            GroupAddress(f"frag{g}", _GROUP_PORT + g)
            for g in range(config.fragments)
        ]
        self._site_fragment: List[int] = [
            fragment_of_site(i, config.sites, config.fragments)
            for i in range(config.sites)
        ]
        self._members_of: List[Dict[int, Endpoint]] = [
            {
                i: Endpoint(f"site{i}", _GROUP_PORT + g)
                for i in sites_of_fragment(g, config.sites, config.fragments)
            }
            for g in range(config.fragments)
        ]
        self._protocol_group = ProtocolGroup()
        #: Runtime invariant monitors (None when disabled): observe-only
        #: probes on the event path, zero footprint when off.
        self.monitors = build_hub(config, lambda: self.sim.now)
        self._build_sites()
        self._schedule_partitions()
        self.sampler = ResourceSampler(
            self.sim,
            interval=config.sample_interval,
            cpu_pools=[s.cpus for s in self.sites],
            storages=[s.storage for s in self.sites],
            capture=self.capture,
        )
        self._done = False

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _build_sites(self) -> None:
        config = self.config
        replicated = config.sites > 1
        share, extra = divmod(config.clients, config.sites)
        for index in range(config.sites):
            site = self._build_site(
                index,
                replicated,
                clients=share + (1 if index < extra else 0),
                first_client_id=index * share + min(index, extra),
            )
            self.sites.append(site)

    def _build_site(
        self,
        index: int,
        replicated: bool,
        clients: int,
        first_client_id: int,
    ) -> Site:
        config = self.config

        name = f"site{index}"
        cpus = CpuPool(self.sim, config.cpus_per_site, name=f"{name}.cpu")
        storage = Storage(self.sim, name=f"{name}.disk")
        locks = LockManager(self.sim, f"{name}.locks")
        server = DatabaseServer(
            self.sim, name, cpus, storage, locks, metrics=self.metrics
        )
        workload = TpccWorkload(
            warehouses=warehouses_for_clients(config.clients),
            rng=derive_rng(config.seed, "workload", index),
            site_index=index,
            site_count=config.sites,
            readset_escalation_threshold=config.readset_escalation_threshold,
        )
        site = Site(
            index=index,
            cpus=cpus,
            storage=storage,
            server=server,
            clients=None,  # type: ignore[arg-type]  (set below)
            workload=workload,
        )
        if replicated:
            self._attach_replication(site)
        site.clients = ClientPool(
            self.sim,
            server,
            workload,
            clients,
            first_id=first_client_id,
            submit=site.replica.client_submit if site.replica else None,
        )
        return site

    def _attach_replication(self, site: Site) -> None:
        config = self.config
        index = site.index
        fragment = self._site_fragment[index]
        group_address = self._groups[fragment]
        members = self._members_of[fragment]
        host = self.network.add_host(f"site{index}")
        socket = UdpSocket(host, group_address.port)
        socket.join(group_address)
        plan = config.faults.get(index, FaultPlan())
        injector = FaultInjector(plan) if plan.has_faults() else None
        runtime = SiteRuntime(
            self.sim,
            site.cpus,
            socket,
            mode=config.clock_mode,
            interceptor=injector,
            name=f"site{index}.csrt",
        )
        gcs = GroupCommunication(
            runtime,
            index,
            members,
            group_address,
            config=config.gcs,
        )
        replica = build_protocol(
            config.protocol,
            ProtocolContext(
                site_id=index,
                server=site.server,
                gcs=gcs,
                config=config,
                group=self._protocol_group,
            ),
        )
        site.runtime = runtime
        site.gcs = gcs
        site.replica = replica
        site.injector = injector
        if self.monitors is not None:
            probe = self.monitors.bind_site(index, f"site{index}", gcs)
            replica.monitor = probe
            gcs.monitor = probe
            gcs.total_order.monitor = probe
            gcs.views.monitor = probe
        gcs.on_live = lambda: self._site_live(site)
        gcs.on_excluded = lambda: self._excluded_site(site)
        handlers = {"crash": self._crash_site, "recover": self._recover_site}
        for time, action in plan.actions:
            if action in handlers:
                self.sim.call(time, handlers[action], site)

    def _crash_site(self, site: Site) -> None:
        assert site.replica is not None
        site.replica.crash()
        site.clients.stop_all()

    # ------------------------------------------------------------------
    # recovery & partitions (fault actions: recover / partition / heal)
    # ------------------------------------------------------------------
    def _recover_site(self, site: Site) -> None:
        """The ``recover`` action: restart a crashed site's process with
        empty volatile state and begin its rejoin (announce → merge view
        → state transfer → backlog replay → live)."""
        assert site.runtime is not None
        site.runtime.recover()
        self._begin_rejoin(site)

    def _begin_rejoin(self, site: Site, silent: bool = True) -> None:
        assert site.replica is not None and site.gcs is not None
        site.replica.begin_rejoin()
        site.gcs.rejoin(silent=silent)

    def _excluded_site(self, site: Site) -> None:
        """The site's stack detected that the group excluded it while it
        was alive (a healed partition minority, or a false suspicion):
        it must discard its diverged/stale state and rejoin via state
        transfer.  No announcement silence needed — the exclusion is
        the very thing that was detected."""
        site.clients.stop_all()
        self._begin_rejoin(site, silent=False)

    def _site_live(self, site: Site) -> None:
        """State transfer completed: the site serves clients again."""
        site.clients.restart()

    def _schedule_partitions(self) -> None:
        """Schedule the network cut/heal boundaries.  Which sites must
        rejoin afterwards is not inferred from the topology: an excluded
        member discovers its exclusion itself once it hears the primary
        component's higher-view traffic (see
        :meth:`repro.gcs.stack.GroupCommunication._detect_exclusion`)
        and re-enters through the state-transfer path."""
        config = self.config
        boundaries = {t for plan in config.faults.values()
                      for t, action in plan.actions if action in ("partition", "heal")}
        if not boundaries or config.sites < 2:
            return
        for t in sorted(boundaries):
            self.sim.call(t, self._apply_partition_state)

    def _partition_components_now(self) -> List[set]:
        """Active partition components: the sites whose cut is open now,
        grouped by its start.  Sites cut at the *same instant* share a
        component and keep talking to each other; sites cut at different
        instants do not (the documented ``partition`` semantics)."""
        now = self.sim.now
        groups: Dict[float, set] = {}
        for index, plan in self.config.faults.items():
            for start, end in plan.episodes("partition"):
                if start <= now < end:
                    groups.setdefault(start, set()).add(index)
        return [groups[t] for t in sorted(groups)]

    def _apply_partition_state(self) -> None:
        components = self._partition_components_now()
        if components:
            self.network.partition(
                [{f"site{i}" for i in component} for component in components]
            )
        else:
            self.network.heal()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        self.sampler.start()
        for site in self.sites:
            if site.gcs is not None:
                site.gcs.start()
        self.sim.call(self.config.probe_interval, self._probe)
        # Collector policy: ``core/gcpause.py``.  Called directly, this
        # method sweeps once, fully, after the run; under the campaign
        # runner's pause it sweeps nothing.  The sweep is for memory: it
        # reclaims the cyclic graphs of earlier direct runs, which a
        # paused run never frees (numbers in ``core/gcpause.py``).
        with paused_gc() as paused:
            self.sim.run(until=self.config.max_sim_time)
        if paused:
            gc.collect()
        replicated = [s for s in self.sites if s.replica is not None]
        return ScenarioResult(
            self.config,
            self.metrics,
            self.sampler.series(),
            self.capture,
            self.sim.now,
            [s.replica.commit_log for s in replicated],
            {s.server.name: s.replica.protocol_stats() for s in replicated},
            [
                event
                for s in self.sites
                if s.gcs is not None
                for event in s.gcs.transfer.events
            ],
            self.monitors.finish() if self.monitors is not None else [],
        )

    def _probe(self) -> None:
        if len(self.metrics.outcome) >= self.config.transactions:
            if not self._done:
                self._done = True
                for site in self.sites:
                    site.clients.stop_all()
                self.sim.call(self.config.drain_time, self.sim.stop)
            return
        self.sim.call(self.config.probe_interval, self._probe)
