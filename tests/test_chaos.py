"""Chaos tests: the grid under seeded link-level fault injection.

The fault-tolerance layer's contract, stated as properties:

* **Liveness under loss** — with client/service retries, broker
  redelivery and the Scheduler watchdog enabled, a multi-job set driven
  by Status-RP polling completes despite every non-loopback link
  dropping messages, and every job's output is byte-identical to the
  fault-free result.
* **Determinism of failure** — with retries disabled, the same fault
  seed produces exactly the same failure at exactly the same simulated
  time, run after run (the injector burns one RNG draw per lossy-link
  message, nothing else).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridapp import FaultToleranceConfig, FileRef, JobSpec, Testbed
from repro.net import DeliveryError, RetryPolicy
from repro.osim.programs import make_compute_program
from repro.xmlx import NS, QName

UVA = NS.UVACG

PAYLOAD = b"chaos-proof payload"

#: drop probability the FT layer is expected to absorb (acceptance bar)
DROP_THRESHOLD = 0.20


def _build(n_jobs, drop, fault_seed, retries, perf=False):
    policy = RetryPolicy(
        max_attempts=5, base_delay_s=0.2, backoff_factor=2.0,
        max_delay_s=2.0, timeout_s=30.0,
    )
    tb = Testbed(
        n_machines=4,
        seed=11,
        retry_policy=policy if retries else None,
        fault_tolerance=(
            FaultToleranceConfig(watchdog_period=5.0, stuck_after=20.0)
            if retries
            else None
        ),
        broker_redelivery=policy if retries else None,
        perf=perf,
    )
    if drop:
        tb.network.inject_faults(drop_probability=drop, seed=fault_seed)
    tb.programs.register(
        make_compute_program("work", 2.0, outputs={"out.dat": PAYLOAD})
    )
    client = tb.make_client()
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get("work"))
    for i in range(n_jobs):
        spec.add(JobSpec(name=f"job{i:02d}", executable=FileRef(exe, "job.exe")))
    return tb, client, spec


def _job_dirs(tb, jobset_epr):
    rid = jobset_epr.get(QName(UVA, "ResourceID"))
    state = tb.scheduler.store.load("Scheduler", rid)
    return state[QName(UVA, "job_dirs")]


class TestChaosCompletion:
    def test_ten_jobs_complete_under_twenty_percent_drop(self):
        """The acceptance bar: 10 jobs, 20% loss on every non-loopback
        link, retries enabled -> the set completes and every output is
        byte-identical to the fault-free payload."""
        tb, client, spec = _build(
            n_jobs=10, drop=DROP_THRESHOLD, fault_seed=3, retries=True
        )
        outcome, jobset_epr, _ = tb.run(
            client.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
        )
        assert outcome == "completed"
        assert tb.network.stats.drops > 0, "chaos must actually have bitten"
        dirs = _job_dirs(tb, jobset_epr)
        assert len(dirs) == 10
        for name, dir_epr in sorted(dirs.items()):
            content = tb.run(client.fetch_output(dir_epr, "out.dat"))
            assert content.to_bytes() == PAYLOAD, name

    @settings(max_examples=6, deadline=None)
    @given(
        drop=st.floats(min_value=0.02, max_value=DROP_THRESHOLD),
        fault_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_completion_property_below_threshold(self, drop, fault_seed):
        """Any drop rate up to the threshold, any fault seed: a 5-job
        set still completes with byte-identical outputs."""
        tb, client, spec = _build(
            n_jobs=5, drop=drop, fault_seed=fault_seed, retries=True
        )
        outcome, jobset_epr, _ = tb.run(
            client.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
        )
        assert outcome == "completed"
        for name, dir_epr in sorted(_job_dirs(tb, jobset_epr).items()):
            content = tb.run(client.fetch_output(dir_epr, "out.dat"))
            assert content.to_bytes() == PAYLOAD, name

    def test_fault_free_run_matches_chaos_outputs(self):
        """The no-chaos control: identical payloads, so the chaos runs
        above really did reproduce the fault-free result."""
        tb, client, spec = _build(n_jobs=5, drop=0.0, fault_seed=0, retries=False)
        outcome, jobset_epr, _ = tb.run(client.run_job_set(spec))
        assert outcome == "completed"
        for name, dir_epr in sorted(_job_dirs(tb, jobset_epr).items()):
            content = tb.run(client.fetch_output(dir_epr, "out.dat"))
            assert content.to_bytes() == PAYLOAD, name


class TestChaosWithPerfLayer:
    """Regression: retried/duplicated messages under loss must never
    leave the performance layer's caches stale — no resurrecting a
    destroyed resource, no serving pre-retry state."""

    def _run_with_perf(self, n_jobs=10):
        tb, client, spec = _build(
            n_jobs=n_jobs, drop=DROP_THRESHOLD, fault_seed=3, retries=True,
            perf=True,
        )
        outcome, jobset_epr, _ = tb.run(
            client.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
        )
        return tb, client, outcome, jobset_epr

    def test_completes_at_threshold_with_caching(self):
        tb, client, outcome, jobset_epr = self._run_with_perf()
        assert outcome == "completed"
        assert tb.network.stats.drops > 0, "chaos must actually have bitten"
        dirs = _job_dirs(tb, jobset_epr)
        assert len(dirs) == 10
        for name, dir_epr in sorted(dirs.items()):
            content = tb.run(client.fetch_output(dir_epr, "out.dat"))
            assert content.to_bytes() == PAYLOAD, name

    def test_no_stale_or_resurrected_cache_entries(self):
        """After the chaotic run, every service's cache agrees with its
        database byte-for-byte and holds no destroyed resources."""
        tb, _, outcome, _ = self._run_with_perf(n_jobs=6)
        assert outcome == "completed"
        tb.settle()
        wrappers = [tb.scheduler, tb.broker, tb.node_info]
        wrappers += list(tb.fss.values()) + list(tb.es.values())
        for wrapper in wrappers:
            wrapper.store.assert_coherent()
        assert tb.scheduler.store.hits > 0, "the cache must have been exercised"


class TestRestartUnderFire:
    """Crash-restart durability under packet loss (docs/durability.md):
    20% drop on every lossy link PLUS a mid-run host bounce — of the
    central machine (broker + scheduler) or of a worker node — and the
    job set still completes with byte-identical outputs, with the
    broker's redelivery/drop accounting consistent after the bounce."""

    def _build(self, n_jobs=8):
        # Restart survival needs a retry budget that outlasts the down
        # window; the plain chaos policy's ~3s total backoff does not.
        policy = RetryPolicy(
            max_attempts=8, base_delay_s=0.5, backoff_factor=2.0,
            max_delay_s=3.0, timeout_s=30.0,
        )
        tb = Testbed(
            n_machines=4,
            seed=11,
            retry_policy=policy,
            fault_tolerance=FaultToleranceConfig(
                watchdog_period=5.0, stuck_after=20.0
            ),
            broker_redelivery=policy,
        )
        tb.network.inject_faults(drop_probability=DROP_THRESHOLD, seed=3)
        tb.programs.register(
            make_compute_program("work", 2.0, outputs={"out.dat": PAYLOAD})
        )
        client = tb.make_client()
        spec = client.new_job_set()
        exe = client.add_program_binary(tb.programs.get("work"))
        for i in range(n_jobs):
            spec.add(JobSpec(name=f"job{i:02d}", executable=FileRef(exe, "job.exe")))
        return tb, client, spec

    def _run(self, host, at, down_for=3.0):
        tb, client, spec = self._build()
        tb.restart_host(host, at=at, down_for=down_for)
        outcome, jobset_epr, _ = tb.run(
            client.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
        )
        return tb, client, outcome, jobset_epr

    def _assert_all_outputs(self, tb, client, jobset_epr, n_jobs=8):
        dirs = _job_dirs(tb, jobset_epr)
        assert len(dirs) == n_jobs
        for name, dir_epr in sorted(dirs.items()):
            content = tb.run(client.fetch_output(dir_epr, "out.dat"))
            assert content.to_bytes() == PAYLOAD, name

    def test_broker_scheduler_bounce_under_drop_completes(self):
        tb, client, outcome, jobset_epr = self._run("uvacg-central", at=6.0)
        assert outcome == "completed"
        assert tb.network.stats.drops > 0, "chaos must actually have bitten"
        assert tb.scheduler.restarts == 1
        assert tb.broker.restarts == 1
        self._assert_all_outputs(tb, client, jobset_epr)

    def test_node_bounce_under_drop_completes(self):
        tb, client, outcome, jobset_epr = self._run("node02", at=4.0)
        assert outcome == "completed"
        assert tb.es["node02"].restarts == 1
        self._assert_all_outputs(tb, client, jobset_epr)

    def test_redelivery_accounting_consistent_after_bounce(self):
        """After the broker bounce: every live subscription is a
        persisted resource, and nothing is simultaneously live and
        counted as dropped (the restore reconciles a rolled-back drop)."""
        tb, client, outcome, _ = self._run("uvacg-central", at=10.0)
        assert outcome == "completed"
        tb.settle()
        producer = tb.broker.notification_producer
        live = set(producer.subscriptions)
        persisted = set(tb.broker.store.list_ids("NotificationBroker"))
        assert live <= persisted
        assert live.isdisjoint(producer.dropped_subscribers)
        # Dropped rids were destroyed: none may linger in the store.
        assert persisted.isdisjoint(producer.dropped_subscribers)


class TestFederationUnderFire:
    """The federation layer under chaos (docs/federation.md).

    Two scenarios beyond the single-site chaos suite:

    * **Zone partition + work stealing** — 20% drop everywhere, plus the
      job set's owning zone severed from the rest of the network
      mid-run.  The federated client's Status polls hit a dead
      Scheduler, exhaust retries and *steal* the set to the next zone on
      the ring, whose Scheduler adopts and completes it.
    * **Zone-scheduler bounce** — the owning zone's central machine
      crash-restarts mid-run; client retries bridge the window, the
      restarted Scheduler re-adopts its in-flight job sets
      (``wsrf_recover``), and the set completes with no steal.
    """

    def _build(self, n_jobs=6, drop=DROP_THRESHOLD, fault_seed=3):
        from repro.gridapp import FederationConfig

        # Same stronger policy as TestRestartUnderFire: the retry budget
        # must outlast a zone outage before the client concludes the
        # zone is dead (steal) or the host is back (bounce).
        policy = RetryPolicy(
            max_attempts=8, base_delay_s=0.5, backoff_factor=2.0,
            max_delay_s=3.0, timeout_s=30.0,
        )
        tb = Testbed(
            n_machines=4,
            seed=11,
            federation=FederationConfig(n_zones=2),
            retry_policy=policy,
            fault_tolerance=FaultToleranceConfig(
                watchdog_period=5.0, stuck_after=20.0
            ),
            broker_redelivery=policy,
        )
        if drop:
            tb.network.inject_faults(drop_probability=drop, seed=fault_seed)
        tb.programs.register(
            make_compute_program("work", 2.0, outputs={"out.dat": PAYLOAD})
        )
        fed = tb.make_federated_client()
        spec = fed.new_job_set()
        exe = fed.add_program_binary(tb.programs.get("work"))
        for i in range(n_jobs):
            spec.add(JobSpec(name=f"job{i:02d}", executable=FileRef(exe, "job.exe")))
        owner = fed.zone_for(f"{fed.client.host_name}/jobset-0001")
        owner_index = [z.name for z in tb.zones].index(owner)
        return tb, fed, spec, owner_index

    def _fetch_all(self, tb, fed, sub, n_jobs):
        adopter = next(z for z in tb.zones if z.name == sub.zone)
        rid = sub.jobset_epr.get(QName(UVA, "ResourceID"))
        state = adopter.scheduler.store.load("Scheduler", rid)
        dirs = state[QName(UVA, "job_dirs")]
        assert len(dirs) == n_jobs
        for name, dir_epr in sorted(dirs.items()):
            content = tb.run(fed.fetch_output(dir_epr, "out.dat"))
            assert content.to_bytes() == PAYLOAD, name

    def test_zone_partition_midrun_steals_and_completes(self):
        n_jobs = 6
        tb, fed, spec, owner_index = self._build(n_jobs=n_jobs)
        owner = tb.zones[owner_index].name

        def scenario(env):
            sub = yield from fed.submit(spec)
            assert sub.zone == owner
            # sever the whole owning zone once work is in flight
            yield env.timeout(4.0)
            tb.partition_zone(owner_index)
            outcome, sub = yield from fed.poll_until_complete(
                sub, period=3.0, give_up_after=2000.0
            )
            return outcome, sub

        outcome, sub = tb.run(scenario(tb.env))
        assert outcome == "completed"
        assert tb.network.stats.drops > 0, "chaos must actually have bitten"
        assert fed.steals == 1
        assert sub.zone != owner
        adopter = next(z for z in tb.zones if z.name == sub.zone)
        assert adopter.scheduler.jobsets_stolen == 1
        # the orphaned jobs were re-run on the surviving zone's machines
        self._fetch_all(tb, fed, sub, n_jobs)

    def test_zone_scheduler_bounce_readopts_without_steal(self):
        n_jobs = 6
        tb, fed, spec, owner_index = self._build(n_jobs=n_jobs)
        zone = tb.zones[owner_index]
        tb.restart_host(zone.central.name, at=6.0, down_for=3.0)
        outcome, jobset_epr, _ = tb.run(
            fed.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
        )
        assert outcome == "completed"
        assert zone.scheduler.restarts == 1
        assert zone.broker.restarts == 1
        # re-adoption, not migration: the set finished where it started
        assert fed.steals == 0
        rid = jobset_epr.get(QName(UVA, "ResourceID"))
        dirs = zone.scheduler.store.load("Scheduler", rid)[QName(UVA, "job_dirs")]
        assert len(dirs) == n_jobs
        for name, dir_epr in sorted(dirs.items()):
            content = tb.run(fed.fetch_output(dir_epr, "out.dat"))
            assert content.to_bytes() == PAYLOAD, name


class TestChaosDeterminism:
    @staticmethod
    def _run_without_retries(fault_seed):
        tb, client, spec = _build(
            n_jobs=10, drop=DROP_THRESHOLD, fault_seed=fault_seed, retries=False
        )
        try:
            outcome, _, _ = tb.run(
                client.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
            )
        except DeliveryError as exc:
            outcome = f"fault:{exc}"
        return outcome, tb.env.now, tb.network.stats.drops

    @settings(max_examples=6, deadline=None)
    @given(fault_seed=st.integers(min_value=0, max_value=2**16))
    def test_retries_disabled_faults_deterministically(self, fault_seed):
        """Same seed, no retries: same outcome (usually a fault), same
        simulated clock, same drop count — run twice."""
        first = self._run_without_retries(fault_seed)
        second = self._run_without_retries(fault_seed)
        assert first == second

    def test_retries_disabled_surfaces_the_fault(self):
        """At the threshold a 10-job fail-fast set essentially always
        dies; pin one seed known to fault on the very first exchange."""
        outcome, at, drops = self._run_without_retries(3)
        assert outcome.startswith("fault:")
        assert drops > 0

    def test_different_seeds_differ(self):
        """The seed is really driving the fault pattern."""
        runs = {self._run_without_retries(seed) for seed in (1, 2, 3, 4)}
        assert len(runs) > 1
