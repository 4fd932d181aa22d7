"""Failure-injection tests: the testbed under partial failure.

The paper's testbed ran on a real campus network where machines reboot
and links drop.  These tests inject failures into the simulated fabric
and assert the system degrades the way a message-based architecture
should: faults surface as DeliveryErrors/SoapFaults at the caller,
unaffected machines keep working, and one-way messages are lost silently
(the documented WS-Notification delivery semantics).
"""

import pytest

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.net import DeliveryError
from repro.osim.programs import make_compute_program
from repro.soap import SoapFault
from repro.xmlx import NS, QName

UVA = NS.UVACG


@pytest.fixture()
def testbed():
    tb = Testbed(n_machines=3, seed=31)
    tb.programs.register(make_compute_program("quick", 1.0, outputs={"o": b"1"}))
    tb.programs.register(make_compute_program("slow", 60.0, outputs={"o": b"1"}))
    return tb


def _one_job(client, tb, program="quick"):
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get(program))
    spec.add(JobSpec(name="j1", executable=FileRef(exe, "job.exe")))
    return spec


class TestHostFailures:
    def test_scheduler_host_down_faults_submission(self, testbed):
        client = testbed.make_client()
        testbed.central.host.down = True
        with pytest.raises(DeliveryError, match="down"):
            testbed.run(client.submit(_one_job(client, testbed)))

    def test_down_machine_not_used_after_nis_catalog_reflects_it(self, testbed):
        """Take a grid node down: job sets still complete on the others."""
        victim = testbed.machines[2]
        victim.host.down = True
        # Remove it from the catalog the way an admin would (its
        # utilization service can no longer be heard from anyway).
        group_rid = testbed.node_info.nis_group_rid
        state = testbed.node_info.store.load("NodeInfo", group_rid)
        key = QName(NS.WSRF_SG, "entry_ids")
        entries = state[key]
        kept = []
        for rid in entries:
            est = testbed.node_info.store.load("NodeInfo", rid)
            content = est.get(QName(NS.WSRF_SG, "content"))
            from repro.gridapp.node_info import parse_processor_content

            if parse_processor_content(content)["name"] != victim.name:
                kept.append(rid)
        state[key] = kept
        testbed.node_info.store.save("NodeInfo", group_rid, state)

        client = testbed.make_client()
        outcome, jobset_epr, _ = testbed.run_job_set(client, _one_job(client, testbed))
        assert outcome == "completed"
        rid = jobset_epr.get(QName(UVA, "ResourceID"))
        placement = testbed.scheduler.store.load("Scheduler", rid)[
            QName(UVA, "job_machine")
        ]
        assert placement["j1"] != victim.name

    def test_partition_between_scheduler_and_es(self, testbed):
        """Partition the chosen node from central mid-submission: the
        dispatch faults and the Scheduler marks the job set failed."""
        client = testbed.make_client()
        # Partition every grid node from central so any dispatch fails.
        for machine in testbed.machines:
            testbed.network.partition("uvacg-central", machine.name)

        def scenario():
            jobset_epr, topic = yield from client.submit(_one_job(client, testbed))
            outcome = yield from client.wait_for_completion(topic)
            return outcome, jobset_epr

        outcome, jobset_epr = testbed.run(scenario())
        assert outcome == "failed"
        status = testbed.run(
            client.soap.get_resource_property(jobset_epr, QName(UVA, "Status"))
        )
        assert status == "Failed"

    def test_healing_partition_restores_service(self, testbed):
        client = testbed.make_client()
        for machine in testbed.machines:
            testbed.network.partition("uvacg-central", machine.name)
        outcome, _, _ = testbed.run_job_set(client, _one_job(client, testbed))
        assert outcome == "failed"
        for machine in testbed.machines:
            testbed.network.heal("uvacg-central", machine.name)
        outcome, _, _ = testbed.run_job_set(client, _one_job(client, testbed))
        assert outcome == "completed"


class TestLostNotifications:
    def test_client_listener_down_does_not_break_the_jobset(self, testbed):
        """Broker -> client notifications are one-way; if the client's
        listener is unreachable the job set still completes (the
        Scheduler's own subscription drives progress)."""
        client = testbed.make_client()
        spec = _one_job(client, testbed)

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            # The client goes away (its listener port unbinds).
            client.listener.close()
            yield testbed.env.timeout(30.0)
            status = yield from client.soap.get_resource_property(
                jobset_epr, QName(UVA, "Status")
            )
            return status

        # Undelivered one-way notifications surface as failed detached
        # processes when the schedule drains; the scheduler must still
        # have driven the job set to completion.
        try:
            status = testbed.run(scenario())
        except DeliveryError:
            pytest.fail("lost client listener must not fault the testbed flow")
        assert status == "Completed"


class TestJobLevelFailures:
    def test_missing_input_file_fails_job(self, testbed):
        """The executable references a client file that does not exist:
        staging faults, the job never starts, the job set fails."""
        client = testbed.make_client()
        spec = client.new_job_set()
        exe = client.add_program_binary(testbed.programs.get("quick"))
        spec.add(
            JobSpec(
                name="j1",
                executable=FileRef(exe, "job.exe"),
                inputs=[FileRef("local://c:/data/ghost.dat", "in.dat")],
            )
        )

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield testbed.env.timeout(30.0)
            progress = yield from client.soap.get_resource_property(
                jobset_epr, QName(UVA, "Progress")
            )
            return progress

        progress = testbed.run(scenario())
        # The upload faulted server-side; the job cannot have completed.
        assert progress["done"] == 0

    def test_unregistered_program_fails_jobset(self, testbed):
        client = testbed.make_client()
        spec = client.new_job_set()
        exe_url = client.add_local_file("c:/data/mystery.exe",
                                        b"#!uva-program:never-registered\n")
        spec.add(JobSpec(name="j1", executable=FileRef(exe_url, "job.exe")))
        outcome, _, _ = testbed.run_job_set(client, spec)
        assert outcome == "failed"

    def test_failed_job_reports_spawn_detail(self, testbed):
        client = testbed.make_client(username="wrong", password="creds")
        spec = _one_job(client, testbed)

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            outcome = yield from client.wait_for_completion(topic)
            return outcome

        assert testbed.run(scenario()) == "failed"
        testbed.settle()
        exited = [
            parse_job_event(n.payload)
            for n in client.listener.received
            if parse_job_event(n.payload).get("kind") == "JobExited"
        ]
        assert exited and exited[0]["exit_code"] == -2
        assert "authentication" in exited[0].get("detail", "").lower()

    def test_killing_machine_midjob_leaves_job_running_state(self, testbed):
        """A node dies while its job runs: the job set never completes,
        and the job's last known status remains Running (the §5 coupling
        problem: the client's view can go stale)."""
        client = testbed.make_client()
        spec = _one_job(client, testbed, program="slow")

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield testbed.env.timeout(10.0)
            # Find where it runs, and kill that machine's power.
            rid = jobset_epr.get(QName(UVA, "ResourceID"))
            state = testbed.scheduler.store.load("Scheduler", rid)
            where = state[QName(UVA, "job_machine")]["j1"]
            machine = next(m for m in testbed.machines if m.name == where)
            machine.host.down = True
            for process in machine.procspawn.processes:
                process.kill()  # power loss: processes die with the host
            yield testbed.env.timeout(30.0)
            status = yield from client.soap.get_resource_property(
                jobset_epr, QName(UVA, "Status")
            )
            return status

        # The job's exit notification cannot escape the dead host, so
        # the scheduler still believes the set is running.
        status = testbed.run(scenario())
        assert status == "Running"


class TestRetryPolicyMath:
    """Unit tests for the RetryPolicy backoff schedule (repro.net.retry)."""

    def test_exponential_backoff_without_jitter(self):
        from repro.net import RetryPolicy

        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, backoff_factor=2.0,
            max_delay_s=10.0, jitter=0.0,
        )
        delays = [policy.delay_for(n) for n in (1, 2, 3, 4)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_delay_capped_at_max(self):
        from repro.net import RetryPolicy

        policy = RetryPolicy(
            max_attempts=10, base_delay_s=1.0, backoff_factor=3.0,
            max_delay_s=5.0, jitter=0.0,
        )
        assert policy.delay_for(8) == pytest.approx(5.0)

    def test_jitter_stays_within_band_and_is_deterministic(self):
        import numpy as np

        from repro.net import RetryPolicy

        policy = RetryPolicy(
            max_attempts=4, base_delay_s=1.0, backoff_factor=1.0,
            max_delay_s=10.0, jitter=0.25,
        )
        delays = [
            policy.delay_for(1, np.random.default_rng(9)) for _ in range(50)
        ]
        assert all(0.75 <= d <= 1.25 for d in delays)
        replay = [
            policy.delay_for(1, np.random.default_rng(9)) for _ in range(50)
        ]
        assert delays == replay

    def test_validation(self):
        from repro.net import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        # NaN compares False against any bound: accepted, these would
        # retry with no backoff or hand the kernel a NaN timeout delay.
        for field in ("base_delay_s", "max_delay_s", "backoff_factor", "timeout_s"):
            with pytest.raises(ValueError):
                RetryPolicy(**{field: float("nan")})

    def test_disabled_variant_is_single_attempt(self):
        from repro.net import RetryPolicy

        assert RetryPolicy(max_attempts=7).disabled().max_attempts == 1


_NAN = float("nan")


class TestAssemblyValidation:
    """Input that would hang a run, crash it mid-way or quietly switch a
    mechanism off is refused when the testbed is built."""

    @pytest.mark.parametrize("kwargs", [
        dict(watchdog_period=_NAN),  # the watchdog would sleep for NaN
        dict(stuck_after=_NAN),  # stuck-job recovery would never fire
    ], ids=["watchdog_period=nan", "stuck_after=nan"])
    def test_fault_tolerance_config(self, kwargs):
        from repro.gridapp import FaultToleranceConfig

        with pytest.raises(ValueError):
            FaultToleranceConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(utilization_period=0.0),  # the sampler would spin at t = 0
        dict(utilization_period=-1.0),  # a negative delay, mid-run
        dict(utilization_threshold=_NAN),  # one report, then none
        dict(n_machines=2, machine_speeds=[1.0, _NAN]),  # NaN job durations
        dict(scheduling_policy="fastest"),  # unknown to choose_machine
    ], ids=["period=0", "period<0", "threshold=nan", "speed=nan", "policy=fastest"])
    def test_testbed(self, kwargs):
        with pytest.raises(ValueError):
            Testbed(**kwargs)


class TestWithRetry:
    """The retry driver coroutine against a simulated clock."""

    def _env(self):
        from repro.sim import Environment

        return Environment()

    def test_returns_after_transient_failures(self):
        from repro.net import DeliveryError, RetryPolicy
        from repro.net.retry import with_retry

        env = self._env()
        calls = []

        def attempt():
            calls.append(env.now)
            if len(calls) < 3:
                raise DeliveryError("flaky")
            return "payload"
            yield  # pragma: no cover - makes this a generator

        policy = RetryPolicy(
            max_attempts=5, base_delay_s=1.0, backoff_factor=2.0, jitter=0.0
        )
        proc = env.process(with_retry(env, policy, attempt))
        env.run(until=proc)
        assert proc.value == "payload"
        assert len(calls) == 3
        # Backoff: attempts at t=0, t=1, t=1+2.
        assert calls == pytest.approx([0.0, 1.0, 3.0])

    def test_exhausted_attempts_raise_last_error(self):
        from repro.net import DeliveryError, RetryPolicy
        from repro.net.retry import with_retry

        env = self._env()
        calls = []

        def attempt():
            calls.append(env.now)
            raise DeliveryError("always down")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.5, jitter=0.0)
        proc = env.process(with_retry(env, policy, attempt))
        with pytest.raises(DeliveryError, match="always down"):
            env.run(until=proc)
        assert len(calls) == 3

    def test_per_call_timeout_abandons_slow_attempt(self):
        from repro.net import CallTimeout, RetryPolicy
        from repro.net.retry import with_retry

        env = self._env()
        calls = []

        def attempt():
            calls.append(env.now)
            if len(calls) == 1:
                yield env.timeout(100.0)  # server never answers in time
                return "too late"
            yield env.timeout(0.1)
            return "fast"

        policy = RetryPolicy(
            max_attempts=3, base_delay_s=1.0, jitter=0.0, timeout_s=5.0
        )
        proc = env.process(with_retry(env, policy, attempt))
        env.run(until=proc)
        assert proc.value == "fast"
        # Second attempt starts at timeout (5s) + backoff (1s).
        assert calls == pytest.approx([0.0, 6.0])
        env.run()  # the abandoned attempt must not blow up the schedule

    def test_timeout_exhaustion_raises_call_timeout(self):
        from repro.net import CallTimeout, RetryPolicy
        from repro.net.retry import with_retry

        env = self._env()

        def attempt():
            yield env.timeout(100.0)
            return "never"

        policy = RetryPolicy(
            max_attempts=2, base_delay_s=1.0, jitter=0.0, timeout_s=2.0
        )
        proc = env.process(with_retry(env, policy, attempt))
        with pytest.raises(CallTimeout):
            env.run(until=proc)

    def test_non_retryable_exception_propagates_immediately(self):
        from repro.net import RetryPolicy
        from repro.net.retry import with_retry

        env = self._env()
        calls = []

        def attempt():
            calls.append(env.now)
            raise SoapFault("soap:Server", "application fault")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=5, base_delay_s=1.0, jitter=0.0)
        proc = env.process(with_retry(env, policy, attempt))
        with pytest.raises(SoapFault):
            env.run(until=proc)
        assert len(calls) == 1


class TestWatchdogRedispatch:
    """FT layer: the Scheduler survives an ES dying mid-run."""

    def _ft_testbed(self):
        from repro.gridapp import FaultToleranceConfig
        from repro.net import RetryPolicy

        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.2, max_delay_s=2.0, timeout_s=30.0
        )
        tb = Testbed(
            n_machines=3,
            seed=31,
            retry_policy=policy,
            fault_tolerance=FaultToleranceConfig(
                watchdog_period=5.0, stuck_after=60.0
            ),
        )
        tb.programs.register(
            make_compute_program("slow", 60.0, outputs={"o": b"1"})
        )
        return tb

    def test_job_redispatched_when_machine_dies_midrun(self):
        tb = self._ft_testbed()
        client = tb.make_client()
        spec = _one_job(client, tb, program="slow")

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield tb.env.timeout(10.0)
            rid = jobset_epr.get(QName(UVA, "ResourceID"))
            state = tb.scheduler.store.load("Scheduler", rid)
            where = state[QName(UVA, "job_machine")]["j1"]
            machine = next(m for m in tb.machines if m.name == where)
            machine.host.down = True
            for process in machine.procspawn.processes:
                process.kill()  # power loss
            outcome = yield from client.poll_until_complete(
                jobset_epr, period=5.0, give_up_after=500.0
            )
            return outcome, jobset_epr, topic, where

        outcome, jobset_epr, topic, victim = tb.run(scenario())
        assert outcome == "completed"
        rid = jobset_epr.get(QName(UVA, "ResourceID"))
        state = tb.scheduler.store.load("Scheduler", rid)
        assert state[QName(UVA, "job_machine")]["j1"] != victim
        assert state[QName(UVA, "job_attempts")]["j1"] == 2
        # The recovery is visible in the trace (step 11)...
        recoveries = tb.trace.events_for_step(11)
        assert recoveries and "j1" in recoveries[0].detail
        # ... and announced on the job set's topic as a typed event.
        tb.settle()
        from repro.gridapp import build_report

        report = build_report(client.listener.received, topic)
        assert report.total_recoveries >= 1
        assert report.jobs["j1"].recoveries[0].from_machine == victim

    def test_recovery_budget_exhaustion_fails_the_set(self):
        """Every machine dies: re-dispatch runs out of candidates and the
        set fails instead of hanging forever."""
        tb = self._ft_testbed()
        client = tb.make_client()
        spec = _one_job(client, tb, program="slow")

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield tb.env.timeout(10.0)
            for machine in tb.machines:
                machine.host.down = True
                for process in machine.procspawn.processes:
                    process.kill()
            outcome = yield from client.poll_until_complete(
                jobset_epr, period=5.0, give_up_after=1000.0
            )
            return outcome

        assert tb.run(scenario()) == "failed"

    def test_ft_disabled_preserves_fail_fast(self):
        """Without a FaultToleranceConfig the §5 stale-view behaviour of
        the seed testbed is untouched (cf. TestJobLevelFailures)."""
        tb = Testbed(n_machines=3, seed=31)
        tb.programs.register(
            make_compute_program("slow2", 60.0, outputs={"o": b"1"})
        )
        client = tb.make_client()
        spec = _one_job(client, tb, program="slow2")

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield tb.env.timeout(10.0)
            rid = jobset_epr.get(QName(UVA, "ResourceID"))
            state = tb.scheduler.store.load("Scheduler", rid)
            where = state[QName(UVA, "job_machine")]["j1"]
            machine = next(m for m in tb.machines if m.name == where)
            machine.host.down = True
            for process in machine.procspawn.processes:
                process.kill()
            yield tb.env.timeout(60.0)
            status = yield from client.soap.get_resource_property(
                jobset_epr, QName(UVA, "Status")
            )
            return status

        assert tb.run(scenario()) == "Running"
