"""End-to-end integration tests: the Fig. 3 remote job execution flow."""

import pytest

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.gridapp.filesystem_service import FileAccessFault
from repro.osim.programs import make_compute_program
from repro.xmlx import NS, QName

UVA = NS.UVACG


@pytest.fixture()
def testbed():
    tb = Testbed(n_machines=3, seed=7)
    tb.programs.register(
        make_compute_program(
            "stage1", 2.0, outputs={"output1": b"stage1 results"},
            required_inputs=["input.dat"],
        )
    )
    tb.programs.register(
        make_compute_program(
            "stage2", 1.0, outputs={"final.out": b"stage2 final"},
            required_inputs=["mid.dat"],
        )
    )
    tb.programs.register(make_compute_program("solo", 0.5, outputs={"out": b"solo"}))
    tb.programs.register(make_compute_program("badjob", 0.5, exit_code=9))
    return tb


def _single_job_spec(client, tb, program="solo"):
    spec = client.new_job_set()
    exe_url = client.add_program_binary(tb.programs.get(program))
    spec.add(JobSpec(name="job1", executable=FileRef(exe_url, "job.exe")))
    return spec


def _pipeline_spec(client, tb):
    """job1 produces output1; job2 consumes it as mid.dat."""
    spec = client.new_job_set()
    exe1 = client.add_program_binary(tb.programs.get("stage1"))
    exe2 = client.add_program_binary(tb.programs.get("stage2"))
    data_url = client.add_local_file("c:/data/input.dat", b"raw experiment data")
    spec.add(
        JobSpec(
            name="job1",
            executable=FileRef(exe1, "job.exe"),
            inputs=[FileRef(data_url, "input.dat")],
            outputs=["output1"],
        )
    )
    spec.add(
        JobSpec(
            name="job2",
            executable=FileRef(exe2, "job.exe"),
            inputs=[FileRef("job1://output1", "mid.dat")],
            outputs=["final.out"],
        )
    )
    return spec


class TestSingleJob:
    def test_runs_to_completion(self, testbed):
        client = testbed.make_client()
        outcome, jobset_epr, topic = testbed.run_job_set(
            client, _single_job_spec(client, testbed)
        )
        assert outcome == "completed"

    def test_output_retrievable_by_client(self, testbed):
        client = testbed.make_client()
        outcome, jobset_epr, topic = testbed.run_job_set(
            client, _single_job_spec(client, testbed)
        )
        # Find the job's dir EPR from the JobCreated notification.
        dir_epr = None
        for note in client.listener.received:
            event = parse_job_event(note.payload)
            if event.get("kind") == "JobCreated":
                dir_epr = event["dir_epr"]
        assert dir_epr is not None
        names = testbed.run(client.list_output_dir(dir_epr))
        assert "out" in names and "job.exe" in names
        content = testbed.run(client.fetch_output(dir_epr, "out"))
        assert content.to_bytes() == b"solo"

    def test_client_sees_progress_notifications(self, testbed):
        client = testbed.make_client()
        outcome, _, topic = testbed.run_job_set(
            client, _single_job_spec(client, testbed)
        )
        testbed.settle()
        messages = client.progress_messages(topic)
        assert f"{topic}/job1/created" in messages
        assert f"{topic}/job1/started" in messages
        assert f"{topic}/job1/exited" in messages
        assert f"{topic}/completed" in messages

    def test_failing_job_fails_the_set(self, testbed):
        client = testbed.make_client()
        outcome, _, _ = testbed.run_job_set(
            client, _single_job_spec(client, testbed, program="badjob")
        )
        assert outcome == "failed"

    def test_bad_credentials_fail(self, testbed):
        client = testbed.make_client(username="intruder", password="nope")
        outcome, _, _ = testbed.run_job_set(
            client, _single_job_spec(client, testbed)
        )
        assert outcome == "failed"


class TestPipelineJobSet:
    def test_dependency_pipeline_completes(self, testbed):
        client = testbed.make_client()
        outcome, jobset_epr, topic = testbed.run_job_set(
            client, _pipeline_spec(client, testbed)
        )
        assert outcome == "completed"

    def test_job2_starts_after_job1_exits(self, testbed):
        client = testbed.make_client()
        testbed.run_job_set(client, _pipeline_spec(client, testbed))
        testbed.settle()
        by_topic = {n.topic: n.at for n in client.listener.received}
        topic = sorted(by_topic)[0].split("/")[0]
        assert by_topic[f"{topic}/job1/exited"] <= by_topic[f"{topic}/job2/created"]

    def test_final_output_content_flows_through(self, testbed):
        client = testbed.make_client()
        outcome, jobset_epr, topic = testbed.run_job_set(
            client, _pipeline_spec(client, testbed)
        )
        assert outcome == "completed"
        dir_eprs = {}
        for note in client.listener.received:
            event = parse_job_event(note.payload)
            if event.get("kind") == "JobCreated":
                dir_eprs[event["job_name"]] = event["dir_epr"]
        final = testbed.run(client.fetch_output(dir_eprs["job2"], "final.out"))
        assert final.to_bytes() == b"stage2 final"
        # job2's working dir contains the staged intermediate.
        names = testbed.run(client.list_output_dir(dir_eprs["job2"]))
        assert "mid.dat" in names

    def test_jobset_status_rp(self, testbed):
        client = testbed.make_client()
        outcome, jobset_epr, topic = testbed.run_job_set(
            client, _pipeline_spec(client, testbed)
        )
        status = testbed.run(
            client.soap.get_resource_property(jobset_epr, QName(UVA, "Status"))
        )
        assert status == "Completed"
        progress = testbed.run(
            client.soap.get_resource_property(jobset_epr, QName(UVA, "Progress"))
        )
        assert progress["total"] == 2 and progress["done"] == 2


class TestFig3Trace:
    """Assert the ten-step §4.6 walkthrough happens in order."""

    def test_all_ten_steps_occur(self, testbed):
        client = testbed.make_client()
        testbed.run_job_set(client, _pipeline_spec(client, testbed))
        testbed.settle()
        steps = set(testbed.trace.steps())
        assert steps == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

    def test_first_occurrence_order_matches_paper(self, testbed):
        client = testbed.make_client()
        testbed.run_job_set(client, _pipeline_spec(client, testbed))
        testbed.settle()
        order = testbed.trace.first_occurrence_order()
        # Step 9 (async broadcast) floats; the causal backbone must be
        # 1 -> 2 -> 3 -> 4 -> 5 -> 7 -> 8 -> 10, with 6 (inter-FSS fetch)
        # only during job2's staging, i.e. after job1 exited (10).
        backbone = [s for s in order if s in (1, 2, 3, 4, 5, 7, 8, 10)]
        assert backbone == [1, 2, 3, 4, 5, 7, 8, 10]
        events6 = testbed.trace.events_for_step(6)
        events10 = testbed.trace.events_for_step(10)
        assert events6, "inter-FSS transfer (step 6) never happened"
        assert events6[0].at >= events10[0].at

    def test_trace_format_readable(self, testbed):
        client = testbed.make_client()
        testbed.run_job_set(client, _single_job_spec(client, testbed))
        text = testbed.trace.format()
        assert "step  1" in text and "Scheduler" in text


class TestSchedulerBehaviour:
    def test_best_policy_prefers_fast_idle_machine(self, testbed):
        """All three jobs land on the fastest machine when it stays idle
        between them (sequential single jobs)."""
        client = testbed.make_client()
        speeds = {m.name: m.params.cpu_speed for m in testbed.machines}
        fastest = max(speeds, key=lambda name: (speeds[name], name))
        for _ in range(2):
            outcome, jobset_epr, topic = testbed.run_job_set(
                client, _single_job_spec(client, testbed)
            )
            assert outcome == "completed"
            testbed.settle(extra_time=3.0)  # let utilization reports settle
            machines = testbed.run(
                client.soap.get_resource_property(jobset_epr, QName(UVA, "Topic"))
            )
        # Inspect scheduler state directly: every job ran on the fastest.
        state_ids = testbed.scheduler.store.list_ids("Scheduler")
        jobset_ids = [rid for rid in state_ids if not rid.startswith("sub-")]
        for rid in jobset_ids:
            state = testbed.scheduler.store.load("Scheduler", rid)
            placement = state[QName(UVA, "job_machine")]
            assert all(m == fastest for m in placement.values())

    def test_kill_via_cancel(self, testbed):
        testbed.programs.register(make_compute_program("forever", 10_000.0))
        client = testbed.make_client()
        spec = client.new_job_set()
        exe = client.add_program_binary(testbed.programs.get("forever"))
        spec.add(JobSpec(name="job1", executable=FileRef(exe, "job.exe")))

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield testbed.env.timeout(30.0)
            result = yield from client.soap.call(jobset_epr, UVA, "CancelJobSet")
            return result, jobset_epr

        result, jobset_epr = testbed.run(scenario())
        assert result == "cancelled"
        testbed.settle()
        status = testbed.run(
            client.soap.get_resource_property(jobset_epr, QName(UVA, "Status"))
        )
        assert status == "Failed"
        # No process still burning CPU anywhere.
        assert all(m.cpu.active_tasks == 0 for m in testbed.machines)

    def test_parallel_jobs_spread_when_fastest_busy(self, testbed):
        """Two independent long jobs should not both land on one machine
        (utilization feedback steers the second dispatch away)."""
        testbed.programs.register(make_compute_program("long", 50.0))
        client = testbed.make_client()
        spec = client.new_job_set()
        exe = client.add_program_binary(testbed.programs.get("long"))
        spec.add(JobSpec(name="a", executable=FileRef(exe, "job.exe")))
        spec.add(JobSpec(name="b", executable=FileRef(exe, "job.exe")))
        outcome, jobset_epr, _ = testbed.run_job_set(client, spec)
        assert outcome == "completed"
        rid = jobset_epr.get(QName(UVA, "ResourceID"))
        state = testbed.scheduler.store.load("Scheduler", rid)
        placement = state[QName(UVA, "job_machine")]
        assert placement["a"] != placement["b"]


class TestJobResourceInterface:
    def test_status_and_cputime_rps(self, testbed):
        testbed.programs.register(make_compute_program("medium", 20.0))
        client = testbed.make_client()
        spec = client.new_job_set()
        exe = client.add_program_binary(testbed.programs.get("medium"))
        spec.add(JobSpec(name="job1", executable=FileRef(exe, "job.exe")))

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield testbed.env.timeout(10.0)
            # Find the job EPR from notifications.
            job_epr = None
            for note in client.listener.received:
                event = parse_job_event(note.payload)
                if event.get("kind") == "JobStarted":
                    job_epr = event["job_epr"]
            assert job_epr is not None
            status = yield from client.soap.get_resource_property(
                job_epr, QName(UVA, "Status")
            )
            cpu = yield from client.soap.get_resource_property(
                job_epr, QName(UVA, "CpuTime")
            )
            outcome = yield from client.wait_for_completion(topic)
            exit_code = yield from client.soap.call(job_epr, UVA, "GetExitCode")
            return status, cpu, outcome, exit_code

        status, cpu, outcome, exit_code = testbed.run(scenario())
        assert status == "Running"
        assert 0.0 < cpu
        assert outcome == "completed"
        assert exit_code == 0

    def test_destroying_job_resource_kills_process(self, testbed):
        """The killed process's watcher finds no row: its local dispatch
        faults (counted in faults_returned) and nothing is broadcast."""
        testbed.programs.register(make_compute_program("eternal", 10_000.0))
        client = testbed.make_client()
        spec = client.new_job_set()
        exe = client.add_program_binary(testbed.programs.get("eternal"))
        spec.add(JobSpec(name="job1", executable=FileRef(exe, "job.exe")))

        def scenario():
            jobset_epr, topic = yield from client.submit(spec)
            yield testbed.env.timeout(20.0)
            job_epr = None
            for note in client.listener.received:
                event = parse_job_event(note.payload)
                if event.get("kind") == "JobStarted":
                    job_epr = event["job_epr"]
            es = next(w for w in testbed.es.values() if w.address == job_epr.address)
            faults = es.faults_returned
            yield from client.soap.destroy(job_epr)
            return es, faults

        es, faults = testbed.run(scenario())
        testbed.settle(extra_time=5.0)
        assert all(m.cpu.active_tasks == 0 for m in testbed.machines)
        kinds = [parse_job_event(note.payload)["kind"] for note in client.listener.received]
        assert "JobExited" not in kinds
        assert es.faults_returned == faults + 1

    @pytest.mark.parametrize("perf", [False, True])
    def test_a_job_exit_is_one_local_dispatch(self, perf):
        """The watcher records an exit through the stage table: no wire
        call, and under perf its db_load is a cache hit, elided."""
        tb = Testbed(n_machines=1, seed=7, perf=perf)
        tb.programs.register(make_compute_program("solo", 5.0))
        client = tb.make_client()
        [es] = tb.es.values()

        def kinds():
            return [parse_job_event(n.payload)["kind"] for n in client.listener.received]

        def scenario():
            yield from client.submit(_single_job_spec(client, tb))
            while "JobStarted" not in kinds():
                yield tb.env.timeout(0.1)
            before = (es.invocations, es.loads_elided)
            while "JobExited" not in kinds():
                yield tb.env.timeout(0.1)
            return before, (es.invocations, es.loads_elided)

        (calls, elided), after = tb.run(scenario())
        assert after == (calls, elided + perf)

    def test_network_traffic_accounted(self, testbed):
        client = testbed.make_client()
        testbed.run_job_set(client, _pipeline_spec(client, testbed))
        stats = testbed.network.stats
        assert stats.by_category["dispatch"] > 0
        assert stats.by_category["file-tcp"] > 0  # local:// staging
        assert stats.by_category["file-http"] > 0  # job1://output1 staging
        assert stats.by_category["notify"] > 0


class TestDirectoryOperations:
    """§4.1's Read / Write / List on a directory WS-Resource, over SOAP."""

    def _directory(self, testbed, client):
        fss_epr = testbed.fss[testbed.machines[0].name].service_epr()
        return testbed.run(client.soap.call(fss_epr, UVA, "CreateDirectory"))

    def test_write_then_read_round_trips_and_list_shows_the_file(self, testbed):
        client = testbed.make_client()
        dir_epr = self._directory(testbed, client)

        def scenario():
            written = yield from client.soap.call(
                dir_epr, UVA, "Write", {"filename": "notes.txt", "data": b"a\x00<b>"}
            )
            read = yield from client.soap.call(
                dir_epr, UVA, "Read", {"filename": "notes.txt"}
            )
            names = yield from client.soap.call(dir_epr, UVA, "List")
            return written, read, names

        written, read, names = testbed.run(scenario())
        assert written == 5
        assert read == {"kind": "data", "data": b"a\x00<b>"}
        assert names == ["notes.txt"]

    def test_write_into_a_destroyed_directory_is_a_file_access_fault(self, testbed):
        client = testbed.make_client()
        dir_epr = self._directory(testbed, client)
        path = testbed.run(
            client.soap.get_resource_property(dir_epr, QName(UVA, "Path"))
        )
        testbed.machines[0].fs.remove_tree(path)
        with pytest.raises(FileAccessFault):
            testbed.run(client.soap.call(
                dir_epr, UVA, "Write", {"filename": "late.txt", "data": b"x"}
            ))
