"""Application-level WS-ResourceLifetime: cleaning up job directories.

WSRF's scheduled destruction exists exactly for this: working
directories outlive their jobs so clients can fetch outputs, then get
reaped without further interaction.  The client sets a termination time
on each directory WS-Resource; when it comes due the FSS wrapper runs a
wsrl:Destroy through its own dispatch, and the FSS destroy hook removes
the files with the resource.
"""

import pytest

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.gridapp.filesystem_service import GRID_ROOT
from repro.osim import MachineParams
from repro.osim.programs import make_compute_program
from repro.wsrf.basefaults import ResourceUnknownFault
from repro.wsrf.lifetime import TERMINATION_TIME_RP
from repro.xmlx import NS

UVA = NS.UVACG
#: the db_load an expiry's Destroy pays before the hook runs
DB = MachineParams().db_access_s


@pytest.fixture()
def testbed():
    tb = Testbed(n_machines=2, seed=17)
    tb.programs.register(make_compute_program("tiny", 0.5, outputs={"out": b"r"}))
    return tb


def _run_one(tb, client):
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get("tiny"))
    spec.add(JobSpec(name="j1", executable=FileRef(exe, "job.exe"), outputs=["out"]))
    outcome, jobset_epr, topic = tb.run_job_set(client, spec)
    assert outcome == "completed"
    tb.settle(2.0)
    dir_epr = next(
        parse_job_event(n.payload)["dir_epr"]
        for n in client.listener.received
        if parse_job_event(n.payload).get("kind") == "JobCreated"
    )
    return dir_epr


class TestDirectoryLifetime:
    def test_scheduled_cleanup_after_fetch(self, testbed):
        client = testbed.make_client()
        dir_epr = _run_one(testbed, client)

        def scenario():
            # Fetch the result, then give the directory 10 more seconds.
            content = yield from client.fetch_output(dir_epr, "out")
            assert content.to_bytes() == b"r"
            new_time = yield from client.soap.set_termination_time(
                dir_epr, testbed.env.now + 10.0
            )
            assert new_time == pytest.approx(testbed.env.now + 10.0, abs=0.1)
            # Still accessible before expiry...
            names = yield from client.list_output_dir(dir_epr)
            assert "out" in names
            yield testbed.env.timeout(15.0)
            return "done"

        testbed.run(scenario())
        # ...gone after: the WS-Resource no longer resolves.
        with pytest.raises(ResourceUnknownFault):
            testbed.run(client.list_output_dir(dir_epr))

    def test_unreaped_directory_survives(self, testbed):
        client = testbed.make_client()
        dir_epr = _run_one(testbed, client)
        testbed.settle(60.0)  # no termination time was ever set
        names = testbed.run(client.list_output_dir(dir_epr))
        assert "out" in names

    def test_termination_time_visible_as_rp(self, testbed):
        client = testbed.make_client()
        dir_epr = _run_one(testbed, client)

        def scenario():
            yield from client.soap.set_termination_time(dir_epr, 1000.0)
            when = yield from client.soap.get_resource_property(
                dir_epr, TERMINATION_TIME_RP
            )
            return when

        assert testbed.run(scenario()) == 1000.0

    def test_immediate_destroy_also_works(self, testbed):
        client = testbed.make_client()
        dir_epr = _run_one(testbed, client)
        testbed.run(client.soap.destroy(dir_epr))
        with pytest.raises(ResourceUnknownFault):
            testbed.run(client.list_output_dir(dir_epr))


class TestExpiryAcrossRestart:
    """An expiry belongs to one boot of its host: nothing is destroyed
    while the host is down, and the rebooted host destroys what expired,
    once, as a Destroy paying its db_load."""

    def _expiring_dir(self, tb, when):
        fss = tb.fss["node00"]
        path = fss.machine.fs.create_unique_dir(GRID_ROOT, prefix="wsr")
        rid = fss.create_resource_from_fields({"dir_path": path})
        fss.set_termination_time(rid, when)
        destroyed = []
        fss.on_resource_destroyed.append(lambda r: destroyed.append((r, tb.env.now)))
        return fss, rid, path, destroyed

    def test_none_while_down_then_once_after_reboot(self, testbed):
        tb = testbed
        fss, rid, path, destroyed = self._expiring_dir(tb, 3.0)
        tb.restart_host("node00", at=1.0, down_for=10.0)
        tb.settle(10.5 - tb.env.now)  # expired at 3.0, host down until 11.0
        assert fss.machine.host.down
        assert destroyed == []
        assert fss.store.exists(fss.service_name, rid)
        assert fss.machine.fs.is_dir(path)  # the destroy hook never ran
        tb.settle(10.0)
        # restore re-arms it at the reboot, 11.0, and it goes once.
        assert destroyed == [(rid, 11.0 + DB)]
        assert not fss.store.exists(fss.service_name, rid)
        assert not fss.machine.fs.is_dir(path)

    def test_straddling_a_crash_destroys_nothing(self, testbed):
        tb = testbed
        fss, rid, path, destroyed = self._expiring_dir(tb, 3.0)

        def holder(env):
            # An invocation holding the row's lock across the expiry at
            # 3.0 and the crash at 4.0; the expiry gets the lock at 5.0,
            # a zombie of the dead boot.
            lock = fss.resource_lock(rid)
            yield lock.acquire()
            yield env.timeout(5.0 - env.now)
            fss.release_resource_lock(rid, lock)

        tb.env.process(holder(tb.env))
        tb.restart_host("node00", at=4.0, down_for=10.0)
        tb.settle(13.5 - tb.env.now)
        assert destroyed == []
        assert fss.store.exists(fss.service_name, rid)
        assert fss.machine.fs.is_dir(path)
        tb.settle(10.0)
        # The reboot at 14.0 re-arms it.
        assert destroyed == [(rid, 14.0 + DB)]


class TestMultiClientSoak:
    """Several scientists sharing the grid concurrently — the workload
    the campus grid exists for.  Exercises lock serialization, broker
    fan-out, NIS feedback and cross-client isolation all at once."""

    def test_three_clients_six_jobsets(self, testbed):
        tb = testbed
        clients = [tb.make_client() for _ in range(3)]
        results = []

        def one_client(client, n_sets):
            outcomes = []
            for _ in range(n_sets):
                spec = client.new_job_set()
                exe = client.add_program_binary(tb.programs.get("tiny"))
                spec.add(JobSpec(name="solo", executable=FileRef(exe, "job.exe"),
                                 outputs=["out"]))
                outcome, _, topic = yield from client.run_job_set(spec)
                outcomes.append((topic, outcome))
            results.append(outcomes)

        procs = [tb.env.process(one_client(c, 2)) for c in clients]
        for proc in procs:
            tb.env.run(until=proc)
        assert len(results) == 3
        all_topics = [t for outcomes in results for t, _ in outcomes]
        assert len(set(all_topics)) == 6  # every job set got its own topic
        assert all(o == "completed" for outcomes in results for _, o in outcomes)

    def test_clients_only_see_their_own_topics(self, testbed):
        tb = testbed
        alice, bob = tb.make_client(), tb.make_client()

        def submit(client):
            spec = client.new_job_set()
            exe = client.add_program_binary(tb.programs.get("tiny"))
            spec.add(JobSpec(name="solo", executable=FileRef(exe, "job.exe")))
            return client.run_job_set(spec)

        pa = tb.env.process(submit(alice))
        pb = tb.env.process(submit(bob))
        tb.env.run(until=pa)
        tb.env.run(until=pb)
        tb.settle()
        _, _, topic_a = pa.value
        _, _, topic_b = pb.value
        assert topic_a != topic_b
        assert all(n.topic.startswith(topic_a) for n in alice.listener.received)
        assert all(n.topic.startswith(topic_b) for n in bob.listener.received)
