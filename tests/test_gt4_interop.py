"""Tests for the GT4/Linux interoperability extension (paper §6).

The paper's stated next step was interoperating WSRF.NET with Globus
Toolkit v4 so the campus grid spans Windows and Linux.  These tests run
mixed grids: the same WSRF wire, WSRF.NET-style UsernameToken auth on
Windows nodes, GSI-style X.509 + grid-mapfile auth on GT4 nodes.
"""

import pytest

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.gt4 import ForkSpawnService, Gt4ExecutionService, Gt4Params, LinuxMachine
from repro.net import Network
from repro.osim import SpawnError
from repro.osim.programs import make_compute_program
from repro.sim import Environment
from repro.wssec import (
    CertificateAuthority,
    SecurityError,
    build_x509_security_header,
    open_x509_security_header,
)
from repro.wssec.x509 import enroll
from repro.xmlx import NS, QName, parse, to_string

from tests.helpers import assembly_order

UVA = NS.UVACG


class TestX509Tokens:
    def test_roundtrip_through_wire(self):
        ca = CertificateAuthority()
        keys, cert = enroll(ca, "CN=alice/O=UVaCG")
        header = build_x509_security_header(keys, cert, timestamp=10.0)
        reparsed = parse(to_string(header))
        verified = open_x509_security_header(reparsed, ca, now=12.0)
        assert verified.subject == "CN=alice/O=UVaCG"

    def test_untrusted_ca_rejected(self):
        good_ca, rogue_ca = CertificateAuthority(), CertificateAuthority("Rogue")
        keys, cert = enroll(rogue_ca, "CN=eve")
        header = build_x509_security_header(keys, cert, timestamp=0.0)
        with pytest.raises(SecurityError, match="certificate rejected"):
            open_x509_security_header(header, good_ca, now=1.0)

    def test_stale_timestamp_rejected(self):
        ca = CertificateAuthority()
        keys, cert = enroll(ca, "CN=alice")
        header = build_x509_security_header(keys, cert, timestamp=0.0)
        with pytest.raises(SecurityError, match="acceptance window"):
            open_x509_security_header(header, ca, now=10_000.0)

    def test_forged_signature_rejected(self):
        ca = CertificateAuthority()
        keys, cert = enroll(ca, "CN=alice")
        _, mallory_cert = enroll(ca, "CN=mallory")
        # Mallory presents Alice's cert but signs with her own key —
        # splice Alice's cert into a header Mallory built.
        mallory_keys, _ = enroll(ca, "CN=mallory2")
        header = build_x509_security_header(mallory_keys, cert, timestamp=0.0)
        with pytest.raises(SecurityError, match="signature verification failed"):
            open_x509_security_header(header, ca, now=1.0)

    def test_wrong_structure_rejected(self):
        ca = CertificateAuthority()
        from repro.xmlx import Element

        with pytest.raises(SecurityError, match="lacks an X509Token"):
            open_x509_security_header(
                Element(QName(NS.WSSE, "Security")), ca, now=0.0
            )


class TestLinuxMachine:
    def test_fork_spawn_skips_password(self):
        env = Environment()
        net = Network(env)
        machine = LinuxMachine(net, "linux-a")
        machine.users.add_user("grid", "irrelevant")
        machine.programs.define("p", lambda ctx: 0)
        machine.fs.mkdir("/var/uvacg/wd")
        machine.fs.write_file("/var/uvacg/wd/job", b"#!uva-program:p\n")

        def do(env):
            process = yield from machine.procspawn.spawn(
                "/var/uvacg/wd/job", [], "grid", "WRONG-PASSWORD", "/var/uvacg/wd"
            )
            return (yield process.done)

        proc = env.process(do(env))
        env.run(until=proc)
        assert proc.value == 0

    def test_fork_spawn_requires_account(self):
        env = Environment()
        net = Network(env)
        machine = LinuxMachine(net, "linux-a")

        def do(env):
            yield from machine.procspawn.spawn("/x", [], "ghost", "", "/var/uvacg")

        with pytest.raises(SpawnError, match="nonexistent local account"):
            env.run(until=env.process(do(env)))

    def test_fork_is_cheaper_than_createprocess(self):
        assert Gt4Params().proc_spawn_s < 0.02  # vs 0.05 for CreateProcessAsUser

    def test_uses_fork_service(self):
        env = Environment()
        net = Network(env)
        machine = LinuxMachine(net, "linux-a")
        assert isinstance(machine.procspawn, ForkSpawnService)
        assert machine.container is machine.iis

    def test_posix_grid_root(self):
        env = Environment()
        net = Network(env)
        machine = LinuxMachine(net, "linux-a")
        assert machine.fs.is_dir("/var/uvacg")


@pytest.fixture()
def mixed_grid():
    tb = Testbed(n_machines=2, n_linux_machines=2, seed=61,
                 machine_speeds=[1.0, 1.0])
    tb.programs.register(
        make_compute_program("xjob", 2.0, outputs={"out": b"ran"})
    )
    return tb


def _spec_for(client, tb, n=1):
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get("xjob"))
    for i in range(n):
        spec.add(JobSpec(name=f"j{i}", executable=FileRef(exe, "job.exe"),
                         outputs=["out"]))
    return spec


class TestMixedGrid:
    def test_assembly_deploys_windows_machines_then_linux(self):
        tb = Testbed(n_machines=2, n_linux_machines=2, seed=61, observability=True)
        hosts, wrappers, by_serial = assembly_order(tb)
        assert hosts == by_serial == [
            "uvacg-central", "node00", "node01", "linux00", "linux01",
        ]
        assert wrappers == [
            ("uvacg-central", "NotificationBroker", None),
            ("uvacg-central", "NodeInfo", None),
            ("uvacg-central", "Scheduler", None),
        ] + [
            (host, path, None)
            for host in hosts[1:] for path in ("FileSystem", "ExecService")
        ]
        assert [m.name for m in tb.linux_machines] == ["linux00", "linux01"]
        assert tb.scheduler.gt4_machines == {"linux00", "linux01"}
        assert tb.es["linux00"].service_cls is Gt4ExecutionService
        assert all(m.trusted_ca is tb.ca for m in tb.linux_machines)

    def test_job_runs_on_linux_via_gsi(self, mixed_grid):
        tb = mixed_grid
        client = tb.make_client(grid_identity=True)
        # Force placement onto a Linux node by loading the Windows ones
        # out of contention (speed: linux defaults are 1.0; pin by
        # marking windows nodes busy via the catalog — simplest is a job
        # set big enough to spill onto linux).
        spec = _spec_for(client, tb, n=4)
        outcome, jobset_epr, _ = tb.run_job_set(client, spec)
        assert outcome == "completed"
        rid = jobset_epr.get(QName(UVA, "ResourceID"))
        placement = tb.scheduler.store.load("Scheduler", rid)[QName(UVA, "job_machine")]
        linux_used = {m for m in placement.values() if m.startswith("linux")}
        windows_used = {m for m in placement.values() if m.startswith("node")}
        assert linux_used, f"no linux machine used: {placement}"
        assert windows_used, f"no windows machine used: {placement}"

    def test_linux_output_retrievable_cross_platform(self, mixed_grid):
        tb = mixed_grid
        client = tb.make_client(grid_identity=True)
        spec = _spec_for(client, tb, n=4)
        outcome, _, _ = tb.run_job_set(client, spec)
        assert outcome == "completed"
        tb.settle()
        # Fetch an output produced on a linux node via its dir EPR.
        linux_dirs = [
            parse_job_event(n.payload)["dir_epr"]
            for n in client.listener.received
            if parse_job_event(n.payload).get("kind") == "JobCreated"
            and "linux" in parse_job_event(n.payload)["dir_epr"].address
        ]
        assert linux_dirs
        content = tb.run(client.fetch_output(linux_dirs[0], "out"))
        assert content.to_bytes() == b"ran"

    def test_without_grid_identity_linux_dispatch_fails(self, mixed_grid):
        tb = mixed_grid
        client = tb.make_client(grid_identity=False)
        spec = _spec_for(client, tb, n=4)  # must spill onto linux
        outcome, _, _ = tb.run_job_set(client, spec)
        assert outcome == "failed"

    def test_windows_only_jobs_unaffected_by_missing_identity(self, mixed_grid):
        tb = mixed_grid
        client = tb.make_client(grid_identity=False)
        spec = _spec_for(client, tb, n=1)  # fits on windows nodes
        outcome, jobset_epr, _ = tb.run_job_set(client, spec)
        assert outcome == "completed"
        rid = jobset_epr.get(QName(UVA, "ResourceID"))
        placement = tb.scheduler.store.load("Scheduler", rid)[QName(UVA, "job_machine")]
        assert all(m.startswith("node") for m in placement.values())

    def test_unmapped_subject_rejected_by_gridmap(self, mixed_grid):
        tb = mixed_grid
        client = tb.make_client(grid_identity=True)
        # Remove the gridmap entries the testbed installed.
        for machine in tb.linux_machines:
            machine.users._grid_map.clear()
        spec = _spec_for(client, tb, n=4)
        outcome, _, _ = tb.run_job_set(client, spec)
        assert outcome == "failed"

    def test_cross_platform_pipeline(self, mixed_grid):
        """Stage 1 on one platform feeds stage 2 possibly on the other —
        inter-FSS transfer across Windows/Linux."""
        tb = mixed_grid
        tb.programs.register(
            make_compute_program("stage2x", 1.0, outputs={"final": b"ok"},
                                 required_inputs=["prev"])
        )
        client = tb.make_client(grid_identity=True)
        spec = client.new_job_set()
        exe1 = client.add_program_binary(tb.programs.get("xjob"))
        exe2 = client.add_program_binary(tb.programs.get("stage2x"))
        # Two parallel first stages (spread over platforms) + a join.
        spec.add(JobSpec(name="a", executable=FileRef(exe1, "job.exe"), outputs=["out"]))
        spec.add(JobSpec(name="b", executable=FileRef(exe1, "job.exe"), outputs=["out"]))
        spec.add(JobSpec(name="c", executable=FileRef(exe1, "job.exe"), outputs=["out"]))
        spec.add(JobSpec(
            name="join",
            executable=FileRef(exe2, "job.exe"),
            inputs=[FileRef("a://out", "prev")],
            outputs=["final"],
        ))
        outcome, _, _ = tb.run_job_set(client, spec)
        assert outcome == "completed"
