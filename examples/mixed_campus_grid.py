#!/usr/bin/env python3
"""The full UVaCG vision: Windows (WSRF.NET) + Linux (GT4) in one grid.

§6 of the paper: "The overall goal of the UVaCG will be to seamlessly
integrate Windows machines (via WSRF.NET) and Linux/UNIX machines (via
Globus Toolkit v4)" — with interoperability testing against GT 3.9.2
just beginning when the paper was written.  This example runs that
scenario: a scientist with a campus X.509 identity submits one job set;
the Scheduler spreads it across both platforms, authenticating with an
encrypted UsernameToken on Windows nodes and a delegated signed X.509
token + grid-mapfile on Linux nodes; the File System services move
intermediate files across the platform boundary.

Run:  python examples/mixed_campus_grid.py
"""

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.osim.programs import make_compute_program
from repro.xmlx import NS, QName

UVA = NS.UVACG


def main() -> None:
    testbed = Testbed(
        n_machines=2,          # Windows desktops (WSRF.NET / IIS)
        n_linux_machines=2,    # Linux boxes (GT4 Java WS container)
        machine_speeds=[1.0, 1.2],
        seed=2005,
    )
    testbed.programs.register(
        make_compute_program("simulate", 15.0, outputs={"out": b"chunk"})
    )
    testbed.programs.register(
        make_compute_program(
            "collect", 5.0, outputs={"summary.txt": b"4 chunks merged"},
            required_inputs=["c0", "c1", "c2", "c3"],
        )
    )

    print("grid machines:")
    for machine in testbed.machines:
        flavor = "Linux/GT4   " if machine.name.startswith("linux") else "Windows/.NET"
        print(f"  {machine.name}  [{flavor}]  {machine.params.cpu_speed:.1f}x")

    # The scientist enrolls with the campus CA; the testbed adds her
    # subject to every Linux machine's grid-mapfile.
    client = testbed.make_client(grid_identity=True)
    print(f"\nscientist identity: {client.user_cert.subject}")

    spec = client.new_job_set()
    sim_exe = client.add_program_binary(testbed.programs.get("simulate"))
    col_exe = client.add_program_binary(testbed.programs.get("collect"))
    for i in range(4):
        spec.add(JobSpec(name=f"sim{i}", executable=FileRef(sim_exe, "job.exe"),
                         outputs=["out"]))
    spec.add(JobSpec(
        name="collect",
        executable=FileRef(col_exe, "job.exe"),
        inputs=[FileRef(f"sim{i}://out", f"c{i}") for i in range(4)],
        outputs=["summary.txt"],
    ))

    outcome, jobset_epr, topic = testbed.run_job_set(client, spec)
    makespan = testbed.env.now
    testbed.settle()
    print(f"\njob set {topic}: {outcome} in {makespan:.1f}s simulated")

    rid = jobset_epr.get(QName(UVA, "ResourceID"))
    placement = testbed.scheduler.load_resource(rid).job_machine
    print("\nplacement across platforms:")
    for job in sorted(placement):
        machine = placement[job]
        flavor = "GT4 " if machine.startswith("linux") else ".NET"
        print(f"  {job:<8s} -> {machine}  [{flavor}]")
    platforms = {("linux" if m.startswith("linux") else "windows")
                 for m in placement.values()}
    assert platforms == {"linux", "windows"}, "expected both platforms in play"

    dirs = {
        parse_job_event(n.payload)["job_name"]: parse_job_event(n.payload)["dir_epr"]
        for n in client.listener.received
        if parse_job_event(n.payload).get("kind") == "JobCreated"
    }
    summary = testbed.run(client.fetch_output(dirs["collect"], "summary.txt"))
    print(f"\nfinal summary: {summary.to_bytes().decode()!r}")
    print("(intermediates crossed the Windows/Linux boundary via the FSSes)")


if __name__ == "__main__":
    main()
