#!/usr/bin/env python3
"""A dependent job-set pipeline: sequence alignment → merge → analysis.

The paper's job sets are "collections of jobs in which the output of one
is used as input to the next".  This example runs the classic campus
science shape: two independent alignment jobs fan out across machines,
a merge job joins their outputs, and an analysis job consumes the merge
— four jobs, three dependency edges, with every intermediate file moved
by the File System services using the ``jobN://`` URIs of §4.6.

Run:  python examples/bioinformatics_pipeline.py
"""

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.osim.programs import Program


def align_program(label: str) -> Program:
    """A fake aligner: reads a read set, emits a SAM-ish alignment."""

    def behavior(ctx):
        reads = ctx.read_input("reads.fq").to_bytes()
        yield from ctx.compute(12.0)
        aligned = b"@" + label.encode() + b"\n" + reads.replace(b"read", b"aln")
        ctx.write_output("aligned.sam", aligned)
        return 0

    return Program(f"align-{label}", behavior)


def merge_program() -> Program:
    def behavior(ctx):
        left = ctx.read_input("left.sam").to_bytes()
        right = ctx.read_input("right.sam").to_bytes()
        yield from ctx.compute(4.0)
        ctx.write_output("merged.sam", left + right)
        return 0

    return Program("merge", behavior)


def analyze_program() -> Program:
    def behavior(ctx):
        merged = ctx.read_input("merged.sam").to_bytes()
        yield from ctx.compute(8.0)
        n_records = merged.count(b"aln")
        ctx.write_output("report.txt",
                         f"aligned records: {n_records}\n".encode())
        return 0

    return Program("analyze", behavior)


def main() -> None:
    testbed = Testbed(n_machines=4, seed=77)
    for program in (align_program("A"), align_program("B"),
                    merge_program(), analyze_program()):
        testbed.programs.register(program)

    client = testbed.make_client()
    reads_a = client.add_local_file("c:/data/sample_a.fq", b"read1 read2 read3\n")
    reads_b = client.add_local_file("c:/data/sample_b.fq", b"read4 read5\n")

    spec = client.new_job_set()
    spec.add(JobSpec(
        name="alignA",
        executable=FileRef(client.add_program_binary(testbed.programs.get("align-A")), "job.exe"),
        inputs=[FileRef(reads_a, "reads.fq")],
        outputs=["aligned.sam"],
    ))
    spec.add(JobSpec(
        name="alignB",
        executable=FileRef(client.add_program_binary(testbed.programs.get("align-B")), "job.exe"),
        inputs=[FileRef(reads_b, "reads.fq")],
        outputs=["aligned.sam"],
    ))
    spec.add(JobSpec(
        name="merge",
        executable=FileRef(client.add_program_binary(testbed.programs.get("merge")), "job.exe"),
        inputs=[
            FileRef("alignA://aligned.sam", "left.sam"),
            FileRef("alignB://aligned.sam", "right.sam"),
        ],
        outputs=["merged.sam"],
    ))
    spec.add(JobSpec(
        name="analyze",
        executable=FileRef(client.add_program_binary(testbed.programs.get("analyze")), "job.exe"),
        inputs=[FileRef("merge://merged.sam", "merged.sam")],
        outputs=["report.txt"],
    ))

    print("dependency order:", " -> ".join(spec.topological_order()))
    outcome, jobset_epr, topic = testbed.run_job_set(client, spec)
    finished = testbed.env.now
    testbed.settle()
    print(f"\njob set {topic}: {outcome} (makespan {finished:.2f}s simulated)")

    # Where did each job run?  (The Scheduler filled these in as it went.)
    from repro.xmlx import NS, QName

    rid = jobset_epr.get(QName(NS.UVACG, "ResourceID"))
    placement = testbed.scheduler.load_resource(rid).job_machine
    print("\nplacement decisions:")
    for job, machine in placement.items():
        speed = next(m.params.cpu_speed for m in testbed.machines if m.name == machine)
        print(f"  {job:<8s} -> {machine} ({speed:.2f}x)")

    # Fetch the final report from the analyze job's working directory.
    dirs = {
        parse_job_event(n.payload)["job_name"]: parse_job_event(n.payload)["dir_epr"]
        for n in client.listener.received
        if parse_job_event(n.payload).get("kind") == "JobCreated"
    }
    report = testbed.run(client.fetch_output(dirs["analyze"], "report.txt"))
    print(f"\nfinal report: {report.to_bytes().decode().strip()!r}")

    # The two aligners ran in parallel on different machines.
    if placement["alignA"] != placement["alignB"]:
        print("\n(alignA and alignB ran concurrently on different machines)")

    # A text Gantt chart built purely from the client's notifications.
    from repro.gridapp import build_report, render_gantt

    report = build_report(client.listener.received, topic)
    print("\n" + render_gantt(report, width=56))


if __name__ == "__main__":
    main()
