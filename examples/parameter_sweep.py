#!/usr/bin/env python3
"""A Monte-Carlo parameter sweep across the heterogeneous campus grid.

The motivating workload for a campus grid: embarrassingly parallel
simulation.  Sixteen independent jobs, each running the same estimator
with a different seed argument, scattered by the Scheduler across
machines of different speeds.  Afterwards the client gathers every
partial result through the directory EPRs and aggregates them — and we
compare the grid makespan against what one desktop would have needed.

Run:  python examples/parameter_sweep.py
"""

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.osim.programs import Program
from repro.xmlx import NS, QName

N_TASKS = 16
WORK_PER_TASK = 25.0


def estimator_program() -> Program:
    """Estimate pi by 'sampling'; the seed argument shifts the estimate.

    Deterministic stand-in for a Monte-Carlo kernel: the per-seed
    estimates differ slightly and average toward pi.
    """

    def behavior(ctx):
        seed = int(ctx.args[0])
        yield from ctx.compute(WORK_PER_TASK)
        estimate = 3.14159265 + ((seed * 2654435761) % 1000 - 500) * 1e-6
        ctx.write_output("estimate.txt", f"{estimate:.8f}\n".encode())
        return 0

    return Program("pi-estimator", behavior)


def main() -> None:
    speeds = [1.0, 1.0, 1.5, 1.5, 2.0, 2.5]
    testbed = Testbed(n_machines=len(speeds), machine_speeds=speeds, seed=1234)
    testbed.programs.register(estimator_program())

    client = testbed.make_client()
    exe_url = client.add_program_binary(testbed.programs.get("pi-estimator"))
    spec = client.new_job_set()
    for i in range(N_TASKS):
        spec.add(
            JobSpec(
                name=f"task{i:02d}",
                executable=FileRef(exe_url, "job.exe"),
                args=[str(i)],
                outputs=["estimate.txt"],
            )
        )

    outcome, jobset_epr, topic = testbed.run_job_set(client, spec)
    makespan = testbed.env.now
    testbed.settle()
    assert outcome == "completed", outcome

    # Placement summary straight from the Scheduler's job set resource.
    rid = jobset_epr.get(QName(NS.UVACG, "ResourceID"))
    placement = testbed.scheduler.load_resource(rid).job_machine
    per_machine = {}
    for machine in placement.values():
        per_machine[machine] = per_machine.get(machine, 0) + 1
    print("placement (fastest-most-available policy):")
    for machine in sorted(per_machine):
        speed = next(m.params.cpu_speed for m in testbed.machines if m.name == machine)
        print(f"  {machine} ({speed:.1f}x): {per_machine[machine]:2d} tasks "
              + "#" * per_machine[machine])

    # Gather and aggregate every partial result.
    dirs = {
        parse_job_event(n.payload)["job_name"]: parse_job_event(n.payload)["dir_epr"]
        for n in client.listener.received
        if parse_job_event(n.payload).get("kind") == "JobCreated"
    }
    estimates = []
    for name in sorted(dirs):
        content = testbed.run(client.fetch_output(dirs[name], "estimate.txt"))
        estimates.append(float(content.to_bytes().decode().strip()))
    mean = sum(estimates) / len(estimates)

    serial_time = N_TASKS * WORK_PER_TASK / 1.0  # one 1.0x desktop
    print(f"\naggregated estimate of pi from {len(estimates)} tasks: {mean:.6f}")
    print(f"grid makespan: {makespan:8.1f} s simulated")
    print(f"one desktop:   {serial_time:8.1f} s simulated")
    print(f"speedup:       {serial_time / makespan:8.2f}x "
          f"(total grid capacity {sum(speeds):.1f}x)")


if __name__ == "__main__":
    main()
