"""Job-set reporting: turn the notification stream into human output.

The paper's client "displays the messages to keep the user informed of
the job set's progress"; this module is that display, grown up: a
per-job timeline (text Gantt) and a summary table, computed purely from
the WS-Notification events a client received — no privileged access to
server state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gridapp.execution_service import parse_job_event


@dataclass(frozen=True)
class RecoveryEvent:
    """One Scheduler re-dispatch, from a JobRecovery notification."""

    at: float
    from_machine: str


@dataclass
class JobTimeline:
    name: str
    created_at: Optional[float] = None
    started_at: Optional[float] = None
    exited_at: Optional[float] = None
    exit_code: Optional[int] = None
    machine_hint: str = ""
    recoveries: List[RecoveryEvent] = field(default_factory=list)

    @property
    def staging_s(self) -> Optional[float]:
        if self.created_at is None or self.started_at is None:
            return None
        return self.started_at - self.created_at

    @property
    def running_s(self) -> Optional[float]:
        if self.started_at is None or self.exited_at is None:
            return None
        return self.exited_at - self.started_at

    @property
    def outcome(self) -> str:
        if self.exit_code is None:
            return "running" if self.started_at is not None else "staging"
        return "ok" if self.exit_code == 0 else f"exit={self.exit_code}"


@dataclass
class JobSetReport:
    topic: str
    jobs: Dict[str, JobTimeline] = field(default_factory=dict)
    submitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    outcome: str = "running"

    @property
    def makespan_s(self) -> Optional[float]:
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def total_recoveries(self) -> int:
        return sum(len(job.recoveries) for job in self.jobs.values())


def build_report(received, topic: str) -> JobSetReport:
    """Digest a listener's notifications for one job set."""
    report = JobSetReport(topic=topic)
    for note in received:
        parts = note.topic.split("/")
        if parts[0] != topic:
            continue
        if report.submitted_at is None:
            report.submitted_at = note.at
        if len(parts) == 2 and parts[1] in ("completed", "failed", "cancelled"):
            report.finished_at = note.at
            report.outcome = parts[1]
            continue
        if len(parts) == 2 and parts[1] == "recovery":
            # FT layer: <JobRecovery job=... from=...> with a WS-BaseFault
            # detail (see docs/fault_tolerance.md).
            name = note.payload.get("job") or ""
            if name:
                job = report.jobs.setdefault(name, JobTimeline(name))
                job.recoveries.append(
                    RecoveryEvent(
                        at=note.at,
                        from_machine=note.payload.get("from") or "?",
                    )
                )
            continue
        event = parse_job_event(note.payload)
        name = event.get("job_name")
        if not name:
            continue
        job = report.jobs.setdefault(name, JobTimeline(name))
        kind = event.get("kind")
        if kind == "JobCreated":
            job.created_at = note.at
            dir_epr = event.get("dir_epr")
            if dir_epr is not None:
                # http://node03:80/FileSystem -> node03
                job.machine_hint = dir_epr.address.split("//")[-1].split(":")[0]
        elif kind == "JobStarted":
            job.started_at = note.at
        elif kind == "JobExited":
            job.exited_at = note.at
            job.exit_code = event.get("exit_code")
    return report


def render_gantt(report: JobSetReport, width: int = 60) -> str:
    """An ASCII timeline: ``.`` staging, ``#`` running, per job."""
    jobs = sorted(report.jobs.values(), key=lambda j: (j.created_at or 0, j.name))
    if not jobs:
        return f"(no job events for {report.topic})"
    t0 = report.submitted_at or min(j.created_at or 0 for j in jobs)
    t1 = report.finished_at or max(
        (j.exited_at or j.started_at or j.created_at or t0) for j in jobs
    )
    span = max(t1 - t0, 1e-9)

    def column(t: Optional[float]) -> int:
        if t is None:
            return width
        return min(width - 1, max(0, int((t - t0) / span * (width - 1))))

    name_w = max(len(j.name) for j in jobs)
    host_w = max([len(j.machine_hint) for j in jobs] + [4])
    lines = [
        f"{report.topic}: {report.outcome}"
        + (f" in {report.makespan_s:.2f}s" if report.makespan_s else "")
    ]
    for job in jobs:
        c0 = column(job.created_at)
        c1 = column(job.started_at)
        c2 = column(job.exited_at)
        bar = [" "] * width
        for i in range(c0, c1):
            bar[i] = "."
        for i in range(c1, c2):
            bar[i] = "#"
        if c2 < width and job.exited_at is not None:
            bar[c2] = "#" if job.exit_code == 0 else "X"
        for recovery in job.recoveries:
            bar[column(recovery.at)] = "R"
        lines.append(
            f"  {job.name:<{name_w}}  {job.machine_hint:<{host_w}}  |{''.join(bar)}|"
            f" {job.outcome}"
        )
    lines.append(
        f"  {'':{name_w}}  {'':{host_w}}  |{'-' * width}|"
    )
    lines.append(
        f"  {'':{name_w}}  {'':{host_w}}   {t0:<.2f}s{'':{max(0, width - 14)}}{t1:.2f}s"
    )
    return "\n".join(lines)


def render_summary(report: JobSetReport) -> str:
    """A per-job summary table (staging / run / outcome)."""
    lines = [f"job set {report.topic}: {report.outcome}"]
    for name in sorted(report.jobs):
        job = report.jobs[name]
        staging = f"{job.staging_s:.2f}s" if job.staging_s is not None else "-"
        running = f"{job.running_s:.2f}s" if job.running_s is not None else "-"
        recovered = (
            f"  recovered x{len(job.recoveries)}" if job.recoveries else ""
        )
        lines.append(
            f"  {name:<12} on {job.machine_hint or '?':<10} "
            f"staging {staging:>8}  run {running:>8}  {job.outcome}{recovered}"
        )
    if report.total_recoveries:
        lines.append(f"  recoveries: {report.total_recoveries}")
    if report.makespan_s is not None:
        lines.append(f"  makespan: {report.makespan_s:.2f}s")
    return "\n".join(lines)
