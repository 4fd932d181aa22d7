"""The Scheduler's fault-tolerance watchdog (docs/fault_tolerance.md):
per running job set, a detached process (:func:`start_watchdog`) whose
one-way ``Watchdog`` self-messages run :func:`sweep`, which re-queues
(:func:`recover`) or completes the dispatched jobs it probes."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db import NoSuchResource
from repro.gridapp import tracing
from repro.net import DeliveryError
from repro.soap import SoapFault
from repro.xmlx import NS, QName

UVA = NS.UVACG

#: watchdog-driven recoveries per job before the job set fails
_MAX_REDISPATCHES = 3


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Opt-in re-dispatch behaviour for the Scheduler.

    Attach an instance as ``wrapper.fault_tolerance`` (or pass
    ``fault_tolerance=`` to the Testbed) to make the Scheduler survive
    Execution Services that become unreachable mid-run: dispatches fail
    over to alternate NIS-cataloged machines, and a per-job-set watchdog
    probes dispatched jobs, re-dispatching any whose ES stops answering
    and synthesizing completions whose JobExited notification was lost.
    Without it the Scheduler keeps the paper's original fail-fast
    behaviour (one transport fault marks the set Failed).
    """

    #: seconds between watchdog sweeps over a running job set
    watchdog_period: float = 5.0
    #: re-dispatch a job stuck in Created/StagingFiles this long
    stuck_after: float = 30.0

    def __post_init__(self) -> None:
        # ``not x > 0`` rejects NaN too, which ``x <= 0`` lets through
        if not self.watchdog_period > 0:
            raise ValueError("watchdog_period must be positive")
        if not self.stuck_after > 0:
            raise ValueError("stuck_after must be positive")


def sweep(jobset, ft: FaultToleranceConfig):
    """One FT sweep over *jobset*, a running Scheduler job set.

    For every dispatched job, probe its Status resource property at
    the Execution Service:

    * unreachable (transport fault after client retries) or resource
      unknown → re-dispatch elsewhere;
    * terminal status whose JobExited notification never arrived →
      fetch GetExitCode and synthesize the completion;
    * stuck in Created/StagingFiles past ``stuck_after`` (a lost
      one-way Upload/UploadComplete) → re-dispatch.

    Ends with a scheduling pass, which also self-heals a lost
    Activate self-message.
    """
    # The tables as the sweep found them: recoveries and completions
    # below replace the fields, never these dicts.
    eprs = jobset.job_eprs or {}
    stamped = jobset.job_dispatched_at or {}
    for name, phase in (jobset.job_phase or {}).items():
        if jobset.status != "Running":
            return  # a recovery exhausted its budget mid-sweep
        if phase != "dispatched" or name not in eprs:
            continue
        try:
            status = yield from jobset.client.get_resource_property(
                eprs[name], QName(UVA, "Status"), category="watchdog"
            )
        except DeliveryError as fault:
            recover(jobset, name, f"Execution Service unreachable: {fault}")
            continue
        except SoapFault:
            # e.g. ResourceUnknownFault: the ES restarted and forgot
            # the job; treat like an unreachable endpoint.
            recover(jobset, name, "job resource lost at the Execution Service")
            continue
        if status in ("Exited", "Killed", "Failed"):
            try:
                code = yield from jobset.client.call(
                    eprs[name], UVA, "GetExitCode", category="watchdog"
                )
            except (SoapFault, DeliveryError):
                continue  # try again next sweep
            yield from jobset._job_exited(name, code if code is not None else -1)
        elif status in ("Created", "StagingFiles"):
            since = stamped.get(name)
            if since is not None and jobset.env.now - since >= ft.stuck_after:
                recover(
                    jobset, name,
                    f"staging stalled for {jobset.env.now - since:.1f}s",
                    exclude_machine=False,
                )
    if jobset.status == "Running":
        yield from jobset._schedule_ready_jobs()


def recover(jobset, job_name: str, reason: str, exclude_machine: bool = True) -> None:
    """Re-queue *job_name* of *jobset* after its dispatch was lost."""
    done = (jobset.job_attempts or {}).get(job_name, 1)
    from_machine = (jobset.job_machine or {}).get(job_name, "?")
    if done - 1 >= _MAX_REDISPATCHES:
        jobset._fail(job_name, f"{job_name}: recovery budget exhausted ({reason})")
        return
    if exclude_machine and from_machine != "?":
        names = (jobset.job_excluded or {}).get(job_name, [])
        if from_machine not in names:
            jobset._record("job_excluded", job_name, [*names, from_machine])
    jobset._record("job_phase", job_name, "pending")
    tracing.record(
        jobset.machine, 11, "Scheduler",
        f"recover {job_name} from {from_machine}: {reason}",
    )
    jobset._announce_recovery(job_name, from_machine, reason)


def start_watchdog(wrapper, rid: str, jobset_epr, ft: FaultToleranceConfig):
    """Detached per-job-set process driving periodic Watchdog sweeps.

    It peeks the stored job set state between sleeps and stops once the
    set leaves Running (or is destroyed); each tick is a one-way
    self-message so the sweep itself runs through the normal dispatch
    pipeline, under the resource lock with state loaded (the Activate
    pattern).  The loopback link is exempt from fault injection, so the
    watchdog keeps ticking no matter how lossy the wide network is.
    """
    env = wrapper.env
    host = wrapper.machine.host
    epoch = host.boot_epoch

    def loop(env):
        while True:
            yield env.timeout(ft.watchdog_period)
            if host.boot_epoch != epoch:
                # This watchdog belongs to a dead boot; wsrf_recover
                # started a replacement, so exit instead of double-probing.
                return
            try:
                status = wrapper.load_resource(rid).status
            except NoSuchResource:
                return  # job set destroyed
            if status != "Running":
                return
            try:
                yield from wrapper.client.call(
                    jobset_epr, UVA, "Watchdog",
                    category="watchdog", one_way=True,
                )
            except DeliveryError:
                return  # scheduler host itself went down

    # Every failure path inside loop() is absorbed, so the detached
    # process can never re-raise at the end of the run.
    return env.process(loop(env))
