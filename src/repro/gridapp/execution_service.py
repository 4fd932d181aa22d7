"""The Execution Service (§4.2).

"The ES's WS-Resources are jobs" — the *resource as process*
abstraction.  Run() is the entry point the Scheduler calls: the ES
creates a working directory via the FSS on its machine, directs the FSS
to upload the job's files (one-way), and returns the job's EPR.  When
the FSS's "upload complete" one-way message arrives, the ES asks the
ProcSpawn Windows service to start the binary as the requested user
(credentials arrive in the encrypted WS-Security header).  When the
process exits, ProcSpawn's completion event triggers the ES to record
the exit code and broadcast it via the Notification Broker.

Job resources expose Kill/GetExitCode methods and Status/CpuTime
resource properties, exactly the §4.2 surface.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gridapp import tracing
from repro.osim import SpawnError
from repro.osim.cpu import ProcessState
from repro.wsa import EndpointReference
from repro.wsn.base_notification import build_notify_body
from repro.wsrf.attributes import (
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
)
from repro.wsrf.basefaults import BaseFault
from repro.wsrf.lifetime import ImmediateResourceTerminationPortType
from repro.wsrf.porttypes import (
    GetMultipleResourcePropertiesPortType,
    GetResourcePropertyPortType,
    QueryResourcePropertiesPortType,
)
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG

_PATH_RP = QName(UVA, "Path")


class JobFault(BaseFault):
    FAULT_QNAME = QName(UVA, "JobFault")


@WSRFPortType(
    GetResourcePropertyPortType,
    GetMultipleResourcePropertiesPortType,
    QueryResourcePropertiesPortType,
    ImmediateResourceTerminationPortType,
)
class ExecutionService(ServiceSkeleton):
    """WS-Resources are jobs (processes) on this machine."""

    SERVICE_NS = UVA

    #: where job events go (None: no broker, events are dropped)
    DEPLOYMENT = {"broker_epr": None}

    job_name = Resource(default="")
    status = Resource(default="Created")  # StagingFiles|Running|Exited|Killed|Failed
    binary_name = Resource(default="")
    args = Resource(default=None)
    username = Resource(default="")
    password = Resource(default="")
    topic = Resource(default="")
    workdir_epr = Resource(default=None)
    pid = Resource(default=None)
    exit_code = Resource(default=None)

    # -- resource properties ---------------------------------------------------------

    @ResourceProperty
    @property
    def Status(self) -> str:
        """The job's status (running, exited, ...)."""
        return self.status

    @ResourceProperty
    @property
    def CpuTime(self) -> float:
        """CPU time used so far, read live from the process."""
        if self.pid is None:
            return 0.0
        process = self.machine.procspawn.find(self.pid)
        if process is None:
            return 0.0
        self.machine.cpu.refresh()
        return process.cpu_time

    @ResourceProperty
    @property
    def WorkingDirectory(self):
        return self.workdir_epr

    # -- operations --------------------------------------------------------------------

    @WebMethod(requires_resource=False)
    def Run(
        self,
        job_name: str,
        executable: str,
        files: List[Dict],
        topic: str,
        args: Optional[List[str]] = None,
    ) -> Dict:
        """Start the run pipeline for one job; returns {job, dir} EPRs.

        ``files`` entries are upload tuples ``{"source_epr": EPR,
        "filename": ..., "jobname": ...}``; the executable must be among
        the jobnames.  Credentials come from the WS-Security header.
        """
        machine = self.machine
        credentials = self._authenticate_request()
        tracing.record(machine, 3, f"ES@{machine.name}", f"run {job_name}")

        # "the ES first creates a new directory by contacting the FSS that
        # lives on its machine" (step 4).
        fss_epr = EndpointReference(machine.service_url("FileSystem"))
        dir_epr = yield from self.client.call(
            fss_epr, UVA, "CreateDirectory", category="fss"
        )
        tracing.record(machine, 4, f"ES@{machine.name}",
                       f"created working dir for {job_name}")

        rid = self.create_resource(
            job_name=job_name,
            status="StagingFiles",
            binary_name=executable,
            args=list(args or []),
            username=credentials.username,
            password=credentials.password,
            topic=topic,
            workdir_epr=dir_epr,
        )
        job_epr = self.epr_for(rid)

        # Direct the FSS to upload the input files (one-way, step 4).
        yield from self.client.call(
            dir_epr, UVA, "Upload",
            {"files": files, "notify_epr": job_epr, "token": rid},
            category="upload-request", one_way=True,
        )

        # Broadcast the job's EPR so the Scheduler and client can poll it
        # (step 9): "the ES can send out a notification containing the
        # job's EPR".
        self._broadcast(
            f"{topic}/{job_name}/created",
            _job_event("JobCreated", job_name, job_epr=job_epr, dir_epr=dir_epr),
        )
        return {"job": job_epr, "dir": dir_epr}

    @WebMethod(one_way=True)
    def UploadComplete(self, token: str):
        """One-way from the FSS: inputs staged; start the process (step 8)."""
        machine = self.machine
        rid = self.resource_id
        tracing.record(machine, 7, f"ES@{machine.name}", f"upload complete for {rid}")

        # Resolve the working directory path via the FSS's Path RP — the
        # stated purpose of that resource property in §4.1.
        workdir_path = yield from self.client.get_resource_property(
            self.workdir_epr, _PATH_RP, category="fss"
        )

        tracing.record(machine, 8, f"ES@{machine.name}",
                       f"ProcSpawn {self.binary_name} as {self.username}")
        try:
            process = yield from machine.procspawn.spawn(
                f"{workdir_path}/{self.binary_name}",
                list(self.args or []),
                self.username,
                self.password,
                workdir_path,
            )
        except SpawnError as exc:
            self.status = "Failed"
            self.exit_code = -2
            self._broadcast(
                f"{self.topic}/{self.job_name}/exited",
                _job_event(
                    "JobExited", self.job_name, exit_code=-2,
                    job_epr=self.wsrf.my_epr(), dir_epr=self.workdir_epr,
                    detail=str(exc),
                ),
            )
            return
        self.status = "Running"
        self.pid = process.pid
        self._broadcast(
            f"{self.topic}/{self.job_name}/started",
            _job_event("JobStarted", self.job_name, job_epr=self.wsrf.my_epr(),
                       dir_epr=self.workdir_epr),
        )
        self._watch_process(rid, process)

    def _authenticate_request(self):
        """Extract the credentials a job should run under.

        The WSRF.NET path: decrypt the WS-Security UsernameToken.  The
        GT4 subclass overrides this with GSI verification + gridmap.
        """
        return self.wsrf.credentials()

    @WebMethod
    def Kill(self) -> str:
        """Terminate the job's process."""
        if self.pid is None:
            raise JobFault(
                description=f"job {self.resource_id!r} has no process",
                timestamp=self.env.now,
            )
        process = self.machine.procspawn.find(self.pid)
        if process is not None and process.is_running:
            process.kill()
            return "killed"
        return "already-exited"

    @WebMethod
    def GetExitCode(self) -> Optional[int]:
        """The job's exit code, or None if it has not exited."""
        return self.exit_code

    def wsrf_on_destroy(self):
        """Destroying a job resource kills any live process first."""
        if self.pid is not None:
            process = self.machine.procspawn.find(self.pid)
            if process is not None and process.is_running:
                process.kill()

    @classmethod
    def wsrf_recover(cls, wrapper) -> None:
        """After a crash, non-terminal jobs are lost: their processes and
        staged files died with the machine, and no watcher survives to
        record an exit.  Forget them so the Scheduler's next Status probe
        gets ResourceUnknownFault and re-dispatches.  Terminal jobs keep
        their resources — GetExitCode and output fetches still work.
        """
        for rid in list(wrapper.resource_ids()):
            job = wrapper.load_resource(rid)
            if job.status in ("Exited", "Killed", "Failed"):
                continue
            if job.pid is not None:
                process = wrapper.machine.procspawn.find(job.pid)
                if process is not None and process.is_running:
                    process.kill()
            wrapper.destroy_resource(rid)

    # -- internals ---------------------------------------------------------------------

    def _broadcast(self, topic_path: str, payload: Element) -> None:
        """Send one Notify to the broker (which multicasts, step 9).

        Honors the write-ahead contract (WAL001): sent through the
        invocation's outbox, the event leaves this host only after the
        db_save stage persists the state change it announces (a
        ``JobStarted`` must never outlive a crash that erased the
        ``Running`` status it reported).  The process watcher's send,
        after its own dispatch returned, fires immediately.
        """
        wrapper = self.wsrf.wrapper
        broker_epr = wrapper.broker_epr
        if broker_epr is None:
            return  # testbed without a broker: events are dropped
        tracing.record(self.machine, 9, f"ES@{self.machine.name}", topic_path)
        body = build_notify_body(topic_path, payload, wrapper.service_epr())
        self.wsrf.send_after_persist(broker_epr, body)

    def _watch_process(self, rid: str, process) -> None:
        """Detached watcher: on exit, persist the outcome with a local
        dispatch (``WrapperService.run_local``), then broadcast it.

        This is the ProcSpawn → ES completion notification of step 10,
        modeled as the Windows service firing the process's done event.
        It belongs to this boot of the machine: after a crash, recovery
        (wsrf_recover) re-dispatches the job instead.
        """
        wrapper = self.wsrf.wrapper
        machine = self.machine
        epoch = machine.host.boot_epoch

        def watcher(env):
            code = yield process.done
            if wrapper._zombie(epoch) is not None:
                return
            tracing.record(machine, 10, f"ProcSpawn@{machine.name}",
                           f"{rid} exited {code}")

            def RecordExit(job):
                job.status = "Killed" if process.state == ProcessState.KILLED else "Exited"
                job.exit_code = code
                return job

            job = yield from wrapper.run_local(rid, RecordExit, epoch)
            if job is None:
                return  # destroyed while running, or the host went down
            self._broadcast(
                f"{job.topic}/{job.job_name}/exited",
                _job_event(
                    "JobExited", job.job_name, exit_code=code,
                    job_epr=wrapper.epr_for(rid),
                    dir_epr=job.workdir_epr,
                ),
            )

        self.env.process(watcher(self.env))


def _job_event(kind: str, job_name: str, exit_code=None, job_epr=None,
               dir_epr=None, detail: str = "") -> Element:
    event = Element(QName(UVA, kind))
    event.subelement(QName(UVA, "JobName"), text=job_name)
    if exit_code is not None:
        event.subelement(QName(UVA, "ExitCode"), text=str(exit_code))
    if job_epr is not None:
        event.append(job_epr.to_xml(QName(UVA, "JobEPR")))
    if dir_epr is not None:
        event.append(dir_epr.to_xml(QName(UVA, "DirEPR")))
    if detail:
        event.subelement(QName(UVA, "Detail"), text=detail)
    return event


def parse_job_event(payload: Element) -> Dict:
    """Decode a job event payload into a plain dict."""
    out: Dict = {"kind": payload.tag.local}
    name = payload.child_text(QName(UVA, "JobName"))
    if name is not None:
        out["job_name"] = name
    code = payload.child_text(QName(UVA, "ExitCode"))
    if code is not None:
        out["exit_code"] = int(code)
    job_el = payload.find(QName(UVA, "JobEPR"))
    if job_el is not None:
        out["job_epr"] = EndpointReference.from_xml(job_el)
    dir_el = payload.find(QName(UVA, "DirEPR"))
    if dir_el is not None:
        out["dir_epr"] = EndpointReference.from_xml(dir_el)
    detail = payload.child_text(QName(UVA, "Detail"))
    if detail:
        out["detail"] = detail
    return out
