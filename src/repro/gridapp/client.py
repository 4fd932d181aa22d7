"""The scientist's client tooling (§4.6).

"First, the scientist uses a GUI tool to assemble the description of
their job set" — here a builder API.  "The tool starts a TCP-based
server thread that will respond to requests for any input files that
need to come from the scientist's local file system" — the
:class:`ClientFileServer`, speaking SOAP over the simulated WSE TCP
transport.  "Finally, the client program starts one of WSRF.NET's
light-weight notification receivers" — a
:class:`~repro.wsn.consumer.NotificationListener`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gridapp import tracing
from repro.gridapp.filesystem_service import (
    content_to_wire,
    fetch_remote_file,
)
from repro.gridapp.jobset import JobSetSpec
from repro.net import Network
from repro.osim.filesystem import FileContent, FsError, SimFileSystem
from repro.soap import SoapFault, from_typed_element, typed_value
from repro.soap.endpoint import read_request, reject, reply_text
from repro.wsa import EndpointReference
from repro.wsn import NotificationListener
from repro.wsrf.client import WsrfClient
from repro.wssec import Certificate, UsernameToken, build_security_header
from repro.wssec.tokens import x509_token_element
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG

FILE_SERVER_PORT = 9000
LISTENER_PORT = 7000


def parse_job_event_safe(payload: Element) -> Dict:
    """parse_job_event, tolerating non-job payloads (returns {})."""
    from repro.gridapp.execution_service import parse_job_event

    try:
        event = parse_job_event(payload)
    except Exception:
        return {}
    return event if event.get("job_name") else {}


class ClientFileServer:
    """The client's lightweight WSE TCP file server.

    Serves ``Read(filename)`` requests from the scientist's local file
    system, speaking the same operation the FSS exposes, so the FSS can
    pull ``local://`` inputs without caring who is on the other end.
    Anything else — unreadable text, another operation, a missing file
    — is answered with a ``soap:Client`` fault, or counted and dropped
    when it came one-way (:mod:`repro.soap.endpoint`).
    """

    def __init__(self, network: Network, host_name: str, fs: SimFileSystem) -> None:
        self.network = network
        self.env = network.env
        self.host_name = host_name
        self.fs = fs
        self.reads_served = 0
        network.host(host_name).bind(FILE_SERVER_PORT, self)

    @property
    def epr(self) -> EndpointReference:
        return EndpointReference(
            f"soap.tcp://{self.host_name}:{FILE_SERVER_PORT}/files"
        )

    def handle(self, payload: str, ctx):
        network = self.network
        envelope = None
        try:
            envelope = read_request(payload, network.codec)
            body = envelope.body
            if body.tag != QName(UVA, "Read"):
                raise SoapFault("soap:Client", "file server only supports Read")
            filename_el = body.find(QName(UVA, "filename"))
            if filename_el is None:
                raise SoapFault("soap:Client", "Read lacks a filename")
            filename = from_typed_element(filename_el)
            if not isinstance(filename, str):
                raise SoapFault("soap:Client", "Read's filename is not a string")
            tracing.record(network, 5, f"ClientFS@{self.host_name}",
                           f"serving {filename}")
            try:
                content = self.fs.read_file(filename)
            except FsError as exc:
                raise SoapFault("soap:Client", str(exc)) from None
        except SoapFault as fault:
            return reject(network, ctx, envelope, fault, self.host_name)
        self.reads_served += 1
        response = Element(QName(UVA, "ReadResponse"))
        response.append(
            typed_value(QName(UVA, "ReadResult"), content_to_wire(content))
        )
        return reply_text(network.codec, ctx, envelope, response, self.host_name)
        yield  # unreached; it makes handle a generator, as a server's must be

    def close(self) -> None:
        self.network.host(self.host_name).unbind(FILE_SERVER_PORT)


class GridClient:
    """Everything the scientist's machine runs."""

    def __init__(
        self,
        network: Network,
        host_name: str,
        username: str,
        password: str,
        scheduler_epr: EndpointReference,
        scheduler_cert: Certificate,
        user_keys=None,
        user_cert=None,
        retry_policy=None,
    ) -> None:
        self.network = network
        self.env = network.env
        self.host_name = host_name
        self.credentials = UsernameToken(username, password)
        self.scheduler_epr = scheduler_epr
        self.scheduler_cert = scheduler_cert
        #: optional grid identity (GSI): enables dispatch to GT4 machines
        self.user_keys = user_keys
        self.user_cert = user_cert
        if host_name not in network.hosts:
            network.add_host(host_name)
        #: the scientist's local file system (not part of the grid)
        self.fs = SimFileSystem(host_name)
        self.fs.mkdir("c:/data")
        self.file_server = ClientFileServer(network, host_name, self.fs)
        self.listener = NotificationListener(network, host_name, port=LISTENER_PORT)
        self.soap = WsrfClient(network, host_name, retry_policy=retry_policy)
        #: completion events by topic, fed by the listener
        self._completions: Dict[str, object] = {}
        self.listener.on_topic("**", self._on_note)

    # -- local files ------------------------------------------------------------------

    def add_local_file(self, path: str, content) -> str:
        """Put a file on the scientist's machine; returns a local:// URL."""
        if isinstance(content, bytes):
            content = FileContent.from_bytes(content)
        self.fs.write_file(path, content)
        return f"local://{path}"

    def add_program_binary(self, program, path: Optional[str] = None) -> str:
        """Stage a registered Program's binary locally (the executable)."""
        path = path or f"c:/data/{program.name}.exe"
        return self.add_local_file(path, program.binary_content())

    # -- job set construction -------------------------------------------------------------

    def new_job_set(self) -> JobSetSpec:
        return JobSetSpec()

    # -- submission and monitoring ----------------------------------------------------------

    def submit(self, spec: JobSetSpec, scheduler_epr=None, scheduler_cert=None,
               origin: str = ""):
        """Coroutine: submit the job set; returns (jobset_epr, topic).

        *scheduler_epr*/*scheduler_cert* override the default Scheduler
        (federation routing submits to a zone's Scheduler); *origin*,
        when non-empty, names the zone a stolen job set came from.
        """
        spec.validate()
        scheduler_epr = scheduler_epr or self.scheduler_epr
        scheduler_cert = scheduler_cert or self.scheduler_cert
        tracing.record(self.network, 1, f"Client@{self.host_name}",
                       f"submit {len(spec.jobs)} jobs")
        header = build_security_header(self.credentials, scheduler_cert)
        if self.user_keys is not None and self.user_cert is not None:
            # Delegate a signed identity token alongside the encrypted
            # username/password, for dispatch to GT4 machines.
            header.append(
                x509_token_element(self.user_keys, self.user_cert, self.env.now)
            )
        args = {
            "jobs": spec.to_wire(),
            "listener_epr": self.listener.epr,
            "fileserver_epr": self.file_server.epr,
        }
        if origin:
            # Only on the wire when set, so default submissions keep
            # their exact historical byte shape.
            args["origin"] = origin
        result = yield from self.soap.call(
            scheduler_epr,
            UVA,
            "SubmitJobSet",
            args,
            extra_headers=[header],
            category="submit",
        )
        return result["jobset"], result["topic"]

    def _on_note(self, note) -> None:
        parts = note.topic.split("/")
        if len(parts) == 2 and parts[1] in ("completed", "failed", "cancelled"):
            event = self._completions.get(parts[0])
            if event is not None and not event.triggered:
                event.succeed(parts[1])

    def wait_for_completion(self, topic: str):
        """Coroutine: block until the job set announces a terminal state."""
        for note in self.listener.received:
            parts = note.topic.split("/")
            if parts[0] == topic and len(parts) == 2 and parts[1] in (
                "completed", "failed", "cancelled",
            ):
                return parts[1]
        event = self._completions.get(topic)
        if event is None:
            event = self.env.event()
            self._completions[topic] = event
        outcome = yield event
        return outcome

    def run_job_set(self, spec: JobSetSpec):
        """Coroutine: submit and wait; returns (outcome, jobset_epr, topic)."""
        jobset_epr, topic = yield from self.submit(spec)
        outcome = yield from self.wait_for_completion(topic)
        return outcome, jobset_epr, topic

    def poll_until_complete(self, jobset_epr, period: float = 2.0,
                            give_up_after: Optional[float] = None):
        """Coroutine: poll the job set's Status RP until it is terminal.

        The listener path rides one-way notifications, which a lossy
        network may drop outright; polling the Scheduler is
        request/response, so a retry policy on this client makes it
        converge whenever the Scheduler is reachable at all.  Returns
        the outcome lowercased ("completed"/"failed"), or "timeout" if
        ``give_up_after`` simulated seconds pass first.
        """
        deadline = (
            None if give_up_after is None else self.env.now + give_up_after
        )
        while True:
            status = yield from self.soap.get_resource_property(
                jobset_epr, QName(UVA, "Status"), category="poll"
            )
            if status in ("Completed", "Failed"):
                return status.lower()
            if deadline is not None and self.env.now >= deadline:
                return "timeout"
            yield self.env.timeout(period)

    def run_job_set_polled(self, spec: JobSetSpec, period: float = 2.0,
                           give_up_after: Optional[float] = None):
        """Coroutine: like run_job_set but monitored by polling (FT path)."""
        jobset_epr, topic = yield from self.submit(spec)
        outcome = yield from self.poll_until_complete(
            jobset_epr, period=period, give_up_after=give_up_after
        )
        return outcome, jobset_epr, topic

    def progress_messages(self, topic: str) -> List[str]:
        """The §4.6 GUI's progress display: this job set's event stream."""
        return [
            note.topic
            for note in self.listener.received
            if note.topic.split("/")[0] == topic
        ]

    # -- durable client-side state (the §5 durability question) --------------------

    def export_state(self) -> bytes:
        """Serialize every EPR this client holds, as an XML document.

        §5 asks "how durable does that client-side information need to
        be (e.g., should it survive client shutdown?)".  This makes the
        answer an API: persist the returned bytes, restart, and
        :meth:`import_state` restores the EPR inventory without any
        network traffic (rediscovery via the Scheduler remains the
        fallback when even this is lost — benchmark D-8).
        """
        root = Element(QName(UVA, "ClientState"))
        for note in self.listener.received:
            event = parse_job_event_safe(note.payload)
            if not event:
                continue
            topic_root = note.topic.split("/")[0]
            entry = root.subelement(QName(UVA, "Held"))
            entry.set("topic", topic_root)
            entry.set("job", event.get("job_name", ""))
            for key, tag in (("job_epr", "JobEPR"), ("dir_epr", "DirEPR")):
                if key in event:
                    entry.append(event[key].to_xml(QName(UVA, tag)))
        from repro.xmlx import to_string

        return to_string(root).encode("utf-8")

    def import_state(self, blob: bytes) -> Dict[str, Dict[str, Dict[str, EndpointReference]]]:
        """Inverse of :meth:`export_state`.

        Returns ``{topic: {job: {"job": EPR, "dir": EPR}}}`` so a
        restarted client can resume polling jobs and fetching outputs.
        """
        from repro.xmlx import parse

        root = parse(blob.decode("utf-8"))
        out: Dict[str, Dict[str, Dict[str, EndpointReference]]] = {}
        for entry in root.findall(QName(UVA, "Held")):
            topic = entry.get("topic") or ""
            job = entry.get("job") or ""
            slot = out.setdefault(topic, {}).setdefault(job, {})
            job_el = entry.find(QName(UVA, "JobEPR"))
            dir_el = entry.find(QName(UVA, "DirEPR"))
            if job_el is not None:
                slot["job"] = EndpointReference.from_xml(job_el)
            if dir_el is not None:
                slot["dir"] = EndpointReference.from_xml(dir_el)
        return out

    # -- results -----------------------------------------------------------------------------

    def fetch_output(self, dir_epr: EndpointReference, filename: str):
        """Coroutine: retrieve a file a job produced, via its dir EPR.

        "The client can use this EPR to retrieve files generated by the
        job or monitor progress by watching for changes in that
        directory."
        """
        content = yield from fetch_remote_file(
            self.soap, self.network, self.host_name, dir_epr, filename,
            category="result-fetch",
        )
        return content

    def list_output_dir(self, dir_epr: EndpointReference):
        """Coroutine: List() on a job's working directory."""
        names = yield from self.soap.call(dir_epr, UVA, "List", category="result-fetch")
        return names
