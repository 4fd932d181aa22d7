"""The File System Service (§4.1).

Directories are the WS-Resources; each has "a single Resource Property
that provides the actual path to the directory".  Read/Write/List work
in the directory named by the invocation EPR.  Upload is the one-way
staging operation: the ES sends a list of {EPR, filename, jobname}
tuples; the FSS pulls each file — over WSE soap.tcp from the client's
machine, over SOAP/HTTP from another FSS, or with a local filesystem
copy when the source directory is on its own machine — then sends a
one-way "upload complete" notification back so the job may start.
"""

from __future__ import annotations

from typing import Dict, List

from repro.gridapp import tracing
from repro.net import Uri
from repro.osim.filesystem import FileContent, FsError
from repro.soap import SoapFault
from repro.wsa import EndpointReference
from repro.wsrf.attributes import (
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
)
from repro.wsrf.basefaults import BaseFault
from repro.wsrf.lifetime import (
    ImmediateResourceTerminationPortType,
    ScheduledResourceTerminationPortType,
)
from repro.wsrf.porttypes import (
    GetMultipleResourcePropertiesPortType,
    GetResourcePropertyPortType,
    QueryResourcePropertiesPortType,
)
from repro.wsrf.tooling import RESOURCE_ID
from repro.xmlx import NS, QName

UVA = NS.UVACG

#: root under which the FSS creates its working directories
GRID_ROOT = "c:/uvacg"


class FileAccessFault(BaseFault):
    FAULT_QNAME = QName(UVA, "FileAccessFault")


# -- file content on the wire --------------------------------------------------------


def content_to_wire(content: FileContent) -> Dict:
    """Encode file content for a SOAP response.

    Real bytes ride inside the envelope (base64-typed, so the simulated
    wire charges their true cost); synthetic bulk content travels as a
    descriptor, and the *caller* charges the bulk bytes via
    ``Network.bulk_transfer`` (see :func:`fetch_remote_file`).
    """
    if content.is_synthetic:
        return {"kind": "synthetic", "size": content.size, "digest": content.digest}
    return {"kind": "data", "data": content.to_bytes()}


def wire_to_content(data: Dict) -> FileContent:
    kind = data.get("kind")
    if kind == "data":
        return FileContent.from_bytes(data["data"])
    if kind == "synthetic":
        return FileContent.synthetic(int(data["size"]))
    raise SoapFault("soap:Client", f"unknown file wire kind {kind!r}")


def fetch_remote_file(client, network, my_host: str, source_epr: EndpointReference,
                      filename: str, category: str):
    """Coroutine: pull one file from any Read-speaking endpoint.

    Works against a remote FSS directory resource (http) and against the
    client's lightweight WSE TCP file server (soap.tcp) — both expose
    the same ``Read(filename)`` operation.  Synthetic descriptors are
    followed by an explicit bulk transfer so big files cost real wire
    time without being materialized.
    """
    result = yield from client.call(
        source_epr, UVA, "Read", {"filename": filename}, category=category
    )
    content = wire_to_content(result)
    if content.is_synthetic:
        uri = Uri.parse(source_epr.address)
        yield from network.bulk_transfer(
            uri.host, my_host, uri.scheme, content.size, category=category
        )
    return content


@WSRFPortType(
    GetResourcePropertyPortType,
    GetMultipleResourcePropertiesPortType,
    QueryResourcePropertiesPortType,
    ImmediateResourceTerminationPortType,
    ScheduledResourceTerminationPortType,
)
class FileSystemService(ServiceSkeleton):
    """WS-Resources are directories on this machine."""

    SERVICE_NS = UVA

    dir_path = Resource(default="")

    @ResourceProperty
    @property
    def Path(self) -> str:
        """The actual path of the directory this WS-Resource represents."""
        return self.dir_path

    # -- factory ---------------------------------------------------------------------

    @WebMethod(requires_resource=False)
    def CreateDirectory(self) -> EndpointReference:
        """Make a fresh working directory and return its WS-Resource EPR."""
        root = getattr(self.machine, "GRID_ROOT", GRID_ROOT)
        path = self.machine.fs.create_unique_dir(root, prefix="wsr")
        rid = self.create_resource(dir_path=path)
        return self.epr_for(rid)

    # -- directory operations ----------------------------------------------------------

    @WebMethod
    def Read(self, filename: str) -> Dict:
        """Return the named file's content from this directory."""
        try:
            content = self.machine.fs.read_file(f"{self.dir_path}/{filename}")
        except FsError as exc:
            raise FileAccessFault(description=str(exc), timestamp=self.env.now)
        return content_to_wire(content)

    @WebMethod
    def Write(self, filename: str, data: bytes) -> int:
        """Create a file with the given name in this directory."""
        try:
            self.machine.fs.write_file(f"{self.dir_path}/{filename}", data)
        except FsError as exc:
            raise FileAccessFault(description=str(exc), timestamp=self.env.now)
        return len(data)

    @WebMethod
    def List(self) -> List[str]:
        """The contents of the directory represented by the invocation EPR."""
        try:
            return self.machine.fs.listdir(self.dir_path)
        except FsError as exc:
            raise FileAccessFault(description=str(exc), timestamp=self.env.now)

    def wsrf_on_destroy(self) -> None:
        """Destroying a directory WS-Resource removes its files too."""
        if self.dir_path and self.machine.fs.is_dir(self.dir_path):
            self.machine.fs.remove_tree(self.dir_path)

    # -- staging -----------------------------------------------------------------------

    @WebMethod(one_way=True)
    def Upload(self, files: List[Dict], notify_epr: EndpointReference, token: str):
        """One-way: pull the listed files into this directory, then notify.

        ``files`` entries are the paper's tuples: ``{"source_epr": EPR,
        "filename": name-at-source, "jobname": name-for-the-job}``.
        """
        machine = self.machine
        for item in files:
            source: EndpointReference = item["source_epr"]
            filename = item["filename"]
            jobname = item["jobname"]
            uri = Uri.parse(source.address)
            local_fss = (
                uri.scheme == "http"
                and uri.host == machine.name
                and uri.path.strip("/") == self.wsrf.wrapper.path
            )
            if local_fss:
                # "If the file happens to already be on the FSS's machine,
                # the FSS simply moves the file within the portion of the
                # file system it controls" — a copy here, since other jobs
                # may also consume the source file (documented deviation).
                src_dir = self.wsrf.wrapper.load_resource(source.get(RESOURCE_ID)).dir_path
                content = machine.fs.read_file(f"{src_dir}/{filename}")
                tracing.record(machine, 6, f"FSS@{machine.name}",
                               f"local copy {filename} -> {jobname}")
            else:
                step = 5 if uri.scheme == "soap.tcp" else 6
                category = "file-tcp" if uri.scheme == "soap.tcp" else "file-http"
                tracing.record(machine, step, f"FSS@{machine.name}",
                               f"fetch {filename} from {source.address}")
                content = yield from fetch_remote_file(
                    self.client, machine.network, machine.name, source,
                    filename, category,
                )
            machine.fs.write_file(f"{self.dir_path}/{jobname}", content)
        # "When the upload is complete, the FSS will send another one-way
        # message (which we call a notification) back to the Execution
        # service indicating that the job may start."
        tracing.record(machine, 7, f"FSS@{machine.name}", f"upload complete {token}")
        yield from self.client.call(
            notify_epr, UVA, "UploadComplete", {"token": token},
            category="upload-complete", one_way=True,
        )
