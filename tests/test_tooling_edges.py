"""Edge cases in the wrapper tooling and store/SQL integration."""

import pytest

from repro.db import execute_sql
from repro.net import Network
from repro.obs import Observability
from repro.osim import Machine
from repro.sim import Environment
from repro.soap import SoapFault
from repro.wsrf import (
    GetResourcePropertyPortType,
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
)
from repro.wsrf.porttypes import SpecPortType
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG


class BaseDevice(ServiceSkeleton):
    """Inheritance: subclasses add methods/fields to a common base."""

    label = Resource(default="dev")

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource())

    @WebMethod
    def Label(self) -> str:
        return self.label


@WSRFPortType(GetResourcePropertyPortType)
class Camera(BaseDevice):
    zoom = Resource(default=1)

    @ResourceProperty
    @property
    def Zoom(self) -> int:
        return self.zoom

    @WebMethod
    def ZoomIn(self) -> int:
        self.zoom = self.zoom + 1
        return self.zoom

    @WebMethod
    def Snapshot(self):
        """Returns a raw Element as a custom response body."""
        response = Element(QName(UVA, "SnapshotResponse"))
        response.subelement(QName(UVA, "Pixels"), text="...")
        return response


def _fabric():
    env = Environment()
    net = Network(env)
    machine = Machine(net, "server")
    wrapper = deploy(Camera, machine, "Camera")
    net.add_host("client")
    client = WsrfClient(net, "client")
    return env, net, machine, wrapper, client


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


class TestInheritance:
    def test_inherited_methods_and_fields_work(self):
        env, net, machine, wrapper, client = _fabric()
        epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        assert run(env, client.call(epr, UVA, "Label")) == "dev"  # base method
        assert run(env, client.call(epr, UVA, "ZoomIn")) == 2  # subclass method
        assert run(env, client.get_resource_property(epr, QName(UVA, "Zoom"))) == 2

    def test_state_includes_base_and_subclass_fields(self):
        env, net, machine, wrapper, client = _fabric()
        epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rid = epr.get(QName(UVA, "ResourceID"))
        state = wrapper.store.load("Camera", rid)
        assert QName(UVA, "label") in state and QName(UVA, "zoom") in state


class TestCustomResponses:
    def test_element_response_passthrough(self):
        env, net, machine, wrapper, client = _fabric()
        epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        body = Element(QName(UVA, "Snapshot"))
        response = run(env, client.invoke(epr, body))
        assert response.tag == QName(UVA, "SnapshotResponse")
        assert response.child_text(QName(UVA, "Pixels")) == "..."


class TestDeploymentEdges:
    def test_two_services_one_machine(self):
        env = Environment()
        net = Network(env)
        machine = Machine(net, "server")
        w1 = deploy(Camera, machine, "CamA")
        w2 = deploy(Camera, machine, "CamB")
        net.add_host("client")
        client = WsrfClient(net, "client")
        epr1 = run(env, client.call(w1.service_epr(), UVA, "Create"))
        epr2 = run(env, client.call(w2.service_epr(), UVA, "Create"))
        run(env, client.call(epr1, UVA, "ZoomIn"))
        # Stores are independent: CamB's resource is untouched.
        assert run(env, client.get_resource_property(epr2, QName(UVA, "Zoom"))) == 1

    def test_duplicate_path_rejected(self):
        env = Environment()
        net = Network(env)
        machine = Machine(net, "server")
        deploy(Camera, machine, "Cam")
        with pytest.raises(ValueError, match="already registered"):
            deploy(Camera, machine, "Cam")

    def test_same_class_two_machines_isolated(self):
        env = Environment()
        net = Network(env)
        m1, m2 = Machine(net, "a"), Machine(net, "b")
        w1, w2 = deploy(Camera, m1, "Cam"), deploy(Camera, m2, "Cam")
        net.add_host("client")
        client = WsrfClient(net, "client")
        epr1 = run(env, client.call(w1.service_epr(), UVA, "Create"))
        # The EPR binds to machine a; machine b has no such resource.
        rid = epr1.get(QName(UVA, "ResourceID"))
        from repro.wsa import EndpointReference
        from repro.wsrf import ResourceUnknownFault

        foreign = EndpointReference(w2.address, {QName(UVA, "ResourceID"): rid})
        with pytest.raises(ResourceUnknownFault):
            run(env, client.call(foreign, UVA, "ZoomIn"))


PING = QName(UVA, "Ping")


class PingPortType(SpecPortType):
    """A spec operation that needs a WS-Resource only when the EPR names one."""

    OPERATIONS = {PING: "ping"}
    OPTIONAL_RESOURCE_OPS = frozenset({PING})

    def ping(self, request: Element) -> Element:
        return Element(QName(UVA, "PingResponse"), text="spec")


@WSRFPortType(PingPortType)
class Router(ServiceSkeleton):
    hits = Resource(default=0)

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource())

    @WebMethod(requires_resource=False)
    def Peek(self) -> str:
        return self.resource_id


class ShadowRouter(Router):
    @WebMethod
    def Ping(self) -> str:
        return "author"


def _observed(service_cls):
    env = Environment()
    net = Network(env)
    obs = Observability(env).attach(net)
    wrapper = deploy(service_cls, Machine(net, "server"), "Router")
    net.add_host("client")
    client = WsrfClient(net, "client")
    epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
    return env, obs, wrapper, client, epr


def _last_stages(obs):
    """The last dispatch span and its stages' short names."""
    dispatch = obs.spans.named("wsrf.dispatch")[-1]
    stages = obs.spans.children(dispatch)
    return dispatch, stages, [s.name.rsplit(".", 1)[1] for s in stages]


class TestRouting:
    """The needs-resource rules of the wrapper's one operation table."""

    def test_optional_resource_op_loads_only_when_the_epr_names_one(self):
        env, obs, wrapper, client, epr = _observed(Router)
        loads = wrapper.store.loads
        reply = run(env, client.invoke(wrapper.service_epr(), Element(PING)))
        assert reply.text == "spec"
        assert _last_stages(obs)[2] == ["epr_resolve", "queue", "method", "db_save"]
        assert wrapper.store.loads == loads
        run(env, client.invoke(epr, Element(PING)))
        assert _last_stages(obs)[2] == [
            "epr_resolve", "queue", "db_load", "method", "db_save"
        ]
        assert wrapper.store.loads == loads + 1

    def test_resource_free_author_method_never_loads(self):
        env, obs, wrapper, client, epr = _observed(Router)
        loads = wrapper.store.loads
        assert run(env, client.call(epr, UVA, "Peek")) == epr.get(QName(UVA, "ResourceID"))
        assert "db_load" not in _last_stages(obs)[2]
        assert wrapper.store.loads == loads

    def test_author_method_wins_a_clash(self):
        env, obs, wrapper, client, epr = _observed(ShadowRouter)
        assert run(env, client.call(epr, UVA, "Ping")) == "author"

    def test_unknown_body_element_faults_after_epr_resolve(self):
        env, obs, wrapper, client, epr = _observed(Router)
        with pytest.raises(SoapFault) as info:
            run(env, client.invoke(epr, Element(QName(UVA, "Bogus"))))
        assert info.value.code == "soap:Client"
        dispatch, stages, names = _last_stages(obs)
        assert names == ["epr_resolve"]
        assert stages[0].end == stages[0].start
        assert stages[0].attrs["resource_id"] == epr.get(QName(UVA, "ResourceID"))
        assert dispatch.attrs["fault"] == "soap:Client"


class TestOdbcFidelity:
    """The blob store really is 'any ODBC compliant database': its rows
    are reachable through the SQL dialect, exactly as WSRF.NET's state
    would be through ODBC."""

    def test_resources_table_sql_queryable(self):
        env, net, machine, wrapper, client = _fabric()
        for _ in range(3):
            run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rows = execute_sql(
            wrapper.store.db,
            "SELECT resource_id FROM resources WHERE service = ?",
            ["Camera"],
        )
        assert len(rows) == 3
        # And the blobs are opaque binary, per the design being critiqued
        # in section 5 of the paper.
        blobs = execute_sql(
            wrapper.store.db,
            "SELECT state FROM resources WHERE service = ?",
            ["Camera"],
        )
        assert all(isinstance(r["state"], bytes) for r in blobs)

    def test_sql_delete_reflected_in_wsrf(self):
        env, net, machine, wrapper, client = _fabric()
        epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rid = epr.get(QName(UVA, "ResourceID"))
        # A DBA deletes the row out from under the service...
        deleted = execute_sql(
            wrapper.store.db, "DELETE FROM resources WHERE resource_id = ?", [rid]
        )
        assert deleted == 1
        from repro.wsrf import ResourceUnknownFault

        with pytest.raises(ResourceUnknownFault):
            run(env, client.call(epr, UVA, "ZoomIn"))
