"""A dispatch copies only the resource fields its method reads.

The db_load stage hands the instance the store's kept state uncopied;
``Resource.__get__`` copies a field out of it on first read, and the
dirty check looks only at the fields the method read or assigned
(docs/performance.md, "Copy and compare").  The property below is the
contract: whatever a dispatch reads, assigns or changes in place, the
stored blob is the encoding of the field model, on every backend.  The
other tests pin the mechanism: what is copied, what the Scheduler
parses, and that the reference-codec differential still forces every
read through the parser.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.soap.types as types
import repro.wsrf.attributes as attributes
from repro.db import (
    BlobResourceStore,
    CachedResourceStore,
    DecodeCache,
    SqlResourceStore,
    XmlResourceStore,
    copy_field,
)
from repro.db.resource_store import decode_state, encode_state
from repro.gridapp import JobSetSpec
from repro.gridapp.scheduler import SchedulerService
from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.soap import SoapFault
from repro.wsa import EndpointReference
from repro.wsrf import Resource, ServiceSkeleton, WebMethod, WsrfClient, deploy
from repro.xmlx import NS, Element, QName

from tests.equivalence import SCENARIOS, run_scenario

UVA = NS.UVACG


class Ledger(ServiceSkeleton):
    note = Resource(default="")
    items = Resource(default=None)
    table = Resource(default=None)
    doc = Resource(default=None)

    @WebMethod(requires_resource=False)
    def Create(self):
        doc = Element(QName(UVA, "doc"), text="d")
        doc.subelement(QName(UVA, "part"), text="p")
        return self.epr_for(self.create_resource(
            note="n", items=[[1], [2]], table={"a": [3], "b": {"c": 4}}, doc=doc,
        ))

    @WebMethod
    def CountItems(self) -> int:
        return len(self.items)


def _drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def _fabric(service_cls, store=None, perf=False):
    env = Environment()
    net = Network(env)
    machine = Machine(net, "server")
    wrapper = deploy(service_cls, machine, service_cls.__name__, store=store, perf=perf)
    net.add_host("client")
    return env, wrapper, WsrfClient(net, "client")


@pytest.mark.parametrize("perf", [False, True], ids=["plain", "perf"])
def test_a_dispatch_copies_only_the_fields_it_reads(monkeypatch, perf):
    env, wrapper, client = _fabric(Ledger, perf=perf)
    epr = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
    copied = []
    original = types.read_copy

    def counting(value):
        copied.append(value)
        return original(value)

    # Both names: Resource.__get__ calls the one it imported, and the
    # copy recurses through its own module's.  The reply's int result is
    # a leaf, which crosses the hand-off without a copy_field call.
    monkeypatch.setattr(attributes, "read_copy", counting)
    monkeypatch.setattr(types, "read_copy", counting)
    assert _drive(env, client.call(epr, UVA, "CountItems")) == 2
    # ``items`` and its two members; ``note``, ``table`` and ``doc``
    # were never read, so nothing of theirs was copied.
    assert copied == [[[1], [2]], [1], [2]]


def test_the_spec_is_parsed_only_by_passes_that_find_a_pending_job(monkeypatch):
    parses = []
    passes = []
    from_wire = JobSetSpec.from_wire.__func__
    schedule = SchedulerService._schedule_ready_jobs

    def counting_parse(cls, data):
        parses.append(len(data))
        return from_wire(cls, data)

    def counting_pass(self):
        passes.append("pending" in (self.job_phase or {}).values())
        return schedule(self)

    monkeypatch.setattr(JobSetSpec, "from_wire", classmethod(counting_parse))
    monkeypatch.setattr(SchedulerService, "_schedule_ready_jobs", counting_pass)
    _, result = run_scenario(SCENARIOS["fig3_fan"])
    assert result["outcome"] == "completed"
    # One parse at submit, one per pass that has a job to place; every
    # later pass (a job exited, the rest were already dispatched) returns
    # before reading ``jobs``.
    assert len(parses) == 1 + sum(passes)
    assert 0 < sum(passes) < len(passes)


def test_the_reference_codec_parses_the_wrappers_read_too(reference_codec):
    store = BlobResourceStore()
    store.create("S", "r", {QName(UVA, "items"): [1, 2]})
    with reference_codec():
        kept = store.load_kept("S", "r")
        again = store.load_kept("S", "r")
    assert kept == again == {QName(UVA, "items"): [1, 2]}
    assert kept[QName(UVA, "items")] is not again[QName(UVA, "items")]
    assert store.decode_cache.hits == 0


class _Key(str):
    pass


@pytest.mark.parametrize("store_cls", [BlobResourceStore, CachedResourceStore])
def test_a_str_subclass_map_key_is_not_kept(store_cls):
    # The encoder writes the key as a string and the parser reads it
    # back as one: the value does not decode to itself, so it is not
    # kept decoded, and every read answers what the bytes say.
    field = QName(UVA, "table")
    state = {field: {_Key("a"): 1}, QName(UVA, "n"): 1}
    with pytest.raises(types._Inexact):
        copy_field(state[field])
    cache = DecodeCache()
    blob = cache.encode(state)
    assert blob == encode_state(state)
    for got in (cache.kept(blob), cache.decode(blob)):
        assert [type(key) for key in got[field]] == [str]
    store = store_cls()
    store.create("S", "r", state)
    for got in (store.load("S", "r"), store.load_kept("S", "r")):
        assert got == decode_state(blob)
        assert [type(key) for key in got[field]] == [str]


# -- the field model ----------------------------------------------------------------

_TEXT = st.text(alphabet="ab<&>\" \n1", max_size=4)
_ATOMS = st.one_of(st.integers(-3, 3), _TEXT, st.booleans())
_EPRS = st.builds(
    EndpointReference, st.sampled_from(["http://n1:80/Exec", "http://n2:80/Fss"]),
    st.dictionaries(st.just(QName(UVA, "ResourceID")), _TEXT, max_size=1),
)


def _doc(text):
    el = Element(QName(UVA, "doc"), text=text)
    el.subelement(QName(UVA, "part"), text="p")
    return el


#: field -> what it may be assigned; mutable fields also change in place
_ASSIGNED = {
    "text": _TEXT,
    "number": st.one_of(st.integers(-3, 3), st.booleans()),  # True vs 1 encode apart
    "flag": st.one_of(st.booleans(), st.sampled_from([0, 1])),
    "ratio": st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf")]),
    "items": st.lists(_ATOMS, max_size=3),
    "table": st.dictionaries(st.sampled_from("kxy"), _ATOMS, max_size=3),
    "doc": st.builds(_doc, _TEXT),
    "peer": _EPRS,
}
_IN_PLACE = {
    "items": st.one_of(
        st.tuples(st.just("append"), _ATOMS),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("first"), _ATOMS),
    ),
    "table": st.one_of(
        st.tuples(st.just("put"), st.tuples(st.sampled_from("kxy"), _ATOMS)),
        st.tuples(st.just("drop"), st.sampled_from("kxy")),
    ),
    "doc": st.one_of(
        st.tuples(st.just("text"), _TEXT),
        st.tuples(st.just("child"), _TEXT),
        st.tuples(st.just("attr"), _TEXT),
    ),
}
_OPS = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(sorted(_ASSIGNED))),
    *(st.tuples(st.just("assign"), st.just(name), values)
      for name, values in _ASSIGNED.items()),
    *(st.tuples(st.just("mutate"), st.just(name), how)
      for name, how in _IN_PLACE.items()),
)
_DISPATCHES = st.lists(
    st.tuples(st.lists(_OPS, max_size=6), st.booleans()), min_size=1, max_size=5,
)
_BACKENDS = [BlobResourceStore, CachedResourceStore, XmlResourceStore, SqlResourceStore]


def _fresh(value):
    """A copy no one else holds (test-side, independent of the store's)."""
    if isinstance(value, Element):
        return value.copy()
    if isinstance(value, list):
        return [_fresh(item) for item in value]
    if isinstance(value, dict):
        return {key: _fresh(item) for key, item in value.items()}
    return value


def _mutate(value, how):
    op, arg = how
    if op == "append":
        value.append(arg)
    elif op == "pop" and value:
        value.pop()
    elif op == "first" and value:
        value[0] = arg
    elif op == "put":
        value[arg[0]] = arg[1]
    elif op == "drop":
        value.pop(arg, None)
    elif op == "text":
        value.text = arg
    elif op == "child":
        value.subelement(QName(UVA, "part"), text=arg)
    elif op == "attr":
        value.set(QName(UVA, "n"), arg)


class Model(ServiceSkeleton):
    text = Resource(default="")
    number = Resource(default=0)
    flag = Resource(default=False)
    ratio = Resource(default=0.0)
    items = Resource(default=None)
    table = Resource(default=None)
    doc = Resource(default=None)
    peer = Resource(default=None)

    #: what the next Step does: ``(ops, raises)``, set by the test
    plan = ((), False)

    @WebMethod
    def Step(self) -> int:
        ops, raises = self.plan
        for op, name, *arg in ops:
            if op == "read":
                getattr(self, name)
            elif op == "assign":
                setattr(self, name, _fresh(arg[0]))
            else:
                _mutate(getattr(self, name), arg[0])
        if raises:
            raise ValueError("the method failed after its changes")
        return len(ops)


_INITIAL = {
    "text": "t", "number": 1, "flag": True, "ratio": 0.5, "items": [1, "a"],
    "table": {"k": 1}, "doc": _doc("d"), "peer": EndpointReference("http://n1:80/Exec"),
}


@given(_DISPATCHES)
def test_the_stored_state_is_the_field_model_on_every_backend(dispatches):
    for store_cls in _BACKENDS:
        env, wrapper, client = _fabric(Model, store=store_cls())
        rid = wrapper.create_resource_from_fields(_fresh(_INITIAL))
        epr = wrapper.epr_for(rid)
        model = _fresh(_INITIAL)
        for ops, raises in dispatches:
            Model.plan = (ops, raises)
            if raises:
                with pytest.raises(SoapFault):
                    _drive(env, client.call(epr, UVA, "Step"))
            else:
                assert _drive(env, client.call(epr, UVA, "Step")) == len(ops)
                for op, name, *arg in ops:  # a raising dispatch saves nothing
                    if op == "assign":
                        model[name] = _fresh(arg[0])
                    elif op == "mutate":
                        _mutate(model[name], arg[0])
            expected = encode_state({QName(UVA, name): model[name] for name in _ASSIGNED})
            assert wrapper.store.snapshot()[f"Model|{rid}"] == expected, store_cls.__name__
