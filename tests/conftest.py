"""Shared test configuration.

Pins a deterministic Hypothesis profile for the whole suite: property
tests (e.g. ``test_db.py::TestStateCodec::test_roundtrip_property``)
were flaky under the default randomized search — a fresh seed per run
occasionally tripped the default per-example deadline on slow CI
machines.  ``derandomize=True`` makes every run explore the same fixed
example sequence, and ``deadline=None`` removes the wall-clock
sensitivity (these are pure-Python codecs; a slow run is not a bug).
Override with ``HYPOTHESIS_PROFILE=dev`` for randomized local hunting.
"""

import contextlib
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=50,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None, max_examples=100)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize-all", action="store_true",
        help="build every Testbed with sanitize=True and fail a test at "
             "teardown if any of its sanitizers reported a condition",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "sanitize_off_vs_on: the test compares a Testbed built without the "
        "sanitizer against one built with it, so --sanitize-all leaves its "
        "Testbeds as the test builds them",
    )


@pytest.fixture(autouse=True)
def _sanitize_all(request, monkeypatch):
    """Under ``--sanitize-all`` every ``Testbed`` a test builds carries
    the runtime race sanitizer (docs/static_analysis.md), and each must
    finish clean.  The sanitizer observes only, so the tests' own
    assertions hold unchanged — except in a test marked
    ``sanitize_off_vs_on``, which asserts that sanitizing is off where
    it asked for no sanitizer, and whose Testbeds are left alone."""
    if (not request.config.getoption("--sanitize-all")
            or request.node.get_closest_marker("sanitize_off_vs_on")):
        yield
        return
    from repro.gridapp import Testbed

    built = []
    assemble = Testbed.__init__

    def sanitized(self, *args, **kwargs):
        assemble(self, *args, **dict(kwargs, sanitize=True))
        built.append(self)

    monkeypatch.setattr(Testbed, "__init__", sanitized)
    yield
    for tb in built:
        tb.san.assert_clean()


@pytest.fixture
def reference_codec(monkeypatch):
    """``with reference_codec():`` forces every network and every
    blob-backed store built inside the block onto the reference codec —
    ``parse`` / ``to_string`` for envelopes, ``decode_state`` /
    ``encode_state`` for resource state (the copying load and the
    wrapper's uncopied one alike), nothing handed over decoded.
    The differentials compare a run against the same run made this way:
    the hand-off (docs/performance.md) is not a knob, so the tests turn
    it off themselves."""
    from repro.db import DecodeCache
    from repro.db.resource_store import decode_state, encode_state
    from repro.soap import EnvelopeCache, SoapEnvelope
    from repro.xmlx import parse, to_string

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(EnvelopeCache, "parse",
                          lambda self, text: SoapEnvelope.from_element(parse(text)))
            patch.setattr(EnvelopeCache, "encode",
                          lambda self, envelope: to_string(envelope.to_element(),
                                                           xml_declaration=True))
            patch.setattr(DecodeCache, "decode", lambda self, blob: decode_state(blob))
            patch.setattr(DecodeCache, "kept", lambda self, blob: decode_state(blob))
            patch.setattr(DecodeCache, "encode",
                          lambda self, state, base=None: encode_state(state))
            yield

    return forced
