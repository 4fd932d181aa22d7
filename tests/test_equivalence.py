"""Every scenario of tests/equivalence.py still leaves the bytes the
committed goldens describe (regenerate them only on purpose: see that
module's docstring)."""

import json

import pytest

from tests.equivalence import GOLDEN, SCENARIOS, fingerprint, run_scenario

GOLDENS = json.loads(GOLDEN.read_text())


def test_goldens_cover_exactly_the_scenarios():
    assert sorted(GOLDENS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    tb, result = run_scenario(SCENARIOS[name])
    # Nothing sweeps up after a span's opener: a settled run has none open.
    assert tb.obs.spans.open_spans() == []
    got, want = fingerprint(tb, result), GOLDENS[name]
    assert list(got) == list(want)
    differing = [component for component in got if got[component] != want[component]]
    assert not differing, (
        f"{name}: first differing component is {differing[0]!r} "
        f"(all differing: {differing})"
    )
