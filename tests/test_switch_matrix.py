"""The switch matrix: four assembly switches crossed on one job set.

perf, sanitize, federation (none or one zone) and the fault-tolerance
trio (off or on) give 16 testbeds.  Each runs the 6-job Fig-3 fan
through :func:`tests.equivalence.run_scenario`; the fault-tolerance runs
poll, as the goldens' fault-tolerance scenarios do.  Two invariance
classes hold across the matrix:

- **sanitize** observes only: with the other three switches fixed, the
  runs with it on and off are identical in every fingerprint component,
  and the sanitizer reports nothing;
- **perf, one zone and fault tolerance** change how a run gets there,
  not what it produces: outcome, outputs, exit codes, placements and
  phases are the same in all 16 runs.
"""

import itertools

import pytest

from repro.gridapp import FederationConfig

from tests.equivalence import FT, Scenario, fingerprint, run_scenario

#: switch -> its (off, on) ``Testbed`` keywords
SWITCHES = {
    "perf": ({}, dict(perf=True)),
    "sanitize": ({}, dict(sanitize=True)),
    "zones": ({}, dict(federation=FederationConfig(n_zones=1))),
    "ft": ({}, FT),
}
SANITIZE = list(SWITCHES).index("sanitize")

#: what a run produces, as opposed to how it got there
PRODUCT = ("outcome", "outputs", "exit_codes", "placements", "phases")


@pytest.fixture(scope="module")
def matrix():
    """``{(perf, sanitize, zones, ft) bits: (result, fingerprint)}``."""
    runs = {}
    for bits in itertools.product((0, 1), repeat=len(SWITCHES)):
        testbed = {}
        for options, bit in zip(SWITCHES.values(), bits):
            testbed.update(options[bit])
        tb, result = run_scenario(Scenario(testbed=testbed, polled=bool(bits[-1])))
        if tb.san is not None:
            tb.san.assert_clean()
        runs[bits] = (result, fingerprint(tb, result))
    return runs


def _label(bits):
    return ",".join(name for name, bit in zip(SWITCHES, bits) if bit) or "plain"


def test_every_combination_completes_with_the_same_outputs(matrix):
    results = {_label(bits): result for bits, (result, _) in matrix.items()}
    assert {label: r["outcome"] for label, r in results.items()} == dict.fromkeys(
        results, "completed"
    )
    outputs = results["plain"]["outputs"]
    assert len(outputs) == 6
    assert all(r["outputs"] == outputs for r in results.values())


def test_sanitize_changes_no_fingerprint_component(matrix):
    for bits, (_, off) in matrix.items():
        if bits[SANITIZE]:
            continue
        on_bits = bits[:SANITIZE] + (1,) + bits[SANITIZE + 1:]
        on = matrix[on_bits][1]
        moved = [component for component in off if off[component] != on[component]]
        assert moved == [], (_label(on_bits), moved)


def test_perf_zones_and_fault_tolerance_keep_what_the_run_produces(matrix):
    plain = matrix[(0,) * len(SWITCHES)][0]
    for bits, (result, _) in matrix.items():
        moved = [key for key in PRODUCT if result[key] != plain[key]]
        assert moved == [], (_label(bits), moved)
