"""D-3: blob-in-relational vs XML database for WS-Resource state (§5).

"Saving a service's Resources as binary, unstructured data is effective
for loading and storing, but makes it very difficult to query them in
the database. ... we are currently experimenting with XML databases,
such as Yukon, because they provide the ability to store and run
queries over unstructured data."

This is real host-CPU work, so pytest-benchmark's timing IS the result:

- point load/save — the per-invocation path: the blob store wins or
  ties (serialize once vs rebuild a tree);
- cross-resource query — the blob store must reparse every blob; the
  XML store queries structure in place and wins by a growing factor.
"""

from __future__ import annotations

import pytest

from conftest import print_table

from repro.db import BlobResourceStore, XmlResourceStore
from repro.xmlx import NS, QName

UVA = NS.UVACG
N_RESOURCES = 300

_STATUS = QName(UVA, "Status")
_CPU = QName(UVA, "CpuTime")
_OWNER = QName(UVA, "Owner")
_LOG = QName(UVA, "Log")


def _state(i):
    return {
        _STATUS: "Running" if i % 4 else "Exited",
        _CPU: float(i) * 0.37,
        _OWNER: f"user{i % 7}",
        _LOG: "x" * 200,  # some bulk so (de)serialization is non-trivial
    }


def _filled(store_cls):
    store = store_cls()
    for i in range(N_RESOURCES):
        store.create("ES", f"job-{i:05d}", _state(i))
    return store


@pytest.mark.parametrize("store_cls", [BlobResourceStore, XmlResourceStore])
def bench_d3_point_load(benchmark, store_cls):
    store = _filled(store_cls)
    result = benchmark(store.load, "ES", "job-00150")
    assert result[_OWNER] == "user3"


@pytest.mark.parametrize("store_cls", [BlobResourceStore, XmlResourceStore])
def bench_d3_point_save(benchmark, store_cls):
    store = _filled(store_cls)
    state = _state(150)
    benchmark(store.save, "ES", "job-00150", state)


@pytest.mark.parametrize("store_cls", [BlobResourceStore, XmlResourceStore])
def bench_d3_scan_query(benchmark, store_cls):
    store = _filled(store_cls)
    hits = benchmark(store.scan_query, "ES", "Status[.='Exited']")
    assert len(hits) == N_RESOURCES // 4


def bench_d3_query_speedup_summary(benchmark):
    """The §5 shape in one table: the XML store's query advantage grows
    with population while point ops stay comparable."""
    import time

    def measure_pair(first, second, repeat=15):
        # The ratio of the two bests is what is asserted, so both sides
        # must see the same host load: the scans alternate inside each
        # repeat, and each is timed in this process's CPU time, which
        # does not count the time a busy host keeps the process waiting.
        best = [float("inf"), float("inf")]
        for _ in range(repeat):
            for side, fn in enumerate((first, second)):
                t0 = time.process_time()
                fn()
                best[side] = min(best[side], time.process_time() - t0)
        return best

    def scenario():
        rows = []
        for population in (50, 200, 800):
            blob, xml = BlobResourceStore(), XmlResourceStore()
            for i in range(population):
                blob.create("ES", f"j{i:05d}", _state(i))
                xml.create("ES", f"j{i:05d}", _state(i))
            q = "Status[.='Exited']"
            t_blob, t_xml = measure_pair(
                lambda: blob.scan_query("ES", q), lambda: xml.scan_query("ES", q)
            )
            assert [r for r, _ in blob.scan_query("ES", q)] == [
                r for r, _ in xml.scan_query("ES", q)
            ]
            rows.append([population, t_blob * 1000, t_xml * 1000, t_blob / t_xml])
        return rows

    rows = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table(
        "D-3: cross-resource query, blob-reparse vs XML-in-place",
        ["resources", "blob_ms", "xml_ms", "xml_speedup"],
        rows,
    )
    benchmark.extra_info["speedup_at_800"] = rows[-1][3]
    # The XML store must win queries, and the advantage must be
    # sustained as data grows (margins are generous: these are host-CPU
    # timings and the suite may share the machine).
    assert all(row[3] > 1.5 for row in rows)
    assert rows[-1][3] >= rows[0][3] * 0.6
