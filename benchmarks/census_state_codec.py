"""Census of the typed writer's work on the six ledger workloads.

Counts from outside, with wrappers around ``repro.soap.types`` and
``DecodeCache.encode``, what each ledger workload (seed 11, full size,
assembled and ``run()`` in-process) makes the state codec do:

- ``state encodes``: calls of ``DecodeCache.encode``;
- ``map entries written``: map entries the typed writer spelled
  (``_write_typed`` of a ``uva:value``), in state encodes and in all;
- ``handed over``: the value nodes the writer walked, and those it gave
  to ``to_typed_element``, the reference encoder: all, and the
  ``EndpointReference`` values among them.

Run from the repository root (the figures are exact, not timings)::

    PYTHONPATH=src:benchmarks/ledger python benchmarks/census_state_codec.py
"""

from __future__ import annotations

import sys

import workloads
from repro.db import DecodeCache
from repro.soap import types as soap_types
from repro.wsa import EndpointReference

SEED = 11


def census(name: str) -> dict:
    counts = {"state encodes": 0, "entries in state": 0, "entries": 0,
              "nodes": 0, "handed over": 0, "EPRs handed over": 0}
    depth = {"writer": 0, "reference": 0, "encode": 0}
    write, to_element, encode = (
        soap_types._write_typed, soap_types.to_typed_element, DecodeCache.encode)

    def counting_write(tag, *args, **kwargs):
        counts["nodes"] += 1
        if tag == soap_types._VALUE:
            counts["entries"] += 1
            counts["entries in state"] += depth["encode"] > 0
        depth["writer"] += 1
        try:
            return write(tag, *args, **kwargs)
        finally:
            depth["writer"] -= 1

    def counting_element(tag, value):
        if depth["writer"] and not depth["reference"]:
            counts["handed over"] += 1
            counts["EPRs handed over"] += type(value) is EndpointReference
        depth["reference"] += 1
        try:
            return to_element(tag, value)
        finally:
            depth["reference"] -= 1

    def counting_encode(self, state, base=None):
        counts["state encodes"] += 1
        depth["encode"] += 1
        try:
            return encode(self, state, base)
        finally:
            depth["encode"] -= 1

    soap_types._write_typed = counting_write
    soap_types.to_typed_element = counting_element
    DecodeCache.encode = counting_encode
    try:
        workloads.WORKLOADS[name](SEED, "full").run()
    finally:
        soap_types._write_typed, soap_types.to_typed_element = write, to_element
        DecodeCache.encode = encode
    return counts


def main(names) -> None:
    print("| workload | state encodes | map entries written in state encodes | "
          "… in all | value nodes handed over, of all walked | … of them EPRs |")
    print("|---|---|---|---|---|---|")
    for name in names:
        c = census(name)
        print(f"| `{name}` | {c['state encodes']:,} | {c['entries in state']:,} | "
              f"{c['entries']:,} | {c['handed over']:,} of {c['nodes']:,} | "
              f"{c['EPRs handed over']:,} |".replace(",", " "))


if __name__ == "__main__":
    main(sys.argv[1:] or list(workloads.WORKLOADS))
