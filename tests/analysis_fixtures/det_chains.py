"""DET001 fixtures: nondeterminism reaching sim-visible code via helpers.

DET001 flags the source site in place, then follows the call graph and
flags the service method or detached process whose behavior the
source actually perturbs, with a witness chain.
"""

import random
import time

import numpy as np

from repro.wsrf.attributes import ServiceSkeleton, WebMethod


def _wall_clock_tag():
    # DET001 fires here (depth 0)...
    return f"run-{time.time()}"


class TimestampingService(ServiceSkeleton):
    @WebMethod
    def Stamp(self) -> str:
        # ...and again *here* (depth 1): the service method inherits the
        # nondeterminism through the helper call.
        return _wall_clock_tag()


def _jitter_delay():
    # DET001: process-global RNG.
    return random.random() * 0.5


def start_jitter_process(env):
    def jitter(env):
        while True:
            # DET001 (depth 1): the detached process's timing depends on the
            # helper's global RNG draw.
            yield env.timeout(_jitter_delay())

    return env.process(jitter(env))


def _seeded_delay(seed):
    # OK: explicit seed, reproducible.
    rng = np.random.default_rng(seed)
    return rng.random()


class SeededService(ServiceSkeleton):
    @WebMethod
    def Sample(self, seed: int) -> float:
        # OK: the helper chain is deterministic.
        return _seeded_delay(seed)


def _accepted_wall_clock():
    # Accepting the source here also keeps it from tainting callers
    # (no DET001 at AcceptingService.Accepted).
    return time.time()  # wsrfcheck: ignore[DET001]


class AcceptingService(ServiceSkeleton):
    @WebMethod
    def Accepted(self) -> str:
        # OK: the only source on the chain was explicitly accepted.
        return f"at-{_accepted_wall_clock()}"
