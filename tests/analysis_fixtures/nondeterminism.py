"""DET001 fixtures: nondeterminism that breaks reproducible seeded runs."""

import random
import time
from datetime import datetime

import numpy as np


def wall_clock_timestamp():
    # DET001: real wall clock instead of env.now.
    return time.time()


def wall_clock_datetime():
    # DET001: same via datetime.
    return datetime.now()


def wall_clock_perf_counter():
    # DET001: the host timer family has no exemption anywhere.
    return time.perf_counter()


def global_rng_choice(machines):
    # DET001: process-global random state.
    return random.choice(machines)


def numpy_global_draw():
    # DET001: numpy's global RNG.
    return np.random.randint(0, 10)


def unseeded_generator():
    # DET001: entropy-seeded generator.
    return np.random.default_rng()


def seeded_generator(seed):
    # OK: explicit seed.
    return np.random.default_rng(seed)


def schedule_from_set(machines):
    # DET001: unordered set iteration feeding a decision.
    for machine in set(machines):
        return machine


def schedule_sorted(machines):
    # OK: order pinned before iterating.
    for machine in sorted(set(machines)):
        return machine


def suppressed_wall_clock():
    # The inline pragma silences this one occurrence.
    return time.time()  # wsrfcheck: ignore[DET001]


def seeded_constructors():
    # OK: an explicitly seeded constructor reproduces like
    # default_rng(seed).
    stdlib = random.Random(42)
    bits = np.random.PCG64(7)
    return stdlib, bits


def unseeded_constructors():
    # DET001: entropy-seeded, like default_rng() with no seed.
    stdlib = random.Random()
    bits = np.random.PCG64()
    return stdlib, bits


# DET001: a module-level wall-clock read, outside every function.
IMPORTED_AT = time.time()
