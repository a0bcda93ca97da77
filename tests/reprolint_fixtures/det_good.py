"""DET fixture: deterministic-path idioms that must all pass."""

import random
import time

import numpy as np


def lease_deadline(timeout_s: float) -> float:
    return time.monotonic() + timeout_s  # monotonic clocks are legal


def measured(fn) -> float:
    start = time.perf_counter()  # measured-timing mode is legal
    fn()
    return time.perf_counter() - start


def make_generators(seed: int):
    return random.Random(seed), np.random.default_rng(seed)


def task_noise(rng: np.random.Generator) -> float:
    return float(rng.normal())  # instance methods, not the global state


def allowlisted_probe() -> float:
    # A wall-clock read that only the fixture's own ``det_allow`` entry
    # sanctions; the project config allows none.
    return time.time()
