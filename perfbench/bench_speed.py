"""Machine-speed reference for the benchmark's timings.

On a shared host the same operation can take 1.5 to 1.8 times longer for
minutes at a time, because other tenants contend for the cores.  Runs made
a few minutes apart then differ by more than any change to dpms would.  To
take that out, the runner times this fixed computation right after every
timed operation (and before every set-up interpreter) and rescales each
time to the speed at which the reference takes ``NOMINAL_S``:

    scaled = wall * NOMINAL_S / (median of the reference times within ~10 s)

The reference mixes the kinds of work dpms does (keyed blake2b hashing,
small numpy products and clipping, a pure-Python loop), so contention
slows it in the same proportion.  It never calls dpms, so a change to the
program cannot change it, and it runs with the garbage collector paused,
so the size of the program's heap cannot either.
"""

from __future__ import annotations

import gc
import hashlib
import time

import numpy as np

# What the reference takes on an uncontended core of the machine the
# baseline was measured on; scaled times read as milliseconds there.
NOMINAL_S = 0.004

_A = np.random.default_rng(0).uniform(-1.0, 1.0, size=(63, 6))
_GRAM = _A.T @ _A


def _reference_work() -> float:
    key = 0
    for i in range(300):
        digest = hashlib.blake2b(i.to_bytes(8, "little"), digest_size=8).digest()
        key ^= int.from_bytes(digest, "little")
    beta = np.zeros((63, 6))
    for _ in range(300):
        beta = np.clip(beta - 0.01 * (beta @ _GRAM - 1.0), -1.0, 1.0)
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    return key + total + float(beta.sum())


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference computation."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_work()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
