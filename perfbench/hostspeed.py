"""Host-speed reference kernel: states measured times at one nominal host speed.

It imports numpy but not eqball, so no change to the library can move it.
"""
from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time

import numpy as np


class HostSpeed:
    """How fast the host runs around each operation, from a fixed kernel that never calls eqball.

    On a shared 2-vCPU VM, the hardware of the baseline, the same work ran
    up to 1.8x slower or faster from one ten-second window to the next, with
    CPU time equal to wall time: the cores themselves slowed down, in every
    metric at once, and the slow spells last from a fraction of a second to
    minutes.  The kernel mixes what the library spends its time on: an
    interpreted float loop, small numpy calls, float formatting and parsing,
    and a small dense least-squares solve.  It runs before the first
    operation and after every operation (outside the operations' timing),
    so each operation is bracketed by two groups of samples; REFERENCE_S
    over the geometric mean of the two groups' medians is the factor that
    states that operation's time at one host speed.  No change to eqball can move the factor.
    """

    REFERENCE_S = 0.0095  # the kernel's median time on that host, rounded
    # After an operation, sample until the samples took this share of its
    # time, at most MAX_SAMPLES times: long operations get a steadier factor
    # at the same relative cost.
    SHARE = 0.1
    MAX_SAMPLES = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.standard_normal((8, 4))
        self._matrix = rng.standard_normal((150, 60))
        self._values = self._matrix.ravel()[:1500]
        self._text = "[" + ",".join(format(v, ".17g") for v in self._values) + "]"
        self.groups: list[list[float]] = []
        self.sample()          # first call of each part, untimed

    def sample(self) -> float:
        """Run the kernel once; return its time in seconds."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += (i * 0.5) % 7.0
        for _ in range(15):
            for i in range(8):
                for j in range(i + 1, 8):
                    float(np.linalg.norm(self._points[i] - self._points[j]))
        json.loads(self._text)
        ",".join(format(v, ".17g") for v in self._values[:750])
        np.linalg.lstsq(self._matrix, self._matrix[:, 0], rcond=None)
        return time.perf_counter() - t0

    def begin(self) -> None:
        """Sample before the first operation of a loop."""
        self.groups = [[self.sample()]]

    def between_ops(self, ops) -> None:
        """Sample after the latest operation of `ops`."""
        group = [self.sample()]
        while len(group) < self.MAX_SAMPLES and sum(group) < self.SHARE * ops[-1].seconds:
            group.append(self.sample())
        self.groups.append(group)

    def factor(self, before: float, after: float) -> float:
        """Multiply a time measured between two kernel times by this to state
        it at the nominal speed."""
        return self.REFERENCE_S / math.sqrt(before * after)

    def scaled(self, ops):
        """Operation i ran between sample groups i and i + 1; state its time
        at the nominal speed."""
        kernel = [statistics.median(group) for group in self.groups]
        return [dataclasses.replace(op, seconds=op.seconds * self.factor(*kernel[i:i + 2]))
                for i, op in enumerate(ops)]

    def factor_now(self) -> float:
        """Factor from the median of three samples taken now."""
        return self.REFERENCE_S / statistics.median(self.sample() for _ in range(3))

    @property
    def samples(self) -> list[float]:
        return [seconds for group in self.groups for seconds in group]

    @property
    def median_factor(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)
