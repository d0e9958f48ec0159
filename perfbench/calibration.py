"""How fast the machine runs right now, timed with a fixed kernel.

The benchmark shares a few cores of a host whose speed, for the same code,
moves by up to 2.5x from one minute to the next. ``Calibration.seconds`` runs
a kernel that does the kinds of work the workloads do and uses NumPy
alone, so no change to glmbandit can change its time. A repetition's wall
time over the kernel's time measured beside it is the program's cost with
the machine's speed divided out.

Import this module only after ``checkout.use_checkout``, which pins BLAS to
one thread before NumPy loads.
"""

from __future__ import annotations

import time

import numpy as np


class Calibration:
    """The calibration kernel and its fixed inputs.

    Five parts of 15-40 ms each: an interpreted loop, Newton steps on a
    400 x 5 log, Newton steps on a 2 000 x 5 log, passes over a 20 000 x 3
    array, and a per-round loop of small-matrix selections and rank-one
    inverse updates. The host's slow spells do not slow each kind of work
    alike; their sum tracked the workloads' repetitions better than any
    one of them.
    """

    def __init__(self):
        gen = np.random.default_rng(12345)
        self.small = gen.standard_normal((400, 5))
        self.medium = gen.standard_normal((2000, 5))
        self.big = gen.standard_normal((20000, 3))
        self.contexts = gen.standard_normal((10, 5))

    @staticmethod
    def _loop() -> int:
        total = 0
        for i in range(200000):
            total += i * i
        return total

    @staticmethod
    def _newton(xs: np.ndarray, rounds: int) -> np.ndarray:
        theta = np.zeros(xs.shape[1])
        target = 0.5
        for _ in range(rounds):
            p = 1.0 / (1.0 + np.exp(-(xs @ theta)))
            fisher = (xs * (p * (1.0 - p))[:, None]).T @ xs + np.eye(xs.shape[1])
            theta = theta + 0.1 * np.linalg.solve(fisher, xs.T @ (target - p))
        return theta

    def _passes(self) -> None:
        for _ in range(40):
            p = 1.0 / (1.0 + np.exp(-(self.big @ np.ones(3))))
            (self.big * p[:, None]).T @ self.big

    def _rounds(self) -> None:
        v_inv = np.eye(5) / 3.0
        theta = np.full(5, 0.1)
        for _ in range(1500):
            widths = np.sqrt(np.einsum("ij,jk,ik->i", self.contexts, v_inv, self.contexts))
            x = self.contexts[int(np.argmax(self.contexts @ theta + widths))]
            vx = v_inv @ x
            v_inv = v_inv - np.outer(vx, vx) / (1.0 + x @ vx)

    def seconds(self) -> float:
        start = time.perf_counter()
        self._loop()
        self._newton(self.small, 600)
        self._newton(self.medium, 150)
        self._passes()
        self._rounds()
        return time.perf_counter() - start
