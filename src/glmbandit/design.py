"""Design-matrix bookkeeping: V = sum of x x', its inverse, weighted norms."""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveDefiniteError, SingularDesignError

# Below this eigenvalue V is treated as singular everywhere in the package.
MIN_EIGENVALUE_FLOOR = 1e-10

_QUADFORM_SLACK = -1e-12


def weighted_norm(x: np.ndarray, a: np.ndarray) -> float:
    """sqrt(x' A x) for a symmetric positive-definite weight matrix A."""
    q = float(x @ a @ x)
    if q < _QUADFORM_SLACK:
        raise NonPositiveDefiniteError(f"quadratic form evaluated to {q:.3e}")
    return math.sqrt(max(q, 0.0))


def weighted_norms(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-wise sqrt(x' A x) for a stack of vectors."""
    q = np.einsum("ij,jk,ik->i", xs, a, xs)
    if (q < _QUADFORM_SLACK).any():
        raise NonPositiveDefiniteError(f"quadratic form evaluated to {q.min():.3e}")
    return np.sqrt(np.clip(q, 0.0, None))


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(a)[0])


class DesignState:
    """Gram matrix of absorbed observations with a maintained inverse.

    The inverse is created lazily the first time it is requested (and V has
    min eigenvalue above the floor); afterwards rank-one updates keep it in
    sync via the Sherman-Morrison identity.  Every ``refactor_every``
    inverse updates it is recomputed from V by direct factorization so
    floating-point drift cannot accumulate over long runs.
    """

    def __init__(self, d: int, refactor_every: int = 1000):
        if d < 1:
            raise ValueError("dimension must be positive")
        if refactor_every < 1:
            raise ValueError("refactor_every must be positive")
        self.d = d
        self.n = 0
        self.refactor_every = refactor_every
        self.V = np.zeros((d, d))
        self._v_inv: np.ndarray | None = None
        self._updates_since_refactor = 0
        self._xs = np.empty((64, d))
        self._ys = np.empty(64)

    @property
    def features(self) -> np.ndarray:
        return self._xs[: self.n]

    @property
    def rewards(self) -> np.ndarray:
        return self._ys[: self.n]

    def _grow(self) -> None:
        if self.n == self._xs.shape[0]:
            cap = 2 * self.n
            xs = np.empty((cap, self.d))
            ys = np.empty(cap)
            xs[: self.n] = self._xs[: self.n]
            ys[: self.n] = self._ys[: self.n]
            self._xs, self._ys = xs, ys

    def update(self, x: np.ndarray, y: float) -> None:
        """Absorb one observation: V += x x', log (x, y), sync the inverse."""
        x = np.asarray(x, dtype=float)
        self._grow()
        self._xs[self.n] = x
        self._ys[self.n] = y
        self.n += 1
        self.V += np.outer(x, x)
        if self._v_inv is not None:
            self._updates_since_refactor += 1
            if self._updates_since_refactor >= self.refactor_every:
                self._v_inv = np.linalg.inv(self.V)
                self._updates_since_refactor = 0
            else:
                vx = self._v_inv @ x
                self._v_inv -= np.outer(vx, vx) / (1.0 + float(x @ vx))

    def inverse(self) -> np.ndarray:
        """Return V^{-1}, materializing it on first use.

        Raises SingularDesignError if V has an eigenvalue below the floor.
        Once created the inverse stays valid: rank-one updates only add
        positive semidefinite terms, so eigenvalues never shrink.
        """
        if self._v_inv is None:
            if min_eigenvalue(self.V) < MIN_EIGENVALUE_FLOOR:
                raise SingularDesignError(
                    f"design matrix is singular after {self.n} observations"
                )
            self._v_inv = np.linalg.inv(self.V)
            self._updates_since_refactor = 0
        return self._v_inv

    def try_inverse(self) -> np.ndarray | None:
        """Like inverse(), but returns None instead of raising."""
        try:
            return self.inverse()
        except SingularDesignError:
            return None

    def copy(self) -> DesignState:
        other = DesignState(self.d, self.refactor_every)
        other.n = self.n
        other.V = self.V.copy()
        other._v_inv = None if self._v_inv is None else self._v_inv.copy()
        other._updates_since_refactor = self._updates_since_refactor
        other._xs = self._xs.copy()
        other._ys = self._ys.copy()
        return other
