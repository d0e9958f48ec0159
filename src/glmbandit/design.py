"""Design-matrix bookkeeping: V = sum of x x', its inverse, weighted norms."""

from __future__ import annotations

import math
from copy import deepcopy

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonPositiveDefiniteError, SingularDesignError, check_config

# Below this eigenvalue V is treated as singular everywhere in the package.
MIN_EIGENVALUE_FLOOR = 1e-10

_QUADFORM_SLACK = -1e-12


def weighted_norm(x: np.ndarray, a: np.ndarray) -> float:
    """sqrt(x' A x) for a symmetric positive-definite weight matrix A."""
    q = float(x.dot(a).dot(x))
    if q < _QUADFORM_SLACK:
        raise NonPositiveDefiniteError(f"quadratic form evaluated to {q:.3e}")
    return math.sqrt(max(q, 0.0))


def weighted_norms(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-wise sqrt(x' A x) for a stack of vectors."""
    q = np.einsum("ij,jk,ik->i", xs, a, xs)
    # fmin skips NaNs as an elementwise test would; maximum is what clip calls.
    if np.fmin.reduce(q, initial=math.inf) < _QUADFORM_SLACK:
        raise NonPositiveDefiniteError(f"quadratic form evaluated to {q.min():.3e}")
    return np.sqrt(np.maximum(q, 0.0, out=q), out=q)


def norm_lower_bound(x: np.ndarray, v: np.ndarray, lambda_min: float) -> float:
    """A lower bound on |x|_{V^{-1}} as ``weighted_norms`` computes it from
    ``inv(v)``, from tr V alone: x'V^{-1}x >= |x|^2 / lambda_max >= |x|^2 / tr V.
    With lambda_min at most V's least eigenvalue, k = tr V / lambda_min bounds
    V's condition number; the bound gives up a relative 64 d^2 eps k^2 for the
    rounding of inverse and quadratic form, and is 0 where V may be singular."""
    if not lambda_min >= MIN_EIGENVALUE_FLOOR:
        return 0.0
    trace = float(v.trace())
    slack = inverse_rounding(v.shape[0], trace / lambda_min)
    return math.sqrt(max(float(x.dot(x)) * (1.0 - slack) / trace, 0.0))


def inverse_rounding(d: int, k: float) -> float:
    """64 d^2 eps k^2 (64 eps = 2^-46): bounds, relative to the exact value,
    the rounding of a quadratic form in ``inv(v)`` or of |V u - g|_{V^{-1}} for
    u = inv(v).dot(g), for a d x d V whose condition number is at most k."""
    return (d * k) ** 2 * 2.0**-46


def rounding_allowance(d: int, x_max: float, reach: float) -> float:
    """Covers the rounding of x'v for rows x of entries at most ``x_max`` in
    size and the vectors v of one comparison, of norms summing to at most
    ``reach``: d eps |x| |v| a product, |x| <= sqrt(d) x_max, 8 eps = 2^-49."""
    return 2.0**-49 * d**1.5 * x_max * reach


# solve and inv call the LAPACK gufuncs behind np.linalg.solve and np.linalg.inv
# with the same signatures, so the same bits, without the wrappers that cost
# more than the LAPACK work at a refit's d. A singular matrix then only warns
# and comes back all NaN, so a non-finite first entry re-runs the public
# function, which raises LinAlgError as before; callers check a floor first.
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a square float matrix and a vector."""
    x = _umath_linalg.solve1(a, b, signature="dd->d")
    return x if math.isfinite(x.item(0)) else np.linalg.solve(a, b)


def inv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(a)`` for a square float matrix."""
    x = _umath_linalg.inv(a, signature="d->d")
    return x if math.isfinite(x.item(0)) else np.linalg.inv(a)


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(a)[0])


class DesignState:
    """Gram matrix V = sum of x x' over the absorbed observations, their log
    (x, y), and V's inverse.

    The inverse is ``inv(V)`` of the current V, formed on request
    at most once per design size n and cached against n. Until V has first
    cleared the eigenvalue floor, a request (or ``clears_floor``) checks the
    floor and an inverse request raises SingularDesignError below it. After
    that the check is skipped: updates only add positive semidefinite
    terms, so eigenvalues never shrink.
    """

    def __init__(self, d: int):
        check_config(d=d)
        self.d = d
        self.n = 0
        self.V = np.zeros((d, d))
        self._cleared = False  # V has cleared the eigenvalue floor
        self._v_inv: np.ndarray | None = None
        self._v_inv_n: int | None = None  # the n that _v_inv was formed at
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

    def update(self, x: np.ndarray, y: float) -> np.ndarray:
        """Absorb one observation: V += x x' and log (x, y); return x as floats."""
        x = np.asarray(x, dtype=float)
        self._grow()
        self._xs[self.n] = x
        self._ys[self.n] = y
        self.n += 1
        self.V += x[:, None] * x
        return x

    def clears_floor(self) -> bool:
        """True once lambda_min(V) has reached the eigenvalue floor; checks
        the current V until it first does, and never inverts."""
        if not self._cleared:
            self._cleared = min_eigenvalue(self.V) >= MIN_EIGENVALUE_FLOOR
        return self._cleared

    def inverse(self) -> np.ndarray:
        """Return V^{-1} of the current V, inverting at most once per n.

        Raises SingularDesignError if V has never cleared the eigenvalue
        floor and does not clear it now.
        """
        if self._v_inv_n != self.n:
            if not self.clears_floor():
                raise SingularDesignError(
                    f"design matrix is singular after {self.n} observations; "
                    f"more initialization rounds (tau) would make it invertible"
                )
            self._v_inv = inv(self.V)
            self._v_inv_n = self.n
        return self._v_inv

    def copy(self) -> DesignState:
        """An independent copy: its own arrays, log, inverse and cache key."""
        return deepcopy(self)
