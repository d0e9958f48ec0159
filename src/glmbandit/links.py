"""Link functions for the GLM reward model E[Y | X] = mu(X'theta).

Each link carries its first two derivatives plus global bounds on them:
``lipschitz_bound`` dominates ``|mu'|`` and ``curvature_bound`` dominates
``|mu''|`` everywhere.  The bounds feed the confidence-width formulas, so
they must be valid upper bounds but need not be tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfigError, check_config

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _sigmoid_float(z: float) -> float:
    # Overflow-free form: exp is only ever applied to nonpositive arguments.
    # The array path's IEEE operations in Python floats, one np.exp aside
    # (math.exp rounds differently): the three scalar calls of a learner round
    # (GlmFit.update's mu and score_bound's two mu') skip the ufunc dispatch.
    ez = float(np.exp(-abs(z)))
    return (1.0 if z >= 0 else ez) / (1.0 + ez)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return np.float64(_sigmoid_float(float(z)))
    # The same formula with its temporaries reused. The numerator
    # where(z >= 0, 1, ez) is taken as max(ez, z >= 0): ez lies in [0, 1], so
    # both pick the same value (a NaN ez included), and max is a vector loop
    # where ``where`` is not. The 0-d path above stays, so a scalar stays one.
    ez = np.abs(z)
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    out = np.maximum(ez, z >= 0)
    ez += 1.0
    out /= ez
    return out


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


@dataclass(frozen=True)
class LinkFunction:
    """A strictly increasing mean map with derivative information."""

    kind: str
    mu: Callable[[np.ndarray], np.ndarray]
    mu_dot: Callable[[np.ndarray], np.ndarray]
    mu_ddot: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    curvature_bound: float


def _identity_mu(z):
    return np.asarray(z, dtype=float) + 0.0


def _identity_dot(z):
    return np.ones_like(np.asarray(z, dtype=float))


def _identity_ddot(z):
    return np.zeros_like(np.asarray(z, dtype=float))


def _logistic_dot(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


def _logistic_dot_float(z: float) -> float:
    s = _sigmoid_float(z)
    return s * (1.0 - s)


def _logistic_ddot(z):
    s = _sigmoid(z)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _probit_mu(z):
    # SciPy is imported here, on first use, so that importing the package
    # does not load it: only the probit link needs ndtr.
    from scipy.special import ndtr

    return ndtr(np.asarray(z, dtype=float))


def _probit_ddot(z):
    z = np.asarray(z, dtype=float)
    return -z * _normal_pdf(z)


IDENTITY = LinkFunction(
    kind="identity",
    mu=_identity_mu,
    mu_dot=_identity_dot,
    mu_ddot=_identity_ddot,
    lipschitz_bound=1.0,
    curvature_bound=0.0,
)

# 1/4 bounds both derivatives of the sigmoid (|mu''| peaks lower, at
# 1/(6*sqrt(3)), but 1/4 is the conventional shared bound).
LOGISTIC = LinkFunction(
    kind="logistic",
    mu=_sigmoid,
    mu_dot=_logistic_dot,
    mu_ddot=_logistic_ddot,
    lipschitz_bound=0.25,
    curvature_bound=0.25,
)

# |mu'| = phi(z) peaks at phi(0) = 1/sqrt(2*pi); |mu''| = |z|*phi(z) peaks
# at |z| = 1.
PROBIT = LinkFunction(
    kind="probit",
    mu=_probit_mu,
    mu_dot=_normal_pdf,
    mu_ddot=_probit_ddot,
    lipschitz_bound=1.0 / _SQRT_2PI,
    curvature_bound=float(_normal_pdf(1.0)),
)

_LINKS = {link.kind: link for link in (IDENTITY, LOGISTIC, PROBIT)}


def float_forms(link: LinkFunction) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """``link.mu`` and ``link.mu_dot`` as maps of Python floats, with the bits
    of ``float(link.mu(z))``: the built-in logistic link's own scalar path,
    found by kind as ``is_builtin`` finds it, else the link's functions."""
    if link.kind == "logistic" and is_builtin(link):
        return _sigmoid_float, _logistic_dot_float
    return (lambda z: float(link.mu(z))), (lambda z: float(link.mu_dot(z)))


def get_link(kind: str) -> LinkFunction:
    """Look up a built-in link by name ("identity", "logistic", "probit")."""
    try:
        return _LINKS[kind]
    except KeyError:
        raise InvalidConfigError(
            f"unknown link {kind!r}; expected one of {sorted(_LINKS)}"
        ) from None


def is_builtin(link: LinkFunction) -> bool:
    """Whether ``link`` is the built-in link registered under its kind, and
    so one whose mu' is known to be even and non-increasing in |z|."""
    return _LINKS.get(link.kind) == link


def compute_kappa(link: LinkFunction, theta_star_norm: float) -> float:
    """Smallest slope of mu over the reachable linear-predictor range.

    With feature norms at most 1 and parameter estimates within unit
    distance of the truth, the linear predictor stays in
    ``[-(|theta*| + 1), |theta*| + 1]``.  For the built-in links mu' is
    either constant (identity) or symmetric and unimodal about 0, so the
    infimum sits at the interval endpoint.
    """
    check_config(theta_norm=theta_star_norm)
    if link.kind == "identity":
        return 1.0
    return float(link.mu_dot(theta_star_norm + 1.0))
