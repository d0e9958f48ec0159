"""Bandit policies: the GLM-UCB pair plus baselines, behind one interface.

Tie-breaking everywhere is lowest arm index, so a run's action sequence is
a deterministic function of (config, seed, context stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design import DesignState, min_eigenvalue, weighted_norms
from .errors import InvalidConfigError, SingularDesignError
from .links import LinkFunction
from .mle import mle_fit

ALPHA_RULES = ("explicit", "theorem2", "theorem3", "theorem4")

POLICY_KINDS = (
    "ucb-glm",
    "supcb-glm",
    "uniform",
    "epsilon-greedy",
    "greedy",
    "oracle",
)


def alpha_from_rule(
    rule: str,
    *,
    T: int,
    d: int,
    K: int,
    delta: float,
    sigma: float,
    kappa: float,
    L_mu: float | None = None,
    alpha: float | None = None,
) -> float:
    """Exploration width for a named tuning rule.

    theorem2: (sigma/kappa) * sqrt((d/2) log(1 + 2T/d) + log(1/delta))
    theorem3: (3 sigma/kappa) * sqrt(2 log(T K / delta))
    theorem4: L_mu * sigma / kappa (top of the admissible range)
    explicit: the caller's value, unchanged.
    """
    if rule not in ALPHA_RULES:
        raise InvalidConfigError(f"unknown alpha rule {rule!r}")
    if rule == "explicit":
        if alpha is None or alpha < 0:
            raise InvalidConfigError("explicit alpha rule requires alpha >= 0")
        return float(alpha)
    if min(T, d, K) < 1 or sigma < 0 or kappa <= 0 or not 0 < delta < 1:
        raise InvalidConfigError("alpha rules need positive T/d/K/kappa, sigma >= 0, delta in (0,1)")
    if rule == "theorem2":
        return (sigma / kappa) * math.sqrt(
            0.5 * d * math.log(1.0 + 2.0 * T / d) + math.log(1.0 / delta)
        )
    if rule == "theorem3":
        return (3.0 * sigma / kappa) * math.sqrt(2.0 * math.log(T * K / delta))
    if L_mu is None or L_mu <= 0:
        raise InvalidConfigError("theorem4 alpha rule requires L_mu > 0")
    return L_mu * sigma / kappa


def tau_for_ucb(d: int, delta: float, sigma0_sq: float, c: float = 16.0) -> int:
    """Default UCB-GLM initialization length: c * (d + log(1/delta)) / sigma0^2.

    The universal constant is unspecified upstream; c = 16 mirrors the
    consistency threshold 16 sigma^2 (d + log(1/delta)) / kappa^2.  Floored
    at d so the initial design can ever be invertible.
    """
    if sigma0_sq <= 0 or not 0 < delta < 1:
        raise InvalidConfigError("tau rule needs sigma0_sq > 0 and delta in (0,1)")
    return max(d, math.ceil(c * (d + math.log(1.0 / delta)) / sigma0_sq))


def tau_for_supcb(d: int, T: int) -> int:
    """Default SupCB-GLM initialization length sqrt(d T)."""
    return max(d, math.ceil(math.sqrt(d * T)))


def tau_for_theorem4(d: int, T: int, sigma: float, kappa: float) -> int:
    """Alternate tuning (8 sigma^2 / kappa^2) d log T used with theorem4 alpha."""
    if sigma <= 0 or kappa <= 0 or T < 2:
        raise InvalidConfigError("theorem4 tau rule needs sigma, kappa > 0 and T >= 2")
    return max(d, math.ceil(8.0 * sigma**2 / kappa**2 * d * math.log(T)))


@dataclass(frozen=True)
class PolicyConfig:
    """Tuning shared by all policies; alpha is always the resolved value."""

    T: int
    d: int
    K: int
    alpha: float
    tau: int
    kappa: float
    sigma: float
    delta: float
    alpha_rule: str = "explicit"
    epsilon: float = 0.0
    tau_rule: str = "none"  # which rule produced tau, echoed in meta.json

    def validated(self) -> PolicyConfig:
        if min(self.T, self.d, self.K) < 1:
            raise InvalidConfigError("T, d, K must be positive")
        if not 0 <= self.tau <= self.T:
            raise InvalidConfigError("tau must lie in [0, T]")
        if self.alpha < 0:
            raise InvalidConfigError("alpha must be nonnegative")
        if self.kappa <= 0 or self.sigma < 0:
            raise InvalidConfigError("kappa must be positive and sigma nonnegative")
        if not 0 < self.delta < 1:
            raise InvalidConfigError("delta must lie in (0, 1)")
        if not 0 <= self.epsilon <= 1:
            raise InvalidConfigError("epsilon must lie in [0, 1]")
        if self.alpha_rule not in ALPHA_RULES:
            raise InvalidConfigError(f"unknown alpha rule {self.alpha_rule!r}")
        return self


def greedy_argmax(scores: np.ndarray, active: list[int] | None = None) -> int:
    """Lowest index attaining the maximum, optionally within an active set."""
    if active is None:
        return int(np.argmax(scores))
    return active[int(np.argmax(scores[active]))]


def ucb_scores(
    contexts: np.ndarray, theta: np.ndarray, v_inv: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean estimates x'theta and widths alpha * |x|_{V^{-1}} per arm."""
    return contexts @ theta, alpha * weighted_norms(contexts, v_inv)


class GlmFit:
    """A design and the MLE on its log, warm-started from the last fit
    (zeros before the first) and refit only after the log grew."""

    def __init__(self, link: LinkFunction, design: DesignState):
        self.link = link
        self.design = design
        self.theta = np.zeros(design.d)
        self.dirty = True

    def update(self, x: np.ndarray, y: float) -> None:
        self.design.update(x, y)
        self.dirty = True

    def refit(self) -> bool:
        """Refit if the log grew; False when that fit did not converge."""
        if not self.dirty:
            return True
        result = mle_fit(
            self.link, self.design.features, self.design.rewards, warm_start=self.theta
        )
        self.theta = result.theta
        self.dirty = False
        return result.converged


class BasePolicy:
    """Common shape: select an arm, then absorb the observed reward.

    ``last_mle_converged`` and ``last_stage`` describe the most recent
    round for trace recording.
    """

    name = "base"

    def __init__(self, config: PolicyConfig, rng: np.random.Generator):
        self.config = config.validated()
        self.rng = rng
        self.last_mle_converged = True
        self.last_stage: int | None = None
        self.n_nonconverged = 0
        self.lambda_min_init: float | None = None

    def select(self, t: int, contexts: np.ndarray) -> int:
        raise NotImplementedError

    def select_rounds(self, tape: np.ndarray) -> np.ndarray | None:
        """The arms for a ``(rounds, K, d)`` tape of contexts at once, the
        same as ``select`` round by round, or None for a policy that learns
        from its rewards and so must select one round at a time."""
        return None

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        raise NotImplementedError

    def _refit(self, fit: GlmFit) -> np.ndarray:
        """``fit``'s estimate after a refit, counting a fit that did not
        converge; a learner's ``select`` resets ``last_mle_converged``."""
        if not fit.refit():
            self.n_nonconverged += 1
            self.last_mle_converged = False
        return fit.theta


class UniformRandomPolicy(BasePolicy):
    name = "uniform"

    def select(self, t: int, contexts: np.ndarray) -> int:
        return int(self.rng.integers(self.config.K))

    def select_rounds(self, tape: np.ndarray) -> np.ndarray:
        # One vector draw gives the same values as one scalar draw per round.
        return self.rng.integers(self.config.K, size=len(tape))

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        pass


class OraclePolicy(BasePolicy):
    """Plays argmax x'theta* every round; its regret is identically zero."""

    name = "oracle"

    def __init__(self, config: PolicyConfig, rng: np.random.Generator, theta_star: np.ndarray):
        super().__init__(config, rng)
        self.theta_star = np.asarray(theta_star, dtype=float)

    def select(self, t: int, contexts: np.ndarray) -> int:
        return greedy_argmax(contexts @ self.theta_star)

    def select_rounds(self, tape: np.ndarray) -> np.ndarray:
        # The argmax is taken before the link, so saturated means cannot tie.
        return np.argmax(tape @ self.theta_star, axis=1)

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        pass


class _GlmFitPolicy(BasePolicy):
    """Shared machinery: one design and its warm-started MLE."""

    def __init__(self, config: PolicyConfig, link: LinkFunction, rng: np.random.Generator):
        super().__init__(config, rng)
        self.fit = GlmFit(link, DesignState(config.d))

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        self.fit.update(x, y)


class UcbGlmPolicy(_GlmFitPolicy):
    """Optimistic GLM policy.

    The first tau rounds pick arms uniformly at random so the design
    becomes invertible; afterwards each round refits the MLE on the full
    log and plays the lowest-index maximizer of
    ``x'theta_hat + alpha |x|_{V^{-1}}``.
    """

    name = "ucb-glm"

    def select(self, t: int, contexts: np.ndarray) -> int:
        cfg = self.config
        self.last_mle_converged = True
        if t <= cfg.tau:
            return int(self.rng.integers(cfg.K))
        design = self.fit.design
        if self.lambda_min_init is None:
            self.lambda_min_init = min_eigenvalue(design.V)
        v_inv = design.try_inverse()
        if v_inv is None:
            raise SingularDesignError(
                f"design still singular at round {t}; initialization phase "
                f"(tau={cfg.tau}) was insufficient"
            )
        means, widths = ucb_scores(contexts, self._refit(self.fit), v_inv, cfg.alpha)
        return greedy_argmax(means + widths)


class EpsilonGreedyPolicy(_GlmFitPolicy):
    """Plays argmax x'theta_hat with probability 1 - epsilon, else uniform.

    Falls back to uniform while the design is singular.  With epsilon = 0
    this is the pure-greedy baseline, identical to UCB-GLM selection with
    alpha = 0 once the design is invertible.
    """

    name = "epsilon-greedy"

    def select(self, t: int, contexts: np.ndarray) -> int:
        cfg = self.config
        self.last_mle_converged = True
        coin = float(self.rng.random())
        v_inv = self.fit.design.try_inverse()
        if coin < cfg.epsilon or v_inv is None:
            return int(self.rng.integers(cfg.K))
        means, _ = ucb_scores(contexts, self._refit(self.fit), v_inv, 0.0)
        return greedy_argmax(means)


def stage_decision(
    means: np.ndarray,
    widths: np.ndarray,
    active: list[int],
    s: int,
    T: int,
) -> tuple[str, object]:
    """One pass of the staged-elimination rules at accuracy level 2^{-s}.

    Returns ("explore", arm) when some active arm's width exceeds 2^{-s}
    (lowest such index), ("exploit", arm) when every active width is below
    1/sqrt(T) (lowest-index argmax of the means), and otherwise
    ("advance", survivors) where survivors keep every arm within 2 * 2^{-s}
    of the best active mean.  The empirical leader always survives, so the
    active set never empties.
    """
    level = 2.0 ** (-s)
    wide = [a for a in active if widths[a] > level]
    if wide:
        return "explore", wide[0]
    if all(widths[a] <= 1.0 / math.sqrt(T) for a in active):
        return "exploit", greedy_argmax(means, active)
    threshold = max(means[a] for a in active) - 2.0 * level
    return "advance", [a for a in active if means[a] >= threshold]


class SupCbGlmPolicy(BasePolicy):
    """Staged-elimination GLM policy with independent per-stage samples.

    Rounds are partitioned into the initialization set F = {1..tau} and
    stage sets Psi_0..Psi_S (S = floor(log2 T)).  Stage s fits only on
    Psi_s united with F, so within a stage the rewards used for fitting are
    conditionally independent of each other.  Exploitation rounds land in
    Psi_0 and never feed any fit.  V(Psi_s u F) = V(F) + sum x x', so a
    stage design is singular only when F's is, and then the run stops with
    SingularDesignError at round tau + 1.
    """

    name = "supcb-glm"

    def __init__(self, config: PolicyConfig, link: LinkFunction, rng: np.random.Generator):
        super().__init__(config, rng)
        if config.T < 2:
            raise InvalidConfigError("supcb-glm needs T >= 2")
        self.link = link
        self.S = int(math.floor(math.log2(config.T)))
        # Slot 0 logs F and is never fit; slot s fits on Psi_s united with F
        # and is None until stage s is first scored, while Psi_s is empty.
        self._fits: list[GlmFit | None] = [GlmFit(link, DesignState(config.d))]
        self._fits += [None] * self.S
        self._pending: int | None = None  # stage set receiving the round

    def _stage_scores(self, s: int, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Means and widths at stage s, fitting on Psi_s united with F.

        A stage scored for the first time starts its fit from a copy of F.
        Raises SingularDesignError when the stage design is singular.
        """
        fit = self._fits[s]
        if fit is None:
            fit = self._fits[s] = GlmFit(self.link, self._fits[0].design.copy())
        v_inv = fit.design.try_inverse()
        if v_inv is None:
            raise SingularDesignError(
                f"stage {s} design singular at {fit.design.n} observations; "
                f"initialization phase (tau={self.config.tau}) was insufficient"
            )
        return ucb_scores(contexts, self._refit(fit), v_inv, self.config.alpha)

    def select(self, t: int, contexts: np.ndarray) -> int:
        cfg = self.config
        self.last_mle_converged = True
        if t <= cfg.tau:
            self._pending = None
            self.last_stage = None
            return int(self.rng.integers(cfg.K))
        if self.lambda_min_init is None:
            self.lambda_min_init = min_eigenvalue(self._fits[0].design.V)

        active = list(range(cfg.K))
        s = 1
        while True:
            means, widths = self._stage_scores(s, contexts)
            kind, payload = stage_decision(means, widths, active, s, cfg.T)
            if kind == "explore":
                arm = payload
                self._pending = s
                self.last_stage = s
                return arm
            if kind == "exploit" or s == self.S:
                # At the last stage the exploit action is forced: 2^{-S} is
                # within a factor 2 of the 1/sqrt(T) cutoff, so the widths
                # are already as tight as stage geometry can make them.
                arm = payload if kind == "exploit" else greedy_argmax(means, active)
                self._pending = 0
                self.last_stage = s
                return arm
            active = payload
            s += 1

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        if self._pending is None:
            self._fits[0].update(x, y)
        elif self._pending >= 1:
            self._fits[self._pending].update(x, y)
        self._pending = None


def make_policy(
    kind: str,
    config: PolicyConfig,
    link: LinkFunction,
    rng: np.random.Generator,
    theta_star: np.ndarray | None = None,
) -> BasePolicy:
    """Instantiate a policy by name."""
    if kind == "ucb-glm":
        return UcbGlmPolicy(config, link, rng)
    if kind == "supcb-glm":
        return SupCbGlmPolicy(config, link, rng)
    if kind == "uniform":
        return UniformRandomPolicy(config, rng)
    if kind == "epsilon-greedy":
        return EpsilonGreedyPolicy(config, link, rng)
    if kind == "greedy":
        return EpsilonGreedyPolicy(replace(config, epsilon=0.0), link, rng)
    if kind == "oracle":
        if theta_star is None:
            raise InvalidConfigError("oracle policy needs the true parameter")
        return OraclePolicy(config, rng, theta_star)
    raise InvalidConfigError(f"unknown policy {kind!r}; expected one of {POLICY_KINDS}")
