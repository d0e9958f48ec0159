"""Bandit policies: the GLM-UCB pair plus baselines, behind one interface.

Tie-breaking everywhere is lowest arm index, so a run's action sequence is
a deterministic function of (config, seed, context stream).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace

import numpy as np

from .design import DesignState, inverse_rounding, min_eigenvalue, norm_lower_bound
from .design import rounding_allowance, weighted_norms
from .errors import InvalidConfigError, check_config
from .links import LinkFunction, float_forms, is_builtin
from .mle import MLE_MAX_ITERATIONS, MLE_TOLERANCE, mle_fit, score_rounding

POLICY_KINDS = (
    "ucb-glm",
    "supcb-glm",
    "uniform",
    "epsilon-greedy",
    "greedy",
    "oracle",
)

# Policies that do not learn: they select a whole chunk of rounds at once
# and cost next to nothing beside a learner's refits.
NON_LEARNING_KINDS = ("uniform", "oracle")


def check_tau(tau: int | None, T: int) -> None:
    """tau's rule across keys, for a given or derived tau: it fits in T."""
    if tau is not None and tau > T:
        raise InvalidConfigError(
            f"tau={tau} exceeds the horizon T={T}; set a smaller tau or increase T"
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
    check_config(alpha_rule=rule, alpha=alpha)
    if rule == "explicit":
        if alpha is None:
            raise InvalidConfigError("alpha: the explicit alpha rule requires alpha")
        return float(alpha)
    check_config(T=T, d=d, K=K, delta=delta, sigma=sigma, kappa=kappa)
    if rule == "theorem2":
        return (sigma / kappa) * math.sqrt(
            0.5 * d * math.log(1.0 + 2.0 * T / d) + math.log(1.0 / delta)
        )
    if rule == "theorem3":
        return (3.0 * sigma / kappa) * math.sqrt(2.0 * math.log(T * K / delta))
    if L_mu is None or L_mu <= 0:
        raise InvalidConfigError("theorem4 alpha rule requires L_mu > 0")
    return L_mu * sigma / kappa


def tau_for_ucb(d: int, delta: float, sigma0_sq: float) -> int:
    """Default UCB-GLM initialization length: c * (d + log(1/delta)) / sigma0^2.

    The universal constant is unspecified upstream; c = 16 mirrors the
    consistency threshold 16 sigma^2 (d + log(1/delta)) / kappa^2.  Floored
    at d so the initial design can ever be invertible.
    """
    check_config(d=d, delta=delta)
    if sigma0_sq <= 0:
        raise InvalidConfigError(f"tau rule needs sigma0_sq > 0, got {sigma0_sq:.3g}")
    tau = 16.0 * (d + math.log(1.0 / delta)) / sigma0_sq
    if not math.isfinite(tau):
        raise InvalidConfigError(f"tau rule overflows at sigma0_sq={sigma0_sq:.3g}")
    return max(d, math.ceil(tau))


def tau_for_supcb(d: int, T: int) -> int:
    """Default SupCB-GLM initialization length sqrt(d T)."""
    check_config(d=d, T=T)
    return max(d, math.ceil(math.sqrt(d * T)))


def check_supcb_horizon(T: int) -> None:
    """SupCB-GLM's rule on T: its floor(log2 T) stages need T >= 2."""
    if T < 2:
        raise InvalidConfigError("supcb-glm needs T >= 2")


def tau_for_theorem4(d: int, T: int, sigma: float, kappa: float) -> int:
    """Alternate tuning (8 sigma^2 / kappa^2) d log T used with theorem4 alpha."""
    check_config(d=d, T=T, sigma=sigma, kappa=kappa)
    if T < 2 or sigma == 0:  # log T > 0; at sigma = 0 the rule is just its floor d
        raise InvalidConfigError("theorem4 tau rule needs T >= 2 and sigma > 0")
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
        # kappa is only echoed here; the rules that divide by it check it.
        check_config(**{f.name: getattr(self, f.name) for f in fields(self) if f.name != "kappa"})
        check_tau(self.tau, self.T)
        return self


def greedy_argmax(scores: np.ndarray, active: list[int] | None = None) -> int:
    """Lowest index attaining the maximum, optionally within an active set."""
    if active is None:
        return int(np.argmax(scores))
    return active[int(np.argmax(scores[active]))]


def score_bound(
    link: LinkFunction, score: np.ndarray, v_inv: np.ndarray, r_max: float, theta_norm: float,
    log: tuple[int, float, float],
) -> tuple[float, np.ndarray, float]:
    """(R, m0 V^{-1} g, w) for the MLE theta_hat of a log whose score at theta
    is ``score`` (g), and for any iterate a converged fit could return:
    |theta_hat - theta| <= R and, about the centre theta_c = theta + m0 V^{-1} g
    as computed, |theta_hat - theta_c|_V <= w; (inf, 0, inf) when g bounds
    nothing. ``v_inv`` is V^{-1}, ``r_max`` the largest row norm, ``theta_norm``
    |theta| and ``log`` the log's (rows, tr V, |y|); theta need not be a fit.

    mu' is even and non-increasing in |z| for the built-in links, so on the
    ball of radius R about theta the Fisher matrix G = sum mu'(x'theta) x x'
    lies in the sandwich c_min V <= G <= c_max V, c_min = mu'(r_max (|theta| +
    R)) and c_max = ``link.lipschitz_bound``. A point of score g~ there is
    theta + G~^{-1} (g - g~), G~ the mean of G on the segment, and the
    eigenvalues of V^{1/2} G~^{-1} V^{1/2} lie in m0 -+ r = [1/c_max, 1/c_min].
    So w = r |g|_{V^{-1}} + s / c_min and B = w + m0 |g|_{V^{-1}}, if B keeps the
    point in the ball: B sqrt(tr V^{-1}) <= R, as lambda_min(V) >= 1 / tr V^{-1}.
    The slack s covers a converged fit's own score (sup-norm MLE_TOLERANCE),
    the rounding of both scores (``mle.score_rounding``) and of V^{-1} g and
    |g|_{V^{-1}} (``design.inverse_rounding``). R is twice B at theta's slope.
    """
    trace = log[1]
    inverse_trace = math.fsum(v_inv.diagonal().tolist())
    root_trace = math.sqrt(inverse_trace)
    _, mu_dot = float_forms(link)
    shift = v_inv.dot(score)
    score_norm = math.sqrt(max(float(score.dot(shift)), 0.0))  # |g|_{V^{-1}}
    residual = math.sqrt(len(score)) * MLE_TOLERANCE * root_trace
    slack = residual + 2.0 * root_trace * score_rounding(link, *log, theta_norm)
    slope = mu_dot(r_max * theta_norm)
    radius = 2.0 * (score_norm + slack) / slope * root_trace if slope > 0 else math.inf
    reach = r_max * (theta_norm + radius)  # the largest |x'theta| on the ball
    slope = mu_dot(reach) if reach < 1e150 else 0.0  # a wider bound certifies nothing
    if not slope > 0:
        return math.inf, np.zeros_like(shift), math.inf
    slack = residual + 2.0 * root_trace * score_rounding(link, *log, theta_norm + radius)
    slack += inverse_rounding(len(score), trace * inverse_trace) * score_norm
    bound = (score_norm + slack) / slope
    if not bound * root_trace <= radius:
        return math.inf, np.zeros_like(shift), math.inf
    r = 0.5 * (1.0 / slope - 1.0 / link.lipschitz_bound)
    return radius, (1.0 / slope - r) * shift, r * score_norm + slack / slope


class GlmFit:
    """A design and the MLE on its log, warm-started from the last fit
    (zeros before the first) and refit only after the log grew.

    A fit cut short after a few Newton iterations stands as the fit with
    ``dirty`` still True; the next ``refit`` on the same log resumes it for
    the rest of the MLE_MAX_ITERATIONS cap, the one call's bits. A fit that
    converged or was cut short keeps what bounds the current log's MLE
    without refitting: ``score``, the score at its iterate on the current log
    (the fit's final score plus x (y - mu(x'theta)) for each row added
    since), ``r_max``, the largest row norm in the log, and the sums of |x|^2
    and y^2 over it. The bound rests on a property of mu' that only the
    built-in links are known to have, so a fit of any other link keeps no
    score, and bounds and certifies nothing.
    """

    def __init__(self, link: LinkFunction, design: DesignState):
        self.link = link
        self._mu, _ = float_forms(link)
        self.design = design
        self.theta = np.zeros(design.d)
        self._theta_norm = 0.0
        self.dirty = True
        self.score: np.ndarray | None = None  # None unless theta's fit converged or was cut
        self._certifies = is_builtin(link)
        self._interval: tuple | None = None  # interval()'s value until the state moves
        self._spent = 0  # Newton iterations the current log's fit has run
        squares = np.einsum("ij,ij->i", design.features, design.features)
        self.r_max = float(np.sqrt(squares).max(initial=0.0))
        self._trace = float(squares.sum())  # tr V
        self._y_sq = float(design.rewards.dot(design.rewards))

    def update(self, x: np.ndarray, y: float) -> None:
        x = self.design.update(x, y)
        square = float(x.dot(x))
        self.r_max = max(self.r_max, math.sqrt(square))
        self._trace += square
        self._y_sq += y * y
        if self.score is not None:
            self.score += x * (y - self._mu(float(x.dot(self.theta))))
        self.dirty = True
        self._interval = None
        self._spent = 0

    def refit(self, iterations: int = MLE_MAX_ITERATIONS) -> bool:
        """Fit the log if it grew, resuming a fit cut short on it, until it
        has run ``iterations`` Newton iterations in all; False when the fit
        has not converged, whether cut short or out of the cap."""
        if not self.dirty:
            return True
        result = mle_fit(
            self.link, self.design.features, self.design.rewards, warm_start=self.theta,
            max_iterations=iterations - self._spent,
        )
        self._spent += result.iterations
        self.theta = result.theta
        self._theta_norm = math.sqrt(float(self.theta.dot(self.theta)))
        self.dirty = not result.converged and self._spent < MLE_MAX_ITERATIONS
        kept = self._certifies and (result.converged or self.dirty)
        self.score = result.score.copy() if kept else None
        self._interval = None
        return result.converged

    def interval(self) -> tuple[np.ndarray, float, float]:
        """(theta_c, w, R) of ``score_bound`` at the last fit, or (theta, inf,
        inf) when it kept no score or bounds nothing; once per fit state."""
        if self._interval is None:
            self._interval = (self.theta, math.inf, math.inf)
            if self.score is not None:
                log = (self.design.n, self._trace, math.sqrt(self._y_sq))
                radius, shift, width = score_bound(
                    self.link, self.score, self.design.inverse(), self.r_max, self._theta_norm, log
                )
                if width < math.inf:
                    self._interval = (self.theta + shift, width, radius)
        return self._interval

    def certified_arm(self, contexts: np.ndarray, alpha: float, norms: np.ndarray) -> int | None:
        """The arm maximizing x'theta_hat + alpha |x|_{V^{-1}} at the current
        log's MLE theta_hat, read off the last fit without refitting, or None
        when ``interval`` cannot certify it. ``norms`` are the |x|_{V^{-1}}.

        Each arm's x'theta_hat lies within |x|_{V^{-1}} w of x'theta_c, so the
        top arm at theta_c is certified when even its lowest score beats every
        other arm's highest. Each spread also covers the rounding of x'theta_c
        and x'theta_hat, where |theta_c| + |theta_hat| <= 2 (|theta| + R) and
        every entry of x is at most |x| <= sqrt(tr V) |x|_{V^{-1}}, and of
        adding alpha |x|_{V^{-1}}.
        """
        centre, width, radius = self.interval()
        if width == math.inf:
            return None
        reach = 2.0 * (self._theta_norm + radius)
        width += rounding_allowance(self.design.d, math.sqrt(self._trace), reach)
        width += rounding_allowance(1, 1.0, alpha)  # adding alpha |x|_{V^{-1}}
        scores = contexts.dot(centre) + alpha * norms
        top = int(scores.argmax())
        spread = norms * width
        rivals = (scores + spread).tolist()
        rivals[top] = -math.inf
        lowest = scores.item(top) - spread.item(top)
        return top if all(lowest > rival for rival in rivals) else None

    def certified_greedy_arm(self, contexts: np.ndarray) -> int | None:
        """``certified_arm`` with alpha = 0, from pairwise margins:
        (x_top - x_a)'theta_hat >= (x_top - x_a)'theta_c - |x_top - x_a|_{V^{-1}} w,
        where |x_top - x_a|_{V^{-1}} <= |x_top|_{V^{-1}} + |x_a|_{V^{-1}}. That
        norm is near 0 for near-duplicate arms, so each margin must also clear
        ``rounding_allowance`` for x'theta at theta_c and at theta_hat, with
        |theta_c| and |theta_hat| at most |theta| + R (m0 |V^{-1} g| <= R).
        """
        centre, width, radius = self.interval()
        if width == math.inf:
            return None
        scores = contexts.dot(centre)
        top = int(scores.argmax())
        norms = weighted_norms(contexts - contexts[top], self.design.inverse())
        reach = 2.0 * (self._theta_norm + radius)
        allowance = rounding_allowance(self.design.d, float(np.abs(contexts).max()), reach)
        margins = (scores.item(top) - scores - norms * width).tolist()
        margins[top] = math.inf
        return top if all(margin > allowance for margin in margins) else None


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

    def estimate(self) -> np.ndarray:
        """The MLE on the current log, refit if the log grew since the last
        fit; a refit that does not converge counts as in ``select``."""
        return self._refit(self.fit)

    def _best_arm(self, contexts: np.ndarray, alpha: float, v_inv: np.ndarray | None) -> int:
        """The lowest-index maximizer of x'theta_hat + alpha |x|_{V^{-1}} at
        the current log's MLE theta_hat: certified from the last fit when it
        can be, else from one Newton step past it (``GlmFit.refit(1)``), and
        only else after that fit resumes to convergence, the refit it would
        have made in one call. ``v_inv`` is V^{-1}, or None with alpha = 0 to
        form it only for the pairwise certificate."""
        fit = self.fit
        norms = None if v_inv is None else weighted_norms(contexts, v_inv)
        if fit.dirty and fit.score is not None:
            certify = ((lambda: fit.certified_greedy_arm(contexts)) if norms is None
                       else (lambda: fit.certified_arm(contexts, alpha, norms)))
            arm = certify()
            if arm is None and not fit.refit(1):  # a step cut on purpose counts nowhere
                arm = certify()
            if arm is not None:
                return arm
        means = contexts.dot(self.estimate())
        return greedy_argmax(means + alpha * norms if alpha else means)


class UcbGlmPolicy(_GlmFitPolicy):
    """Optimistic GLM policy.

    The first tau rounds pick arms uniformly at random so the design
    becomes invertible; afterwards each round plays the lowest-index
    maximizer of ``x'theta_hat + alpha |x|_{V^{-1}}`` at the MLE on the full
    log. The round fits that MLE only when the last fit cannot certify the
    maximizer (``GlmFit.certified_arm``), and then to convergence only when
    one Newton step cannot certify it either.
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
        v_inv = design.inverse()  # raises SingularDesignError before any refit
        return self._best_arm(contexts, cfg.alpha, v_inv)


class EpsilonGreedyPolicy(_GlmFitPolicy):
    """Plays argmax x'theta_hat with probability 1 - epsilon, else uniform.

    Falls back to uniform while the design is singular.  With epsilon = 0
    this is the pure-greedy baseline, identical to UCB-GLM selection with
    alpha = 0 once the design is invertible. It fits the MLE only when the
    last fit cannot certify the argmax from pairwise margins, which read
    V^{-1} (``GlmFit.certified_greedy_arm``), and then to convergence only
    when one Newton step cannot certify it either.
    """

    name = "epsilon-greedy"

    def select(self, t: int, contexts: np.ndarray) -> int:
        cfg = self.config
        self.last_mle_converged = True
        coin = float(self.rng.random())
        if coin < cfg.epsilon or not self.fit.design.clears_floor():
            return int(self.rng.integers(cfg.K))
        return self._best_arm(contexts, 0.0, None)


def stage_decision(
    means: Callable[[], np.ndarray],
    widths: np.ndarray | Callable[[], np.ndarray],
    active: list[int],
    s: int,
    T: int,
    floor: float = 0.0,
) -> tuple[str, object]:
    """One pass of the staged-elimination rules at accuracy level 2^{-s}.

    Returns ("explore", arm) when some active arm's width exceeds 2^{-s}
    (lowest such index), ("exploit", arm) when every active width is below
    1/sqrt(T) (lowest-index argmax of the means), and otherwise
    ("advance", survivors) where survivors keep every arm within 2 * 2^{-s}
    of the best active mean.  The empirical leader always survives, so the
    active set never empties.

    The explore rule reads only the widths, so ``means``, a zero-argument
    callable giving the stage's mean estimates, is called only past it.
    ``floor`` bounds ``active[0]``'s width from below; above 2^{-s} it settles
    the explore rule, and ``widths``, which may be a callable, goes unread.
    """
    level = 2.0 ** (-s)
    if floor > level:
        return "explore", active[0]
    widths = widths() if callable(widths) else widths
    wide = [a for a in active if widths[a] > level]
    if wide:
        return "explore", wide[0]
    means = means()
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
        check_supcb_horizon(config.T)
        self.link = link
        self.S = int(math.floor(math.log2(config.T)))
        # Slot 0 logs F and is never fit; slot s fits on Psi_s united with F
        # and is None until stage s is first scored, while Psi_s is empty.
        self._fits: list[GlmFit | None] = [GlmFit(link, DesignState(config.d))]
        self._fits += [None] * self.S
        self._pending: int | None = None  # stage set receiving the round
        # Off once tr V is too large for its longest row's floor to pass 2^{-s}.
        self._floor_live = [True] * (self.S + 1)

    def _stage_scores(
        self, s: int, contexts: np.ndarray, first: int
    ) -> tuple[Callable[[], np.ndarray], Callable[[], np.ndarray], float]:
        """Means and widths at stage s as callables, the means fitting on
        Psi_s united with F when called, and a floor under arm ``first``'s
        width from tr V (``norm_lower_bound``), or 0.

        A round that explores at stage s thus never fits it, nor inverts its
        design when the floor settles the explore test.  A stage scored first
        starts its fit from a copy of F.  The widths raise SingularDesignError
        when the stage design is singular."""
        fit = self._fits[s]
        if fit is None:
            fit = self._fits[s] = GlmFit(self.link, self._fits[0].design.copy())
        alpha, v = self.config.alpha, fit.design.V
        floor = 0.0
        if self._floor_live[s]:
            floor = alpha * norm_lower_bound(contexts[first], v, self.lambda_min_init)
            if not floor > 2.0 ** (-s):
                self._floor_live[s] = alpha * fit.r_max > 2.0 ** (-s) * math.sqrt(v.trace())
        return ((lambda: contexts.dot(self._refit(fit))),
                (lambda: alpha * weighted_norms(contexts, fit.design.inverse())), floor)

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
            means, widths, floor = self._stage_scores(s, contexts, active[0])
            kind, payload = stage_decision(means, widths, active, s, cfg.T, floor)
            if kind == "explore":
                arm = payload
                self._pending = s
                self.last_stage = s
                return arm
            if kind == "exploit" or s == self.S:
                # The loop ends by the first s with 2^{-s} <= 1/sqrt(T): there
                # every width either exceeds 2^{-s}, and its arm is explored,
                # or is at most 1/sqrt(T), and the round exploits.  So s == S
                # forces the exploit only with non-finite widths or a
                # lowered cap.
                arm = payload if kind == "exploit" else greedy_argmax(means(), active)
                self._pending = 0
                self.last_stage = s
                return arm
            active = payload
            s += 1

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        if self._pending is None:
            self._fits[0].update(x, y)
        elif self._pending >= 1:
            self._fits[self._pending].score = None  # never certified: not kept current
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
