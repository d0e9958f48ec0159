import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmbandit import validation
from glmbandit.errors import InvalidConfigError, SingularDesignError
from glmbandit.links import IDENTITY, LOGISTIC
from glmbandit.validation import (
    ValidationSpec,
    estimate_ellipsoid_bound,
    lemma4_event_coverage,
    normality_condition_threshold,
    probe_directions,
    proposition1_growth,
    run_ucb_glm_instrumented,
    theorem1_coverage,
    width_sum_check,
    znorm_bound_check,
)

from oracles import (
    SHIFTED_LOGISTIC,
    reference_run_ucb_glm_instrumented,
    reference_theorem1_coverage,
)


def test_probe_directions_are_unit_vectors():
    dirs = probe_directions(3, 50, master_seed=0)
    assert dirs.shape == (53, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert np.allclose(dirs[:3], np.eye(3))


# Directional confidence coverage --------------------------------------------


def test_theorem1_noiseless_identity_always_covers():
    report = theorem1_coverage(
        IDENTITY, 2, 50, sigma=0.0, delta=0.05,
        directions=probe_directions(2, 10), replications=50, master_seed=1,
    )
    assert report.hits == report.replications == 50
    assert report.empirical_coverage == 1.0
    assert report.condition_satisfied


def test_theorem1_identity_gaussian_passes():
    report = theorem1_coverage(
        IDENTITY, 3, 800, sigma=0.1, delta=0.05,
        directions=probe_directions(3, 100), replications=200, master_seed=2,
    )
    assert report.nominal == pytest.approx(0.85)
    assert report.passes()
    assert report.condition_satisfied
    assert report.hits <= report.replications
    assert report.empirical_coverage == report.hits / report.replications


def test_theorem1_logistic_reports_condition_flag():
    report = theorem1_coverage(
        LOGISTIC, 2, 2000, sigma=None, delta=0.05,
        directions=probe_directions(2, 50), replications=100,
        noise="bernoulli", theta_star=np.array([0.5, 0.0]), master_seed=3,
    )
    # The sufficient design condition is far beyond desk scale for curved
    # links; the run is flagged, not blocked, and coverage still holds.
    assert not report.condition_satisfied
    assert report.passes()


def test_theorem1_basis_only_implied_by_all_directions():
    # delta near 1/2 makes the radius tight enough that some replications miss.
    kwargs = dict(
        sigma=0.35, delta=0.45, replications=150, master_seed=4,
    )
    basis = theorem1_coverage(IDENTITY, 2, 40, directions=probe_directions(2, 0), **kwargs)
    full = theorem1_coverage(IDENTITY, 2, 40, directions=probe_directions(2, 100), **kwargs)
    assert any(not flag for flag in full.hit_flags), "expected some misses at this scale"
    for all_dirs_hit, basis_hit in zip(full.hit_flags, basis.hit_flags):
        if all_dirs_hit:
            assert basis_hit


def test_theorem1_deterministic():
    kwargs = dict(
        sigma=0.1, delta=0.05, directions=probe_directions(3, 20),
        replications=30, master_seed=5,
    )
    a = theorem1_coverage(IDENTITY, 3, 100, **kwargs)
    b = theorem1_coverage(IDENTITY, 3, 100, **kwargs)
    assert a.hit_flags == b.hit_flags
    assert a.to_dict() == b.to_dict()


THEOREM1_SHAPES = {
    # (args, kwargs, how many replications resume Newton past iterate 1)
    # The benchmark's theorem1 shape at its reference and held-out seeds,
    # where every verdict settles at iterate 1.
    **{
        f"bench-{seed}": ((LOGISTIC, 3, 20000, None, 0.05, probe_directions(3, 100, seed), 20),
                          dict(noise="bernoulli", master_seed=seed), "none")
        for seed in (2024, 8191)
    },
    # A bound that most replications miss (8 hits of 100): certified
    # misses and hits next to straddles that resume.
    "tight": ((LOGISTIC, 3, 500, None, 0.995, probe_directions(3, 100, 11), 100),
              dict(noise="bernoulli", master_seed=11), "some"),
    # A small log far from zero: no first iterate is close enough to bound.
    "every-rep-resumes": ((LOGISTIC, 3, 30, None, 0.05, probe_directions(3, 20, 11), 60),
                          dict(noise="bernoulli", theta_norm=4.0, master_seed=11), "all"),
    # One Newton step solves the identity link's score equation.
    "identity": ((IDENTITY, 3, 800, 0.1, 0.05, probe_directions(3, 100, 2), 100),
                 dict(master_seed=2), "none"),
    # A link that is not built in certifies nothing.
    "shifted-logistic": ((SHIFTED_LOGISTIC, 3, 500, None, 0.3, probe_directions(3, 50, 5), 40),
                         dict(noise="bernoulli", master_seed=5), "all"),
}


def _theorem1_with_resumes(args, kwargs, monkeypatch):
    """The check's report at one worker, and how many fits resumed from a warm start."""
    resumes, fit = [], validation.mle_fit

    def counted(*a, **kw):
        resumes.append(kw.get("warm_start") is not None)
        return fit(*a, **kw)

    monkeypatch.setattr(validation, "mle_fit", counted)
    monkeypatch.setenv("GLM_BANDIT_THREADS", "1")  # the patch lives in this process only
    return theorem1_coverage(*args, **kwargs).to_dict(), sum(resumes)


@pytest.mark.parametrize("shape", THEOREM1_SHAPES)
def test_theorem1_matches_reference_that_fits_to_convergence(shape, monkeypatch):
    args, kwargs, expected = THEOREM1_SHAPES[shape]
    report, resumed = _theorem1_with_resumes(args, kwargs, monkeypatch)
    assert report == reference_theorem1_coverage(*args, **kwargs).to_dict()
    replications = args[-1]
    assert {"none": resumed == 0, "some": 0 < resumed < replications,
            "all": resumed == replications}[expected], resumed


# A bound that splits the replications (244 hits of 300). The interval about
# theta_c is sharp enough that dropping its width changes 10 verdicts here
# and halving it 2, where on the "tight" shape neither changes one.
PLANTED_THEOREM1 = ((LOGISTIC, 3, 150, None, 0.9, probe_directions(3, 100, 12), 300),
                    dict(noise="bernoulli", master_seed=12))


@pytest.fixture(scope="module")
def planted_theorem1_reference():
    args, kwargs = PLANTED_THEOREM1
    return reference_theorem1_coverage(*args, **kwargs).to_dict()


# Planted faults in the interval |x'(theta_c - theta*)| -+ |x|_{V^{-1}} w,
# given the true centres and half-widths. The check above must see each.
PLANTED_GAP_INTERVALS = {
    "B-dropped": lambda gaps, spread: (gaps, np.zeros_like(spread)),
    "B-halved": lambda gaps, spread: (gaps, spread / 2.0),
    "centred-on-theta-star": lambda gaps, spread: (0.0 * gaps, spread),  # |x'(theta* - theta*)|
}


@pytest.mark.parametrize("fault", PLANTED_GAP_INTERVALS)
def test_planted_gap_interval_faults_are_caught(fault, planted_theorem1_reference, monkeypatch):
    real, plant = validation._gap_interval, PLANTED_GAP_INTERVALS[fault]
    monkeypatch.setattr(validation, "_gap_interval", lambda *a: plant(*real(*a)))
    report, _ = _theorem1_with_resumes(*PLANTED_THEOREM1, monkeypatch)
    assert report != planted_theorem1_reference


def test_condition_threshold_identity_uses_consistency_level():
    # Zero curvature bound: threshold falls back to 16 sigma^2 (d + log(1/delta)) / kappa^2.
    value = normality_condition_threshold(IDENTITY, 3, 0.1, 0.05, 1.0)
    assert value == pytest.approx(16 * 0.01 * (3 + np.log(20.0)))
    curved = normality_condition_threshold(LOGISTIC, 3, 0.5, 0.05, 0.1)
    assert curved == pytest.approx(512 * 0.0625 * 0.25 / 0.1**4 * (9 + np.log(20.0)))


# Each check asks the shared rules about the keys it takes.
CHECK_DOORS = {
    "theorem1": lambda delta=0.05, replications=3: theorem1_coverage(
        IDENTITY, 2, 30, 0.1, delta, probe_directions(2, 0), replications
    ),
    "znorm": lambda delta=0.05, replications=3: znorm_bound_check(
        IDENTITY, 2, 30, 0.1, delta, replications
    ),
    "prop1": lambda replications=3: proposition1_growth("uniform_ball", 2, [10, 20], replications),
}


@pytest.mark.parametrize(
    "check, key, value",
    [(check, "replications", value) for check in CHECK_DOORS for value in (0, -5)]
    + [(check, "delta", value) for check in ("theorem1", "znorm") for value in (0.0, 1.0, 1.5)],
)
def test_checks_reject_values_the_shared_rules_reject(check, key, value):
    with pytest.raises(InvalidConfigError, match=key):
        CHECK_DOORS[check](**{key: value})


# Design eigenvalue growth -----------------------------------------------------


def test_prop1_uniform_ball_growth():
    report = proposition1_growth("uniform_ball", 3, [100, 1000, 5000], 40, master_seed=6)
    assert report.sigma_min_eig == pytest.approx(0.2)
    assert 0.18 <= report.median_ratio_at_largest <= 0.22
    assert report.passed


def test_prop1_minimum_eigenvalue_monotone_along_path():
    report = proposition1_growth("uniform_ball", 2, [50, 200, 800, 2000], 10, master_seed=7)
    for q in report.quantiles:
        lam = np.array(report.quantiles[q]) * np.array(report.n_grid)
        # quantiles of lambda_min itself must grow with n as well
        assert np.all(np.diff(lam) > 0)


def test_prop1_rejects_bad_grid():
    with pytest.raises(Exception):
        proposition1_growth("uniform_ball", 2, [100, 50], 5)


# Trajectory inequalities ------------------------------------------------------


@pytest.fixture(scope="module")
def logistic_runs():
    return run_ucb_glm_instrumented(
        LOGISTIC, 3, 5, 400, delta=0.05, sigma=None, replications=30,
        noise="bernoulli", tau=60, master_seed=8,
    )


def test_lemma4_noiseless_identity_hits_every_round():
    # At sigma = 0 the radius is 0: the MLE must sit on theta* to within
    # the check's 1e-12, so every round straddles, refits and is judged by
    # its exact norm.
    runs = run_ucb_glm_instrumented(
        IDENTITY, 2, 3, 120, delta=0.05, sigma=0.0, replications=5,
        noise="gaussian", tau=12, master_seed=9,
    )
    report = lemma4_event_coverage(runs, sigma=0.0, kappa=1.0, delta=0.05)
    assert report.empirical_coverage == 1.0


def test_lemma4_coverage_refuses_a_radius_the_runs_did_not_judge(logistic_runs):
    from glmbandit.links import compute_kappa

    kappa = compute_kappa(LOGISTIC, 1.0)
    lemma4_event_coverage(logistic_runs, sigma=0.5, kappa=kappa, delta=0.05)
    for values in [(1e-12, kappa, 0.05), (0.5, 0.1, 0.05), (0.5, kappa, 0.1)]:
        with pytest.raises(InvalidConfigError, match="lemma4"):
            lemma4_event_coverage(logistic_runs, *values)


def test_lemma4_logistic_coverage(logistic_runs):
    from glmbandit.links import compute_kappa

    kappa = compute_kappa(LOGISTIC, 1.0)
    report = lemma4_event_coverage(logistic_runs, sigma=0.5, kappa=kappa, delta=0.05)
    assert report.nominal == pytest.approx(0.95)
    assert report.condition_satisfied  # every run reached lambda_min >= 1
    assert report.passes()


def test_lemma4_bound_monotone_in_t():
    values = [estimate_ellipsoid_bound(3, t, 0.5, 0.1, 0.05) for t in range(10, 5000, 97)]
    assert np.all(np.diff(values) > 0)


def test_width_sum_inequality_on_logged_runs(logistic_runs):
    report = width_sum_check(logistic_runs)
    assert report.runs_checked == len(logistic_runs)
    assert report.violations == 0
    assert report.passed


def test_instrumented_runs_are_deterministic():
    kwargs = dict(delta=0.05, sigma=0.2, replications=3, noise="gaussian",
                  tau=15, master_seed=10)
    a = run_ucb_glm_instrumented(IDENTITY, 2, 4, 100, **kwargs)
    b = run_ucb_glm_instrumented(IDENTITY, 2, 4, 100, **kwargs)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.lo, rb.lo)
        assert np.array_equal(ra.hi, rb.hi)
        assert np.array_equal(ra.chosen_widths, rb.chosen_widths)


INSTRUMENTED_SHAPES = {
    # The benchmark's lemma4 shape at its reference and held-out seeds.
    **{
        f"bench-{seed}": ((LOGISTIC, 3, 5, 2000, 0.05, None, 2),
                          dict(noise="bernoulli", theta_norm=1.0, master_seed=seed))
        for seed in (2024, 7, 8191)
    },
    "identity-noiseless": ((IDENTITY, 2, 3, 120, 0.05, 0.0, 5),
                           dict(noise="gaussian", tau=12, master_seed=9)),
    "explicit-tau-kappa": ((LOGISTIC, 3, 4, 300, 0.1, None, 3),
                           dict(noise="bernoulli", tau=40, kappa=0.15, master_seed=21)),
    # A radius that splits the runs (3 of 8 hit), with certified misses and
    # about 200 straddling rounds.
    "tight-radius": ((LOGISTIC, 3, 4, 300, 0.1, None, 8),
                     dict(noise="bernoulli", tau=40, kappa=0.3, master_seed=21)),
}


def _disagreements(runs, reference) -> list[str]:
    """Where instrumented runs part from the reference loop, which refits
    on every round: the reference's exact norm (its ``lo``) must lie in
    each round's [lo, hi], and the arms' widths, the initial design, the
    nonconvergence count and each round's verdict, hence each run's, must
    be its own."""
    found = []
    for run, ref in zip(runs, reference, strict=True):
        for name in ("ts", "chosen_widths", "lambda_min_init", "n_nonconverged", "within"):
            if not np.array_equal(getattr(run, name), getattr(ref, name)):
                found.append(name)
        if run.ts.shape == ref.ts.shape:
            outside = int((~((run.lo <= ref.lo) & (ref.lo <= run.hi))).sum())
            if outside:
                found.append(f"{outside} exact norms outside [lo, hi]")
    return found


@pytest.mark.parametrize("shape", INSTRUMENTED_SHAPES)
def test_instrumented_runs_match_reference_loop(shape):
    args, kwargs = INSTRUMENTED_SHAPES[shape]
    runs = run_ucb_glm_instrumented(*args, **kwargs)
    reference = reference_run_ucb_glm_instrumented(*args, **kwargs)
    assert len(runs) == len(reference) == args[-1]
    assert _disagreements(runs, reference) == []


@pytest.fixture(scope="module")
def explicit_shape_reference():
    args, kwargs = INSTRUMENTED_SHAPES["explicit-tau-kappa"]
    return reference_run_ucb_glm_instrumented(*args, **kwargs)


# Planted faults in the interval |theta_c - theta*|_V -+ w, given the
# true centre and w. The check above must see each of them.
PLANTED_INTERVALS = {
    "B-dropped": lambda centre, bound: (centre, 0.0),
    "B-halved": lambda centre, bound: (centre, bound / 2.0),
    "centred-on-theta-star": lambda centre, bound: (0.0, bound),  # |theta* - theta*|_V
}


@pytest.mark.parametrize("fault", PLANTED_INTERVALS)
def test_planted_interval_faults_are_caught(fault, explicit_shape_reference, monkeypatch):
    real, plant = validation._norm_interval, PLANTED_INTERVALS[fault]
    monkeypatch.setattr(validation, "_norm_interval", lambda fit, ts: plant(*real(fit, ts)))
    monkeypatch.setenv("GLM_BANDIT_THREADS", "1")  # the patch lives in this process only
    args, kwargs = INSTRUMENTED_SHAPES["explicit-tau-kappa"]
    runs = run_ucb_glm_instrumented(*args, **kwargs)
    assert _disagreements(runs, explicit_shape_reference) != []


def test_replication_blocks_keep_replication_order(monkeypatch):
    # 7 replications in 1, 2 and 3 blocks: every run's arrays differ, so a
    # dropped or misordered block changes the list.
    outcomes = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("GLM_BANDIT_THREADS", workers)
        runs = run_ucb_glm_instrumented(
            LOGISTIC, 2, 3, 80, 0.05, None, 7, noise="bernoulli", tau=15, master_seed=5
        )
        flags = theorem1_coverage(
            IDENTITY, 2, 30, 0.5, 0.3, probe_directions(2, 10), 7, master_seed=5
        ).hit_flags
        outcomes[workers] = ([dataclasses.astuple(run) for run in runs], flags)
    for workers in ("2", "3"):
        for a, b in zip(outcomes[workers][0], outcomes["1"][0], strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
        assert outcomes[workers][1] == outcomes["1"][1]


def test_instrumented_runs_need_rounds_after_tau():
    with pytest.raises(InvalidConfigError, match="tau"):
        run_ucb_glm_instrumented(IDENTITY, 2, 3, 50, 0.05, 0.1, 1, noise="gaussian", tau=50)


@pytest.mark.parametrize("tau", [0, 1])
def test_instrumented_runs_report_a_singular_design_before_any_fit(tau):
    # tau < d leaves V singular at round tau + 1; the run says so rather
    # than fitting an empty or rank-deficient log.
    with pytest.raises(SingularDesignError):
        run_ucb_glm_instrumented(IDENTITY, 2, 3, 20, 0.05, 0.1, 1, noise="gaussian", tau=tau)


# Validation config -----------------------------------------------------------


def test_validation_spec_defaults_and_unknown_keys():
    assert ValidationSpec.from_dict({}) == ValidationSpec()
    with pytest.raises(InvalidConfigError, match="horizon"):
        ValidationSpec.from_dict({"horizon": 5})


@pytest.mark.parametrize(
    "raw",
    [
        {"sigma": math.nan},
        {"sigma": -0.1},
        {"d": "3"},
        {"d": True},
        {"delta": 2.0},
        {"delta": math.inf},
        {"replications": 0},
        {"theta_norm": -1.0},
        {"kappa": 0.0},
        {"tau": -1},
        {"master_seed": -1},
        {"n_grid": [100, 50]},
        {"n_grid": [0, 10]},
        {"n_grid": "100"},
        {"link": "cauchit"},
        {"noise": "poisson"},
        {"noise": "bernoulli"},
        {"noise": "gaussian", "sigma": -0.1},
        {"context_dist": "fixed"},
        {"noise": "gaussian", "sigma": None},
    ],
    ids=lambda raw: ",".join(f"{k}={v!r}" for k, v in raw.items()),
)
def test_validation_spec_rejects_bad_values(raw):
    with pytest.raises(InvalidConfigError):
        ValidationSpec.from_dict(raw)


_VALIDATION_SPECS = st.builds(
    ValidationSpec,
    link=st.sampled_from(["identity", "logistic", "probit"]),
    noise=st.just("gaussian"),
    d=st.integers(1, 10),
    n=st.integers(1, 10**5),
    sigma=st.floats(0.0, 10.0),
    delta=st.floats(1e-6, 0.999),
    replications=st.integers(1, 10**4),
    master_seed=st.integers(0, 2**32 - 1),
    context_dist=st.sampled_from(["uniform_ball", "sphere", "gaussian_normalized"]),
    theta_norm=st.floats(0.0, 5.0),
    tau=st.none() | st.integers(0, 10**4),
    kappa=st.none() | st.floats(1e-6, 1.0),
    n_grid=st.none() | st.lists(st.integers(1, 10**5), min_size=1).map(lambda g: tuple(sorted(g))),
)


@settings(max_examples=60, deadline=None)
@given(_VALIDATION_SPECS)
def test_validation_spec_round_trip(spec):
    raw = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    if spec.n_grid is not None:
        raw["n_grid"] = list(spec.n_grid)  # as JSON would carry it
    assert ValidationSpec.from_dict(raw) == spec


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["sigma", "delta", "theta_norm", "kappa"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_validation_spec_rejects_non_finite(name, value):
    with pytest.raises(InvalidConfigError, match=name):
        ValidationSpec.from_dict({name: value})


# Noise-vector norm bound ------------------------------------------------------


def test_znorm_sigma_zero_trivially_holds():
    report = znorm_bound_check(IDENTITY, 2, 100, sigma=0.0, delta=0.05,
                               replications=20, master_seed=11)
    assert report.empirical_coverage == 1.0


def test_znorm_identity_gaussian_coverage():
    report = znorm_bound_check(IDENTITY, 2, 500, sigma=1.0, delta=0.05,
                               replications=1000, master_seed=12)
    assert report.nominal == pytest.approx(0.95)
    assert report.passes()


def test_znorm_hit_status_invariant_to_joint_scaling():
    a = znorm_bound_check(IDENTITY, 2, 200, sigma=1.0, delta=0.2,
                          replications=100, master_seed=13)
    b = znorm_bound_check(IDENTITY, 2, 200, sigma=2.0, delta=0.2,
                          replications=100, master_seed=13)
    assert a.hit_flags == b.hit_flags


def test_coverage_report_slack_rule(logistic_runs):
    from glmbandit.links import compute_kappa

    report = lemma4_event_coverage(
        logistic_runs, sigma=0.5, kappa=compute_kappa(LOGISTIC, 1.0), delta=0.05
    )
    if report.condition_satisfied:
        assert report.empirical_coverage >= report.nominal - 3 * report.binomial_stderr
