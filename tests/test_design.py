import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmbandit import design
from glmbandit.design import DesignState, min_eigenvalue, weighted_norm, weighted_norms
from glmbandit.errors import NonPositiveDefiniteError, SingularDesignError

from oracles import bisect_min_eigenvalue, consistency_error


def test_weighted_norm_identity_weight():
    gen = np.random.default_rng(0)
    for _ in range(20):
        x = gen.standard_normal(4)
        assert weighted_norm(x, np.eye(4)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_weighted_norm_diagonal_case():
    assert weighted_norm(np.array([1.0, 0.0]), np.diag([4.0, 1.0])) == pytest.approx(2.0)


def test_weighted_norm_scaling_property():
    gen = np.random.default_rng(1)
    for _ in range(50):
        d = int(gen.integers(1, 6))
        b = gen.standard_normal((d, d))
        a = b @ b.T + 0.5 * np.eye(d)
        x = gen.standard_normal(d)
        c = float(gen.uniform(-3.0, 3.0))
        direct = np.sqrt((c * x) @ a @ (c * x))
        assert weighted_norm(c * x, a) == pytest.approx(direct, rel=1e-12)
        assert weighted_norm(c * x, a) == pytest.approx(abs(c) * weighted_norm(x, a), rel=1e-12)


def test_weighted_norm_rejects_negative_form():
    with pytest.raises(NonPositiveDefiniteError):
        weighted_norm(np.array([1.0, 0.0]), -np.eye(2))
    with pytest.raises(NonPositiveDefiniteError):
        weighted_norms(np.eye(2), -np.eye(2))


def test_weighted_norms_matches_scalar():
    gen = np.random.default_rng(2)
    xs = gen.standard_normal((6, 3))
    b = gen.standard_normal((3, 3))
    a = b @ b.T + np.eye(3)
    batch = weighted_norms(xs, a)
    for i in range(6):
        assert batch[i] == pytest.approx(weighted_norm(xs[i], a), rel=1e-12)


def test_min_eigenvalue_trivial():
    assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0)
    assert min_eigenvalue(np.diag([2.0, 5.0])) == pytest.approx(2.0)
    assert min_eigenvalue(np.zeros((3, 3))) == pytest.approx(0.0)


def test_min_eigenvalue_matches_bisection_oracle():
    gen = np.random.default_rng(3)
    for _ in range(10):
        b = gen.standard_normal((5, 5))
        a = 0.5 * (b + b.T)
        assert min_eigenvalue(a) == pytest.approx(bisect_min_eigenvalue(a), abs=1e-7)


def test_rank_one_update_diagonal_case():
    state = DesignState(2)
    state.update(np.array([1.0, 0.0]), 0.0)
    state.update(np.array([0.0, 1.0]), 0.0)
    state.inverse()
    state.update(np.array([1.0, 0.0]), 0.0)
    assert np.allclose(state.V, np.diag([2.0, 1.0]))
    assert np.allclose(state.inverse(), np.diag([0.5, 1.0]))
    assert state.n == 3


def test_inverse_tracks_direct_inversion():
    gen = np.random.default_rng(4)
    state = DesignState(6)
    for _ in range(12):
        x = gen.standard_normal(6)
        state.update(x / max(np.linalg.norm(x), 1.0), gen.random())
    state.inverse()
    for _ in range(2000):
        x = gen.standard_normal(6)
        state.update(x / max(np.linalg.norm(x), 1.0), gen.random())
    direct = np.linalg.inv(state.V)
    assert np.abs(state.inverse() - direct).max() <= 1e-8
    assert consistency_error(state) <= 1e-8


def test_the_pairwise_rounding_allowance_has_one_owner():
    # The greedy certificate and theorem1's intervals both ask rounding_allowance.
    package = Path(design.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "2.0**-49" in p.read_text()] == [
        "design.py"
    ]
    assert design.rounding_allowance(5, 0.5, 3.0) == 2.0**-49 * 5**1.5 * 0.5 * 3.0


def test_the_inverse_rounding_has_one_owner():
    # The certificates' interval and norm_lower_bound both ask inverse_rounding.
    package = Path(design.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if "2.0**-46" in p.read_text()] == [
        "design.py"
    ]
    assert design.inverse_rounding(3, 10.0) == (3 * 10.0) ** 2 * 2.0**-46


def test_width_monotone_under_updates():
    gen = np.random.default_rng(5)
    state = DesignState(4)
    for _ in range(6):
        state.update(gen.standard_normal(4) / 3.0, 0.0)
    state.inverse()
    probe = gen.standard_normal(4)
    for _ in range(200):
        x = gen.standard_normal(4) / 3.0
        before_x = weighted_norm(x, state.inverse())
        before_probe = weighted_norm(probe, state.inverse())
        state.update(x, 0.0)
        assert weighted_norm(x, state.inverse()) <= before_x + 1e-12
        assert weighted_norm(probe, state.inverse()) <= before_probe + 1e-12


def test_zero_vector_update_is_inert():
    state = DesignState(3)
    for e in np.eye(3):
        state.update(e, 1.0)
    v_before = state.V.copy()
    inv_before = state.inverse().copy()
    state.update(np.zeros(3), 5.0)
    assert np.array_equal(state.V, v_before)
    assert np.allclose(state.inverse(), inv_before)
    assert state.n == 4


def test_singular_design_raises_and_names_tau():
    state = DesignState(3)
    state.update(np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(SingularDesignError, match="tau"):
        state.inverse()


def test_clears_floor_checks_until_cleared_and_never_inverts():
    state = DesignState(2)
    assert not state.clears_floor()
    state.update(np.array([1.0, 0.0]), 0.0)
    assert not state.clears_floor()
    state.update(np.array([0.0, 1.0]), 0.0)
    assert state.clears_floor()
    # Once cleared the answer is remembered: V only grows by PSD terms.
    state.V[:] = 0.0
    assert state.clears_floor()
    copy = state.copy()
    assert copy.clears_floor()
    assert not DesignState(2).copy().clears_floor()


def test_injected_drift_is_gone_after_the_next_update():
    gen = np.random.default_rng(6)
    state = DesignState(4)
    for _ in range(10):
        state.update(gen.standard_normal(4) / 2.0, 0.0)
    state.inverse()
    state._v_inv += 1e-5  # inject drift past the consistency tolerance
    assert consistency_error(state) > 1e-8
    for _ in range(100):
        state.update(gen.standard_normal(4) / 2.0, 0.0)
        assert consistency_error(state) <= 1e-10


def test_copy_is_independent():
    gen = np.random.default_rng(7)
    state = DesignState(3)
    for _ in range(5):
        state.update(gen.standard_normal(3), gen.random())
    clone = state.copy()
    clone.update(np.array([1.0, 0.0, 0.0]), 2.0)
    assert clone.n == state.n + 1
    assert not np.array_equal(clone.V, state.V)
    assert np.array_equal(state.features, state._xs[: state.n])


def test_log_reconstructs_gram_matrix():
    gen = np.random.default_rng(8)
    state = DesignState(5)
    for _ in range(300):
        state.update(gen.standard_normal(5) / 4.0, gen.random())
    rebuilt = state.features.T @ state.features
    assert np.abs(rebuilt - state.V).max() <= 1e-9
    assert min_eigenvalue(state.V) >= -1e-10
    assert np.allclose(state.V, state.V.T)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 5),
    ops=st.lists(st.sampled_from(("update", "update", "inverse", "copy")), max_size=120),
    log_spread=st.floats(-1.5, 0.0),
    log_noise=st.floats(-6.0, 0.0),
    rank=st.integers(1, 5),
    collinear_start=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_is_exact_through_updates_and_copies_near_singularity(
    d, ops, log_spread, log_noise, rank, collinear_start, seed
):
    """inverse() is inv(V) of the current V through ill-conditioned designs:
    a start that is a tiny ball or a bundle of nearly parallel vectors, then
    updates close to a subspace of dimension below d, interleaved with
    inverse() calls and copies that the run continues on.

    A copy owns its arrays, and updates to it never reach the original. The
    final inverse is within one inversion's rounding of the truth: its
    residual |V inverse() - I| is at most a small multiple of
    eps * d * cond(V) of the final V alone, and the strategy keeps that
    bound far below the error of a stale or drifted inverse.
    """
    gen = np.random.default_rng(seed)
    basis = np.linalg.qr(gen.standard_normal((d, d)))[0]
    spread, noise = 10.0**log_spread, 10.0**log_noise
    design = DesignState(d)
    for i in range(d):
        if collinear_start:
            x = basis[:, 0] + spread * basis[:, i]
            x /= max(1.0, np.linalg.norm(x))
        else:
            x = basis[:, i] * (spread if i else 1.0)
        design.update(x, 0.0)
    if min_eigenvalue(design.V) < 1e-8:
        return  # the start itself is singular to working precision
    originals = []
    for op in ops:
        if op == "update":
            x = basis[:, : min(rank, d)] @ gen.standard_normal(min(rank, d))
            x += noise * gen.standard_normal(d)
            x /= max(1.0, np.linalg.norm(x))
            design.update(x, 0.0)
            continue
        assert np.array_equal(design.inverse(), np.linalg.inv(design.V))
        if op == "copy":
            original = design
            originals.append((original, original.n, original.V.copy(), original.inverse().copy()))
            design = original.copy()
            assert not np.shares_memory(design.inverse(), original.inverse())
            assert not np.shares_memory(design.V, original.V)
    final = design.inverse()
    assert np.array_equal(final, np.linalg.inv(design.V))
    for state, n, v, v_inv in originals:
        assert state.n == n
        assert np.array_equal(state.V, v)
        assert np.array_equal(state.inverse(), v_inv)
    bound = 4.0 * np.finfo(float).eps * d * np.linalg.cond(design.V)
    assert np.linalg.norm(design.V @ final - np.eye(d), 2) <= bound <= 1e-8


def square_matrix(gen: np.random.Generator, d: int, kind: str, log_cond: float) -> np.ndarray:
    """An SPD matrix with eigenvalues spread over ``10**log_cond``, or a
    nonsymmetric Gaussian one."""
    if kind == "nonsymmetric":
        return gen.standard_normal((d, d))
    basis = np.linalg.qr(gen.standard_normal((d, d)))[0]
    eigs = 10.0 ** -np.linspace(0.0, log_cond, d)
    return (basis * eigs) @ basis.T


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 8),
    kind=st.sampled_from(("spd", "nonsymmetric")),
    log_cond=st.floats(0.0, 1.0) | st.floats(8.0, 15.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_and_inv_match_numpy_bit_for_bit(d, kind, log_cond, seed):
    """design.solve and design.inv return np.linalg's bits, for
    well-conditioned and ill-conditioned SPD matrices and, for solve,
    nonsymmetric ones."""
    gen = np.random.default_rng(seed)
    a = square_matrix(gen, d, kind, log_cond)
    b = gen.standard_normal(d)
    assert np.array_equal(design.solve(a, b), np.linalg.solve(a, b))
    if kind == "spd":
        assert np.array_equal(design.inv(a), np.linalg.inv(a))


@pytest.mark.parametrize(
    "a", [np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((5, 5))],
    ids=["zero", "rank-one-2x2", "ones-5x5"],
)
def test_solve_and_inv_still_raise_on_an_exactly_singular_matrix(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the raw gufunc's own warning
        with pytest.raises(np.linalg.LinAlgError):
            design.solve(a, np.ones(len(a)))
        with pytest.raises(np.linalg.LinAlgError):
            design.inv(a)


def test_numpy_private_lapack_gufuncs_are_where_design_expects_them():
    """design.solve and design.inv call NumPy-private gufuncs. If this fails
    on a new NumPy, look up what np.linalg.solve (with a 1-D b) and
    np.linalg.inv call now, and point the two helpers in glmbandit/design.py
    at that, or back at the public functions."""
    where = "numpy.linalg._umath_linalg"
    gufuncs = getattr(np.linalg, "_umath_linalg", None)
    assert gufuncs is not None, f"{where} is gone: re-point design.solve and design.inv"
    a, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
    for helper, name, core, signature, args in (
        ("solve", "solve1", "(m,m),(m)->(m)", "dd->d", (a, b)),
        ("inv", "inv", "(m,m)->(m,m)", "d->d", (a,)),
    ):
        gufunc = getattr(gufuncs, name, None)
        fix = f"re-point design.{helper} at what np.linalg.{helper} calls now"
        assert isinstance(gufunc, np.ufunc), f"{where}.{name} is gone: {fix}"
        assert (gufunc.signature.replace(" ", ""), signature in gufunc.types) == (core, True), (
            f"{where}.{name} is now {gufunc.signature} with loops {gufunc.types}: {fix}"
        )
        public = getattr(np.linalg, helper)(*args)
        assert np.array_equal(gufunc(*args, signature=signature), public), (
            f"{where}.{name}(signature={signature!r}) no longer gives np.linalg's bits: {fix}"
        )
        # The helpers recognise LAPACK's failure by a NaN first entry.
        with np.errstate(invalid="ignore"):
            failed = gufunc(*(np.zeros_like(x) for x in args), signature=signature)
        assert np.isnan(failed).all(), (
            f"{where}.{name} no longer fills a failed result with NaN: change the "
            f"failure test in design.{helper}"
        )
