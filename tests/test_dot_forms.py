"""Bit-identity guards for the learner round's cheap forms: each
``ndarray.dot`` product equals its ``@`` form, and the logistic link's
float path equals the public ``mu`` and ``mu_dot``, bit for bit.

The products run on slices of a grown ``DesignState`` log, at n around
BLAS's blocking edges and d up to 40. Their bits may depend on the BLAS
thread count, so CI runs these with one thread and with the default.
The two forms agree on C-contiguous operands only: ``dot`` copies a
strided one for BLAS where ``@`` runs its own loop, so an Environment
keeps its fixed contexts C-contiguous.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmbandit import links
from glmbandit.design import DesignState, inv, weighted_norm
from glmbandit.environment import Environment
from glmbandit.links import IDENTITY, LOGISTIC, PROBIT, float_forms

from test_links import SIGMOID_EDGES, same_bits

EDGE_NS = sorted({
    n + step for n in (8, 16, 24, 56, 64, 72, 128, 192, 512, 1024, 2048, 4096)
    for step in (-1, 0, 1)
})


def same(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def design_logs(draw):
    """Rows ``start:`` of a DesignState log grown row by row, so the slice
    starts at any row of a buffer that doubled past it, and a generator."""
    d = draw(st.integers(1, 40))
    n = draw(st.sampled_from([1, 2, 3, 5, 7, *EDGE_NS]) | st.integers(1, 4097))
    start = draw(st.integers(0, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = DesignState(d)
    for x in gen.uniform(-1.0, 1.0, (start + n, d)):
        state.update(x, 0.0)
    return state.features[start:], gen


@settings(max_examples=150, deadline=None)
@given(case=design_logs())
def test_dot_forms_match_matmul_on_design_slices(case):
    xs, gen = case
    n, d = xs.shape
    theta = gen.standard_normal(d)
    residual = gen.standard_normal(n)
    weights = gen.random(n)
    # mle's link pass and Fisher product; the certificates' scores and means.
    assert same(xs.dot(theta), xs @ theta)
    assert same(xs.T.dot(residual), xs.T @ residual)
    weighted = (xs * weights[:, None]).T
    assert same(weighted.dot(xs), weighted @ xs)
    # GlmFit's |theta| and weighted_norm's quadratic form, on rows and on a score.
    assert same(theta.dot(theta), theta @ theta)
    v_inv = inv(xs.T @ xs + np.eye(d))
    for x in (xs[0], xs[-1], xs.T.dot(residual)):
        assert same(x.dot(v_inv), x @ v_inv)
        assert same(x.dot(v_inv).dot(x), x @ v_inv @ x)
        assert weighted_norm(x, v_inv) == np.sqrt(max(float(x @ v_inv @ x), 0.0))


SUBNORMALS = [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308, 1e-310]


@pytest.mark.parametrize("z", [*SIGMOID_EDGES, *SUBNORMALS])
def test_logistic_float_path_matches_the_public_link(z):
    for form, public in zip(float_forms(LOGISTIC), (LOGISTIC.mu, LOGISTIC.mu_dot)):
        value = form(float(z))
        assert type(value) is float
        assert same_bits(np.float64(value), public(z))
        assert same_bits(np.float64(value), public(np.float64(z)))


@settings(max_examples=300, deadline=None)
@given(z=st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(SIGMOID_EDGES))
def test_float_forms_match_every_link(z):
    for link in (LOGISTIC, IDENTITY, PROBIT):
        for form, public in zip(float_forms(link), (link.mu, link.mu_dot)):
            with np.errstate(all="ignore"):  # the normal density overflows as it should
                value, expected = form(z), np.float64(public(z))
            assert type(value) is float
            assert same_bits(np.float64(value), expected)


def test_the_logistic_float_path_is_found_by_kind(monkeypatch):
    # Wrapping the built-in link's functions in place, as a tracer does,
    # keeps its scalar path; a look-alike link of another mu does not get it.
    scalar = (links._sigmoid_float, links._logistic_dot_float)
    monkeypatch.setitem(vars(LOGISTIC), "mu", lambda z: links._sigmoid(z))
    assert float_forms(LOGISTIC) == scalar
    look_alike = dataclasses.replace(LOGISTIC, mu=lambda z: links._sigmoid(z) * 0.5)
    mu, _ = float_forms(look_alike)
    assert mu not in scalar and mu(0.0) == 0.25


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 12), d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_strided_fixed_contexts_reach_the_learner_c_contiguous(k, d, seed):
    gen = np.random.default_rng(seed)
    wide = gen.uniform(-1.0, 1.0, (2 * k, 3 * d)) / (3.0 * d)
    world = Environment(
        d=d, K=k, theta_star=np.zeros(d), link=LOGISTIC, noise="bernoulli", sigma=0.5,
        context_dist="fixed", contexts_rng=gen, rewards_rng=gen, fixed_contexts=wide[::2, ::3],
    )
    contexts, theta = world.sample_contexts(), gen.standard_normal(d)
    assert contexts.flags.c_contiguous and np.array_equal(contexts, wide[::2, ::3])
    assert same(contexts.dot(theta), contexts @ theta)
    assert same(world.sample_contexts(3)[1].dot(theta), contexts @ theta)
