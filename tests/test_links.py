import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from glmbandit.errors import InvalidConfigError
from glmbandit.links import IDENTITY, LOGISTIC, PROBIT, compute_kappa, get_link

from oracles import link_eval, reference_sigmoid

ALL_LINKS = [IDENTITY, LOGISTIC, PROBIT]
GRID = np.linspace(-10.0, 10.0, 2001)


def test_link_eval_examples():
    assert link_eval(LOGISTIC, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert link_eval(IDENTITY, 0.37) == pytest.approx(0.37, abs=1e-15)
    # 1/(1 + e^{-log 3}) = 1/(1 + 1/3) = 3/4
    assert link_eval(LOGISTIC, np.log(3.0)) == pytest.approx(0.75, abs=1e-12)


def test_logistic_range():
    # Float64 saturates to exactly 0 or 1 past |z| ~ 36; test the
    # representable range.
    for z in (-36.0, -30.0, 0.0, 30.0, 36.0):
        value = link_eval(LOGISTIC, z)
        assert 0.0 < value < 1.0


@pytest.mark.parametrize("link", ALL_LINKS, ids=lambda l: l.kind)
def test_strictly_increasing_on_grid(link):
    values = link.mu(GRID)
    diffs = np.diff(values)
    assert np.all(diffs >= 0)
    # Strict increase wherever float64 resolution has not saturated the tail.
    interior = (values[:-1] > 1e-15) & (values[1:] < 1.0 - 1e-15)
    if link.kind == "identity":
        interior = np.ones_like(diffs, dtype=bool)
    assert np.all(diffs[interior] > 0)


@pytest.mark.parametrize("link", ALL_LINKS, ids=lambda l: l.kind)
def test_derivative_positive_and_bounded(link):
    dots = link.mu_dot(GRID)
    ddots = link.mu_ddot(GRID)
    assert np.all(dots > 0)
    assert np.all(np.abs(dots) <= link.lipschitz_bound + 1e-12)
    assert np.all(np.abs(ddots) <= link.curvature_bound + 1e-12)


def test_logistic_shared_quarter_bound():
    assert LOGISTIC.lipschitz_bound == 0.25
    assert LOGISTIC.curvature_bound == 0.25


@pytest.mark.parametrize("link", ALL_LINKS, ids=lambda l: l.kind)
def test_first_derivative_matches_finite_differences(link):
    h = 1e-5
    numeric = (link.mu(GRID + h) - link.mu(GRID - h)) / (2.0 * h)
    assert np.abs(link.mu_dot(GRID) - numeric).max() <= 1e-6


@pytest.mark.parametrize("link", ALL_LINKS, ids=lambda l: l.kind)
def test_second_derivative_matches_finite_differences(link):
    h = 1e-5
    numeric = (link.mu_dot(GRID + h) - link.mu_dot(GRID - h)) / (2.0 * h)
    assert np.abs(link.mu_ddot(GRID) - numeric).max() <= 1e-5


def test_compute_kappa_identity():
    for norm in (0.0, 1.0, 7.5):
        assert compute_kappa(IDENTITY, norm) == 1.0


def test_compute_kappa_logistic_values():
    # Sigmoid slope at 1: e/(1+e)^2, and at 2: e^2/(1+e^2)^2.
    assert compute_kappa(LOGISTIC, 0.0) == pytest.approx(0.19661193324148185, abs=1e-12)
    assert compute_kappa(LOGISTIC, 1.0) == pytest.approx(0.10499358540350662, abs=1e-12)


def test_compute_kappa_probit_endpoint():
    assert compute_kappa(PROBIT, 1.5) == pytest.approx(float(PROBIT.mu_dot(2.5)), abs=1e-15)


def test_compute_kappa_is_grid_infimum():
    for link in (LOGISTIC, PROBIT):
        norm = 0.8
        grid = np.linspace(-(norm + 1.0), norm + 1.0, 4001)
        assert compute_kappa(link, norm) == pytest.approx(float(link.mu_dot(grid).min()), rel=1e-6)


def test_compute_kappa_rejects_negative_norm():
    with pytest.raises(InvalidConfigError, match="theta_norm"):
        compute_kappa(LOGISTIC, -0.1)


def test_get_link():
    assert get_link("identity") is IDENTITY
    assert get_link("logistic") is LOGISTIC
    assert get_link("probit") is PROBIT
    with pytest.raises(InvalidConfigError):
        get_link("cauchit")


def same_bits(a, b) -> bool:
    """Same type, shape and bytes: NaN payloads and the sign of zero count."""
    return type(a) is type(b) and np.shape(a) == np.shape(b) and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes()
    )


# Two NaNs with payloads, one of them signalling, beside the plain ones.
PAYLOAD_NANS = np.array([0x7FF0000000000001, 0xFFF8DEAD00000000], dtype=np.uint64).view(float)
SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, *PAYLOAD_NANS, 745.0, -745.0,
                 746.0, -746.0, 36.0, -36.0, 5e-324, -5e-324]


@pytest.mark.parametrize("z", SIGMOID_EDGES)
def test_sigmoid_matches_reference_at_edges(z):
    assert same_bits(LOGISTIC.mu(z), reference_sigmoid(z))
    assert same_bits(LOGISTIC.mu(np.float64(z)), reference_sigmoid(np.float64(z)))
    edges = np.array(SIGMOID_EDGES)
    assert same_bits(LOGISTIC.mu(edges), reference_sigmoid(edges))


@settings(deadline=None, max_examples=200)
@given(
    z=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
        elements=st.floats(allow_nan=True, allow_infinity=True, width=64)
        | st.sampled_from(SIGMOID_EDGES),
    ),
    stride=st.integers(1, 3),
)
def test_sigmoid_matches_reference_on_arrays(z, stride):
    # 0-d, 1-D and 2-D inputs, and strided views of them.
    assert same_bits(LOGISTIC.mu(z), reference_sigmoid(z))
    if z.ndim:
        view = z[..., ::stride]
        assert same_bits(LOGISTIC.mu(view), reference_sigmoid(view))
    assert same_bits(LOGISTIC.mu(z.tolist()), reference_sigmoid(z.tolist()))


PROBIT_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0, 8.3, -8.3, 1e-300]


@pytest.mark.parametrize("z", PROBIT_EDGES)
def test_probit_mu_matches_ndtr_on_scalars(z):
    # PROBIT.mu loads SciPy on first use; its values are ndtr's, bit for bit.
    from scipy.special import ndtr

    # Environment.mean_reward passes a Python float and reads back a scalar.
    assert type(PROBIT.mu(z)) is np.float64
    assert same_bits(PROBIT.mu(z), ndtr(np.asarray(z, dtype=float)))
    assert same_bits(PROBIT.mu(np.array(z)), ndtr(np.array(z)))


def test_probit_mu_matches_ndtr_on_arrays():
    from scipy.special import ndtr

    edges = np.array(PROBIT_EDGES)
    for z in (edges, np.stack([edges, -edges, edges * 0.1])):
        assert same_bits(PROBIT.mu(z), ndtr(z))
        assert same_bits(PROBIT.mu(z.tolist()), ndtr(z))
