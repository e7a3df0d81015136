import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from qsdsim.errors import InvalidRegime
from qsdsim.streams import RandomStream
from qsdsim.trait_space import (_WINDOWS, TruncatedGaussianKernel, UniformKernel,
                                make_kernel, sample_base, validate_trait)


def _uncached_window(scale, parent):
    lo = ndtr(-parent / scale)
    return lo, float(ndtr((1.0 - parent) / scale) - ndtr(-parent / scale))


def _truncated_normal_cdf(scale, parent, x):
    # the reference law of a Gaussian kernel's child, elementwise on arrays
    lo, mass = _uncached_window(scale, parent)
    return np.clip((ndtr((np.asarray(x) - parent) / scale) - lo) / mass, 0.0, 1.0)


def test_validate_trait_accepts_unit_interval():
    validate_trait(0.0)
    validate_trait(1.0)
    validate_trait(0.5)


@pytest.mark.parametrize("bad", [-0.1, 1.0001, math.nan])
def test_validate_trait_rejects_outside(bad):
    with pytest.raises(ValueError):
        validate_trait(bad)


def test_sample_base_uniform_law():
    rng = RandomStream(5).generator()
    draws = np.array([sample_base(rng) for _ in range(100_000)])
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    stat = kstest(draws, "uniform").statistic
    assert stat < 0.01


def test_uniform_kernel_density():
    k = UniformKernel()
    for parent in (0.0, 0.3, 1.0):
        assert k.density(parent, 0.7) == 1.0
    assert k.sup_density() == 1.0


def test_uniform_kernel_sampling_ignores_parent():
    rng = RandomStream(6).generator()
    draws = np.array([UniformKernel().sample(0.9, rng) for _ in range(50_000)])
    assert kstest(draws, "uniform").statistic < 0.01


def test_gaussian_kernel_requires_positive_scale():
    with pytest.raises(InvalidRegime):
        TruncatedGaussianKernel(scale=0.0)
    with pytest.raises(InvalidRegime):
        TruncatedGaussianKernel(scale=-1.0)


def test_gaussian_kernel_density_integrates_to_one():
    k = TruncatedGaussianKernel(scale=0.2)
    for parent in (0.05, 0.5, 0.95):
        grid = np.linspace(0.0, 1.0, 20_001)
        vals = np.array([k.density(parent, z) for z in grid])
        integral = np.trapezoid(vals, grid)
        assert integral == pytest.approx(1.0, abs=1e-6)


def test_gaussian_kernel_cdf_matches_density():
    k = TruncatedGaussianKernel(scale=0.15)
    parent = 0.4
    for z in (0.1, 0.4, 0.8):
        grid = np.linspace(0.0, z, 10_001)
        vals = np.array([k.density(parent, x) for x in grid])
        assert _truncated_normal_cdf(0.15, parent, z) == pytest.approx(
            np.trapezoid(vals, grid), abs=1e-6)
    assert _truncated_normal_cdf(0.15, parent, 0.0) == 0.0
    assert _truncated_normal_cdf(0.15, parent, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_kernel_sampling_matches_cdf():
    k = TruncatedGaussianKernel(scale=0.2)
    rng = RandomStream(7).generator()
    parent = 0.3
    draws = np.array([k.sample(parent, rng) for _ in range(100_000)])
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    stat = kstest(draws, lambda z: _truncated_normal_cdf(0.2, parent, z)).statistic
    assert stat < 0.01


def test_gaussian_kernel_chi2_bin_law():
    # 50-bin frequency comparison against exact bin masses from the truncated normal
    k = TruncatedGaussianKernel(scale=0.1)
    parent = 0.7
    rng = RandomStream(8).generator()
    n = 100_000
    draws = np.array([k.sample(parent, rng) for _ in range(n)])
    edges = np.linspace(0.0, 1.0, 51)
    counts, _ = np.histogram(draws, bins=edges)
    masses = np.diff(_truncated_normal_cdf(0.1, parent, edges))
    keep = n * masses >= 5.0
    stat = float(np.sum((counts[keep] - n * masses[keep]) ** 2 / (n * masses[keep])))
    from scipy.stats import chi2
    assert stat < chi2.ppf(0.999, int(keep.sum()) - 1)


def test_gaussian_sup_density_is_attained_at_parent():
    k = TruncatedGaussianKernel(scale=0.25)
    for parent in (0.0, 0.2, 0.5, 1.0):
        assert k.density(parent, parent) <= k.sup_density() + 1e-12
    # the bound is tight for a boundary parent
    assert k.density(0.0, 0.0) == pytest.approx(k.sup_density(), rel=1e-12)


def test_make_kernel_factory():
    assert isinstance(make_kernel("uniform", None), UniformKernel)
    k = make_kernel("truncated_gaussian", 0.3)
    assert isinstance(k, TruncatedGaussianKernel) and k.scale == 0.3
    with pytest.raises(InvalidRegime):
        make_kernel("truncated_gaussian", None)
    with pytest.raises(InvalidRegime):
        make_kernel("cauchy", 0.3)


class _Fixed:
    """Hands out given uniforms through ``random()``, as a generator would."""

    def __init__(self, *u):
        self._u = iter(u)

    def random(self):
        return next(self._u)


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_LEVEL = st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]), st.floats(0.0, 1.0,
                                                                        exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(scale=st.floats(1e-3, 2.0), parent=_UNIT, child=_UNIT, u=_LEVEL)
def test_gaussian_memo_gives_the_uncached_formula_bit_for_bit(scale, parent, child, u):
    k = TruncatedGaussianKernel(scale=scale)
    lo, mass = _uncached_window(scale, parent)
    z = (child - parent) / scale
    density = math.exp(-0.5 * z * z) / (_SQRT_2PI * scale * mass)
    sample = min(max(parent + scale * float(ndtri(lo + u * mass)), 0.0), 1.0)
    # the first call fills the memo, the second reads it
    for _ in range(2):
        assert k.density(parent, child).hex() == density.hex()
        assert k.sample(parent, _Fixed(u)).hex() == sample.hex()


def test_gaussian_memo_is_bounded_and_leaves_equality_hash_and_repr_alone():
    used, fresh = TruncatedGaussianKernel(scale=0.1), TruncatedGaussianKernel(scale=0.1)
    for i in range(_WINDOWS + 10):
        used.density(i / (_WINDOWS + 10), 0.5)
    assert 0 < len(used._windows) <= _WINDOWS
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == "TruncatedGaussianKernel(scale=0.1)"


@settings(max_examples=100, deadline=None)
@given(kernel=st.one_of(st.just(UniformKernel()),
                        st.floats(1e-3, 2.0).map(TruncatedGaussianKernel)),
       pairs=st.lists(st.tuples(_UNIT, _LEVEL), min_size=1, max_size=30))
def test_inverse_cdf_on_arrays_is_sample_on_each_uniform(kernel, pairs):
    parents = np.array([p for p, _ in pairs])
    u = np.array([v for _, v in pairs])
    got = kernel.inverse_cdf(parents, u)
    assert [x.hex() for x in got.tolist()] == [kernel.sample(p, _Fixed(v)).hex()
                                               for p, v in pairs]
