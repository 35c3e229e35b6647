"""Access-pattern generator tests."""

import numpy as np
import pytest

from repro.workloads.access import zipfian_keys


def test_zipfian_is_skewed():
    keys = zipfian_keys(50_000, keyspace=1000, theta=0.99, seed=1)
    counts = np.bincount(keys, minlength=1000)
    # the hottest key draws far more than its uniform share
    assert counts.max() > 20 * (50_000 / 1000)
    # and hotter ranks dominate colder ones on average
    assert counts[:10].sum() > counts[-100:].sum()


def test_zipfian_theta_zero_is_uniform():
    keys = zipfian_keys(50_000, keyspace=100, theta=0.0, seed=2)
    counts = np.bincount(keys, minlength=100)
    assert counts.max() < 2.0 * counts.mean()


def test_zipfian_deterministic_and_in_range():
    a = zipfian_keys(1000, 500, seed=3)
    b = zipfian_keys(1000, 500, seed=3)
    assert (a == b).all()
    assert a.min() >= 0 and a.max() < 500


#: upper critical value of the chi-squared distribution, df=49, at
#: p = 0.001 — the sampler is seeded, so the statistic is a fixed
#: number and this is a regression bound, not a flaky hypothesis test
_CHI2_DF49_P001 = 85.35


@pytest.mark.parametrize("theta", [0.0, 0.9, 1.2])
def test_zipfian_fits_exact_zeta_weights_chi_squared(theta):
    """Goodness of fit against the law the docstring promises.

    The sampler claims inverse-CDF over exact zeta weights, so the
    observed histogram must fit ``w_i = 1/i^theta`` — not merely "be
    skewed".  Manual chi-squared (no scipy): 50 bins and 20k draws
    keep every expected count well above the >=5 validity floor even
    at theta=1.2 (coldest bin expects ~55).
    """
    bins, draws = 50, 20_000
    keys = zipfian_keys(draws, keyspace=bins, theta=theta, seed=11)
    counts = np.bincount(keys, minlength=bins)
    weights = 1.0 / np.power(np.arange(1, bins + 1), theta)
    expected = draws * weights / weights.sum()
    assert expected.min() >= 5.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < _CHI2_DF49_P001, (
        f"theta={theta}: chi2={chi2:.1f} over the df=49 p=0.001 bound"
    )


def test_zipfian_skew_orders_by_theta():
    # the hot key's share must grow with the skew parameter
    shares = []
    for theta in (0.0, 0.9, 1.2):
        keys = zipfian_keys(20_000, keyspace=50, theta=theta, seed=11)
        shares.append(np.bincount(keys, minlength=50)[0] / 20_000)
    assert shares[0] < shares[1] < shares[2]


def test_zipfian_pinned_seed_pins_the_stream():
    # the exact draw sequence is part of the reproducibility contract:
    # benchmark configs name (theta, seed) and expect identical traces
    assert zipfian_keys(8, 1000, theta=0.99, seed=7).tolist() == [
        64, 474, 195, 2, 5, 399, 0, 272,
    ]
    for theta in (0.0, 0.9, 1.2):
        a = zipfian_keys(5000, 300, theta=theta, seed=42)
        b = zipfian_keys(5000, 300, theta=theta, seed=42)
        c = zipfian_keys(5000, 300, theta=theta, seed=43)
        assert (a == b).all()
        assert (a != c).any()


def test_zipfian_validation():
    with pytest.raises(ValueError):
        zipfian_keys(10, 0)
    with pytest.raises(ValueError):
        zipfian_keys(-1, 10)
    with pytest.raises(ValueError):
        zipfian_keys(10, 10, theta=-1)
