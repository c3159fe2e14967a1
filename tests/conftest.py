import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

from eigengeo import SpdMatrix, Spectrum


def random_spd(rng, p, ridge=None):
    """Random SPD matrix with comfortably separated eigenvalues."""
    A = rng.standard_normal((p, p))
    return SpdMatrix(A @ A.T + (ridge if ridge is not None else p) * np.eye(p))


def random_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def random_spectrum(rng, p, low=0.5, high=5.0, min_gap_frac=0.05):
    """Random spectrum whose gaps are far from the degeneracy tolerance."""
    while True:
        lam = np.sort(rng.uniform(low, high, p))[::-1]
        gaps = lam[:-1] - lam[1:]
        if p == 1 or gaps.min() >= min_gap_frac * lam[0]:
            break
    return Spectrum(lam, random_orthogonal(rng, p))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def assert_read_only(value):
    """Every write into a frozen report raises, down to its leaves: no field
    can be rebound, its arrays are read-only, its sequences are tuples and
    its mappings refuse item assignment."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, item)
            assert_read_only(item)
    elif isinstance(value, np.ndarray):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = value
    elif isinstance(value, (tuple, Mapping)):
        for key, item in value.items() if isinstance(value, Mapping) else enumerate(value):
            with pytest.raises(TypeError):
                value[key] = item
            assert_read_only(item)
    else:
        assert isinstance(value, (str, int, float, np.generic)), type(value)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
