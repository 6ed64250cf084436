"""Instance builders: the values they return, bit for bit."""

import numpy as np
import pytest

from hjholder import instances
from hjholder.instances import SeparableField


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_windowed_maximum_matches_clip_bitwise():
    half = 1.7
    x = np.concatenate([
        np.linspace(-3.0, 3.0, 1201),
        [-half, half, 0.0, -0.0, np.nextafter(half, 0.0), np.nextafter(half, 4.0),
         np.nextafter(-half, 0.0), np.nextafter(-half, -4.0), 1e10, -1e10, np.nan],
    ])
    s = 1.0 - (x / half) ** 2
    assert _bits(np.maximum(s, 0.0)) == _bits(np.clip(s, 0.0, None))
    # outside the window and on its edges the factor is +0.0, never -0.0
    edge = np.abs(x) >= half
    assert not np.signbit(np.maximum(s, 0.0)[edge]).any()

    prof = instances.initial_profile("windowed", level=0.5, amplitude=0.3, k=1.5,
                                     phase=0.7, half_width=half)
    want = 0.5 + 0.3 * np.sin(1.5 * x + 0.7) * np.clip(s, 0.0, None) ** 2
    assert _bits(prof(x)) == _bits(want)


@pytest.mark.parametrize("d", [1, 2])
def test_rough_coefficient_bits(d):
    coords = np.meshgrid(*[np.linspace(-2.0, 2.0, 37 - 8 * i) for i in range(d)],
                         indexing="ij")
    a = instances.rough_coefficient(k=10.0, omega=7.0, base=1.2, amplitude=0.4)
    assert isinstance(a, SeparableField)
    for t in (0.0, 0.3, 1.1, np.float64(1.4375)):
        want = 1.2 + 0.4 * np.sin(10.0 * coords[0]) * np.sin(7.0 * t)
        assert _bits(a(*coords, t)) == _bits(want)
        assert _bits(a.base + a.space(*coords) * a.time(t)) == _bits(want)


@pytest.mark.parametrize("d", [1, 2])
def test_inverse_power_forcing_bits(d):
    coords = np.meshgrid(*[np.linspace(-2.0, 2.0, 41 - 8 * i) for i in range(d)],
                         indexing="ij")
    center = (1.3, -0.2)[:d]
    f = instances.inverse_power_forcing(0.4, 0.4, center, cap_radius=0.1)
    assert isinstance(f, SeparableField) and f.time is None
    dist = np.sqrt(sum((coords[i] - center[i]) ** 2 for i in range(d)))
    want = 0.4 * np.maximum(dist, 0.1) ** -0.4
    for t in (0.0, 0.7):
        assert _bits(f(*coords, t)) == _bits(want)
