"""Instance builders: the values they return, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hjholder import instances, scheme
from hjholder.core import EquationParams
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


class _Counted:
    """An initial profile that counts its evaluations."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *coords):
        self.calls += 1
        return self.fn(*coords)


COORDS = hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=5),
                    elements=st.floats(-3.0, 3.0, allow_subnormal=False))


@settings(max_examples=60, deadline=None)
@given(COORDS, st.floats(-1.0, 2.0), st.integers(0, 4))
def test_frozen_boundary_keeps_its_last_sample(x, t, k):
    init = _Counted(instances.initial_profile("windowed", phase=0.3))
    bc = instances.boundary_profile("frozen_initial", init=init)
    first = bc(x, t)
    assert _bits(first) == _bits(init.fn(x)) and first.dtype == float
    with pytest.raises(ValueError):  # read-only
        first[...] = 0.0
    # the same nodes at another time, or equal nodes in another array: no evaluation
    assert bc(x, t + 1.0) is first and bc(x.copy(), t) is first and init.calls == 1
    # a node moved in place, another shape or another dtype is evaluated afresh
    x.flat[k % x.size] += 0.5
    assert _bits(bc(x, t)) == _bits(init.fn(x)) and init.calls == 2
    flat = x.reshape(-1)[None, :, None]  # three axes: x has one or two
    assert _bits(bc(flat, t)) == _bits(init.fn(flat)) and init.calls == 3
    single = x.astype(np.float32)
    assert _bits(bc(single, t)) == _bits(init.fn(single)) and init.calls == 4


def test_sweep_rows_share_one_frozen_sample():
    init = _Counted(instances.initial_profile("windowed", phase=0.3))
    bc = instances.boundary_profile("frozen_initial", init=init)
    calls = [0]

    def counted_bc(*args):
        calls[0] += 1
        return bc(*args)

    cfg = scheme.SolveConfig(xmin=(-2.0,), xmax=(2.0,), nx=(65,), t1=0.5, nt=5)
    specs = [scheme.HamiltonianSpec(params=EquationParams(p=p, A=2.0, d=1),
                                    coefficient=instances.rough_coefficient(k, 5.0))
             for p, k in ((3.0, 10.0), (2.5, 6.0), (3.5, 3.0))]
    together = scheme.solve_hj(specs, [init.fn] * 3, [counted_bc] * 3, cfg)
    assert init.calls == 1  # once for the boundary nodes of every row and substep
    alone = []
    for spec in specs:
        calls_before = calls[0]
        u = scheme.solve_hj(spec, init.fn, counted_bc, cfg)
        alone.append(calls[0] - calls_before)
        assert u.values.tobytes() == together[len(alone) - 1].values.tobytes()
    # one call per row and substep: the calls of the rows alone add up
    assert calls[0] == 2 * sum(alone) and len(set(alone)) > 1
    assert init.calls == 1
