"""Reusable problem-instance builders: rough coefficient fields, singular
forcings and named initial/boundary profiles.

The coefficient family a(x,t) = base + amplitude*sin(kx)*sin(omega t) stays
inside [base - amplitude, base + amplitude]; the forcing family
f(x) = M |x - x0|^{-gamma} (truncated at the grid scale) is in L^m but not
L^inf whenever gamma*m < d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SeparableField:
    """g(*coords, t) = base + space(*coords) * time(t), with the split declared.

    time=None declares a time-independent field, g(*coords, t) = space(*coords),
    and base is then unused.  Calling the field evaluates that expression
    every time; the solver instead evaluates space once per solve and only
    time(t) each substep, which gives the same bits because it performs the
    same float operations in the same order.
    """

    space: Callable
    time: Callable | None = None
    base: float = 0.0

    def __call__(self, *args):
        value = self.space(*args[:-1])
        if self.time is None:
            return value
        return self.base + value * self.time(args[-1])


def rough_coefficient(k: float = 10.0, omega: float = 7.0, base: float = 1.0,
                      amplitude: float = 0.5):
    """a(x, t) = base + amplitude * sin(k x) * sin(omega t) (first axis only)."""
    return SeparableField(
        space=lambda *coords: amplitude * np.sin(k * coords[0]),
        time=lambda t: np.sin(omega * t),
        base=base,
    )


def inverse_power_forcing(strength: float = 0.5, gamma: float = 0.4,
                          center: tuple[float, ...] = (0.0,), *, cap_radius: float):
    """f(x) = strength * max(|x - x0|, cap_radius)^{-gamma}, time independent;
    center x0 holds one entry per space axis (a number is one axis), and
    cap_radius has no default, because it belongs to the grid."""
    if not gamma > 0 or not cap_radius > 0:
        raise DomainError("need gamma > 0 and cap_radius > 0")
    c = np.atleast_1d(np.asarray(center, dtype=float))

    def f(*coords):
        if len(coords) != c.size:
            raise DomainError(f"forcing center {c.tolist()} needs {len(coords)} entries")
        dist2 = sum((coords[i] - c[i]) ** 2 for i in range(len(coords)))
        dist = np.maximum(np.sqrt(dist2), cap_radius)
        return strength * dist ** (-gamma)

    return SeparableField(space=f)


def _dip(level=1.0, depth=0.9, center=0.0, width=0.2):
    def dip(*coords):
        dist2 = (coords[0] - center) ** 2
        for c in coords[1:]:
            dist2 = dist2 + c**2
        return level - depth * np.exp(-dist2 / (2.0 * width**2))

    return dip


def _windowed(level=0.5, amplitude=0.4, k=2.0, phase=0.0, half_width=2.0):
    # sinusoid damped by (1 - (x/half_width)^2)^2: flat at the box faces,
    # so frozen Dirichlet data raises no boundary layer
    def windowed(*coords):
        x = coords[0]
        # np.maximum, not np.clip: same bits (1.0 - s is never -0.0), less dispatch
        win = np.maximum(1.0 - (x / half_width) ** 2, 0.0) ** 2
        return level + amplitude * np.sin(k * x + phase) * win

    return windowed


def _frozen_initial(*, init):
    if init is None:
        raise DomainError("frozen_initial boundary needs the initial profile")
    return lambda *args: init(*args[:-1])


# kind -> factory of named initial data u(x, 0) and Dirichlet data g(x, t); a
# factory's keyword arguments, all numbers, and their defaults are the keys of
# its config block.  Boundary factories also get `init`.  Profiles map axis 0 only.
INITIAL_PROFILES = {
    "constant": lambda value=0.5: lambda *x: np.full(np.shape(x[0]), value, dtype=float),
    "sinusoid": lambda level=0.5, amplitude=0.4, k=2.0, phase=0.0:
        lambda *x: level + amplitude * np.sin(k * x[0] + phase),
    "quadratic": lambda scale=1.0: lambda *x: scale * sum(c**2 for c in x),
    "abs": lambda scale=1.0: lambda *x: scale * np.sqrt(sum(c**2 for c in x)),
    "dip": _dip,
    "windowed": _windowed,
}
BOUNDARY_PROFILES = {
    "frozen_initial": _frozen_initial,
    "constant": lambda value=0.0, *, init: lambda *args: np.full(np.shape(args[0]), value,
                                                                 dtype=float),
}


def _named(factories: dict, kind, what: str):
    if not isinstance(kind, str) or kind not in factories:
        raise DomainError(f"unknown {what} {kind!r}")
    return factories[kind]


def initial_profile(kind: str, **kw):
    """Named initial data u(x, 0): INITIAL_PROFILES[kind](**kw)."""
    return _named(INITIAL_PROFILES, kind, "initial profile")(**kw)


def boundary_profile(kind: str, init=None, **kw):
    """Named Dirichlet data g(x, t) on the box faces: BOUNDARY_PROFILES[kind](init=init, **kw)."""
    return _named(BOUNDARY_PROFILES, kind, "boundary profile")(init=init, **kw)
