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

from .core import as_number
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


def rough_coefficient(k: float, omega: float, base: float = 1.0, amplitude: float = 0.5):
    """a(x, t) = base + amplitude * sin(k x) * sin(omega t) (first axis only)."""
    return SeparableField(
        space=lambda *coords: amplitude * np.sin(k * coords[0]),
        time=lambda t: np.sin(omega * t),
        base=base,
    )


def inverse_power_forcing(strength: float, gamma: float, center, cap_radius: float):
    """f(x) = strength * max(|x - x0|, cap_radius)^{-gamma}, time independent."""
    if not gamma > 0 or not cap_radius > 0:
        raise DomainError("need gamma > 0 and cap_radius > 0")
    c = np.atleast_1d(np.asarray(center, dtype=float))

    def f(*coords):
        dist2 = sum((coords[i] - c[i]) ** 2 for i in range(len(coords)))
        dist = np.maximum(np.sqrt(dist2), cap_radius)
        return strength * dist ** (-gamma)

    return SeparableField(space=f)


def _number(kw: dict, key: str, default: float) -> float:
    return as_number(kw.get(key, default), key)


def initial_profile(kind: str, **kw):
    """Named initial data u(x, 0); all profiles map the first axis only."""
    if kind == "constant":
        value = _number(kw, "value", 0.5)
        return lambda *coords: np.full(np.shape(coords[0]), value)
    if kind == "sinusoid":
        level = _number(kw, "level", 0.5)
        amp = _number(kw, "amplitude", 0.4)
        k = _number(kw, "k", 2.0)
        phase = _number(kw, "phase", 0.0)
        return lambda *coords: level + amp * np.sin(k * coords[0] + phase)
    if kind == "quadratic":
        scale = _number(kw, "scale", 1.0)
        return lambda *coords: scale * sum(c**2 for c in coords)
    if kind == "abs":
        scale = _number(kw, "scale", 1.0)
        return lambda *coords: scale * np.sqrt(sum(c**2 for c in coords))
    if kind == "dip":
        level = _number(kw, "level", 1.0)
        depth = _number(kw, "depth", 0.9)
        center = _number(kw, "center", 0.0)
        width = _number(kw, "width", 0.2)

        def dip(*coords):
            dist2 = (coords[0] - center) ** 2
            for c in coords[1:]:
                dist2 = dist2 + c**2
            return level - depth * np.exp(-dist2 / (2.0 * width**2))

        return dip
    if kind == "windowed":
        # sinusoid damped by (1 - (x/half_width)^2)^2: flat at the box faces,
        # so frozen Dirichlet data raises no boundary layer
        level = _number(kw, "level", 0.5)
        amp = _number(kw, "amplitude", 0.4)
        k = _number(kw, "k", 2.0)
        phase = _number(kw, "phase", 0.0)
        half = _number(kw, "half_width", 2.0)

        def windowed(*coords):
            x = coords[0]
            # np.maximum, not np.clip: same bits (1.0 - s is never -0.0), less dispatch
            win = np.maximum(1.0 - (x / half) ** 2, 0.0) ** 2
            return level + amp * np.sin(k * x + phase) * win

        return windowed
    raise DomainError(f"unknown initial profile {kind!r}")


def boundary_profile(kind: str, init=None, **kw):
    """Named Dirichlet data g(x, t) on the box faces."""
    if kind == "frozen_initial":
        if init is None:
            raise DomainError("frozen_initial boundary needs the initial profile")
        return lambda *args: init(*args[:-1])
    if kind == "constant":
        value = _number(kw, "value", 0.0)
        return lambda *args: np.full(np.shape(args[0]), value)
    raise DomainError(f"unknown boundary profile {kind!r}")
