"""Scaling algebra for the model inequalities and exponent feasibility checks.

If u is a sub/supersolution of  u_t + A|Du|^p - eps*m(D^2u) = f, then
v(x,t) = c*u(ax, bt) is one of

    v_t + A a^{-p} b c^{1-p} |Dv|^p - eps a^{-2} b m(D^2 v) = b c f(ax, bt),

and |b f(a., b.)|_{L^m} = a^{p(1-1/m)-d/m} |f|_{L^m} when b = a^p, c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EquationParams
from .errors import DomainError, Infeasible

ALPHA_GRID_RESOLUTION = 1e-4


def _require_dimension(d: int) -> None:
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")


@dataclass(frozen=True)
class ScaleReport:
    """Multiplicative factors picked up by each term under v = c*u(ax, bt)."""

    a: float
    b: float
    c: float
    grad_coeff_factor: float
    diff_coeff_factor: float
    rhs_factor: float
    lm_factor_exponent: float | None = None
    delta: float | None = None

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "grad_coeff_factor": self.grad_coeff_factor,
            "diff_coeff_factor": self.diff_coeff_factor,
            "rhs_factor": self.rhs_factor,
            "lm_factor_exponent": self.lm_factor_exponent,
            "delta": self.delta,
        }


def transform_coeffs(a: float, b: float, c: float, params: EquationParams) -> ScaleReport:
    """Coefficient factors of the scaled inequality for v = c*u(ax, bt).

    grad_coeff_factor is computed as (b / a^p) * c^(1-p) so that the
    gradient-preserving family b = a^p, c = 1 yields exactly 1.0.
    """
    if a <= 0 or b <= 0 or c <= 0:
        raise DomainError(f"scaling parameters must be positive, got {(a, b, c)}")
    p = params.p
    grad = (b / a**p) * c ** (1.0 - p)
    diff = b / (a * a)
    rhs = b * c
    lm_exp = None
    delta = None
    if params.m is not None:
        m = params.m
        # ||b c f(a., b.)||_m = b*c*(a^{-d} b^{-1})^{1/m} ||f||_m; report the
        # exponent of a when the whole factor is a power of a (a != 1).
        lm_factor = b * c * (a ** (-params.d) / b) ** (1.0 / m)
        if a != 1.0:
            lm_exp = math.log(lm_factor) / math.log(a)
        else:
            lm_exp = 0.0 if lm_factor == 1.0 else None
        delta = delta_exponent(p, m, params.d, 0.0)
    return ScaleReport(a, b, c, grad, diff, rhs, lm_exp, delta)


def calpha_scale(r: float, alpha: float, p: float, params: EquationParams) -> ScaleReport:
    """Factors of the C^alpha scaling u_r(x,t) = r^{-alpha} u(rx, r^beta t).

    beta = p - alpha(p-1) is derived; the diffusion picks up
    r^{-alpha(p-1)+p-2} and the right-hand side r^{p(1-alpha)}.
    """
    if not (0.0 < r <= 1.0):
        raise DomainError(f"r must be in (0, 1], got {r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if not p > 1.0:
        raise DomainError(f"p must be > 1, got {p}")
    beta = p - alpha * (p - 1.0)
    a = r
    b = r**beta
    c = r ** (-alpha)
    diff = r ** (-alpha * (p - 1.0) + p - 2.0)
    rhs = r ** (p * (1.0 - alpha))
    delta = None
    if params.m is not None:
        delta = delta_exponent(p, params.m, params.d, alpha)
    return ScaleReport(a, b, c, 1.0, diff, rhs, None, delta)


def delta_exponent(p: float, m: float, d: int, alpha: float) -> float:
    """delta = (1/m)(p(m-1) - d) + (alpha/m)((m-1)p + 1); DomainError when
    that is not finite."""
    _require_dimension(d)
    if not m > 1.0:
        raise DomainError(f"m must be > 1, got {m}")
    if not p > 1.0:
        raise DomainError(f"p must be > 1, got {p}")
    delta = (p * (m - 1.0) - d) / m + alpha * ((m - 1.0) * p + 1.0) / m
    if not math.isfinite(delta):
        raise DomainError(f"delta is not finite for p={p}, m={m}, d={d}, alpha={alpha}")
    return delta


def lm_scaling_exponent(p: float, m: float, d: int) -> float:
    """Exponent of a in |a^p f(a., a^p.)|_{L^m} = a^e |f|_{L^m}."""
    _require_dimension(d)
    if not m > 1.0:
        raise DomainError(f"m must be > 1, got {m}")
    return p * (1.0 - 1.0 / m) - d / m


@dataclass(frozen=True)
class AdmissibleAlpha:
    """Largest admissible alpha together with the active constraint caps."""

    alpha: float
    caps: dict

    def binding(self) -> str:
        return min(self.caps, key=lambda k: self.caps[k])


def admissible_alpha(
    p: float,
    m: float | None,
    d: int,
    lam: float,
    theta: float,
) -> AdmissibleAlpha:
    """Largest alpha, in steps of ALPHA_GRID_RESOLUTION, satisfying every
    active constraint.

    Active constraints: alpha < p/(2(p-1)); lam^alpha >= 1 - theta; alpha < 1;
    and when m is given, alpha < 1/2 together with p(1-alpha-1/m) - d/m >= 0.
    All constraints are monotone in alpha, so a downward grid snap of the
    smallest cap is exact to the grid resolution.
    """
    if not 1.0 < p < math.inf:
        raise DomainError(f"p must be a finite number > 1, got {p}")
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda must be in (0,1), got {lam}")
    if not (0.0 < theta < 1.0):
        raise DomainError(f"theta must be in (0,1), got {theta}")
    _require_dimension(d)
    caps = {}
    caps["alpha < p/(2(p-1))"] = p / (2.0 * (p - 1.0)) - ALPHA_GRID_RESOLUTION
    caps["lambda^alpha >= 1-theta"] = math.log(1.0 - theta) / math.log(lam)
    caps["alpha < 1"] = 1.0 - ALPHA_GRID_RESOLUTION
    if m is not None:
        if not m > 1.0:
            raise DomainError(f"m must be > 1, got {m}")
        if not p * (m - 1.0) > d:
            raise Infeasible(
                f"p(m-1) = {p * (m - 1.0)} must exceed d = {d} for the L^m theory"
            )
        caps["alpha < 1/2"] = 0.5 - ALPHA_GRID_RESOLUTION
        caps["p(1-alpha-1/m)-d/m >= 0"] = 1.0 - 1.0 / m - d / (p * m)
    cap = min(caps.values())
    alpha = math.floor(cap / ALPHA_GRID_RESOLUTION) * ALPHA_GRID_RESOLUTION
    if alpha <= 0.0:
        binding = min(caps, key=lambda k: caps[k])
        raise Infeasible(f"no positive alpha satisfies {binding!r} (cap {cap:g})")
    return AdmissibleAlpha(alpha, caps)


def beta_window(p: float, m: float, d: int) -> tuple[float, float, bool]:
    """The admissible window (1/p, min(1/p', (m-1)/d)) for the kernel exponent."""
    _require_dimension(d)
    if not p > 2.0:
        raise DomainError(f"p must be > 2, got {p}")
    if not m > 1.0:
        raise DomainError(f"m must be > 1, got {m}")
    p_prime = p / (p - 1.0)
    lower = 1.0 / p
    upper = min(1.0 / p_prime, (m - 1.0) / d)
    return lower, upper, lower < upper


def time_exponent(p: float, alpha: float) -> float:
    """Exponent of |t - s| in the two-point modulus: alpha / (p - alpha(p-1))."""
    beta = p - alpha * (p - 1.0)
    if beta <= 0:
        raise DomainError(f"p - alpha(p-1) must be positive, got {beta}")
    return alpha / beta
