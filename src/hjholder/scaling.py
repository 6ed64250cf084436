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


@dataclass(frozen=True)
class ScaleReport:
    """Multiplicative factors picked up by each term under v = c*u(ax, bt)."""

    grad_coeff_factor: float
    diff_coeff_factor: float
    rhs_factor: float


def transform_coeffs(a: float, b: float, c: float, params: EquationParams) -> ScaleReport:
    """Coefficient factors of the scaled inequality for v = c*u(ax, bt).

    grad_coeff_factor is computed as (b / a^p) * c^(1-p) so that the
    gradient-preserving family b = a^p, c = 1 yields exactly 1.0.
    """
    if a <= 0 or b <= 0 or c <= 0:
        raise DomainError(f"scaling parameters must be positive, got {(a, b, c)}")
    p = params.p
    return ScaleReport((b / a**p) * c ** (1.0 - p), b / (a * a), b * c)


def calpha_scale(r: float, alpha: float, params: EquationParams) -> ScaleReport:
    """Factors of the C^alpha scaling u_r(x,t) = r^{-alpha} u(rx, r^beta t).

    With p = params.p and beta = p - alpha(p-1), the gradient term keeps its
    coefficient, the diffusion picks up r^{-alpha(p-1)+p-2} and the
    right-hand side r^{p(1-alpha)}.
    """
    if not (0.0 < r <= 1.0):
        raise DomainError(f"r must be in (0, 1], got {r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    p = params.p
    return ScaleReport(1.0, r ** (-alpha * (p - 1.0) + p - 2.0), r ** (p * (1.0 - alpha)))


def _require_m(params: EquationParams, what: str) -> float:
    if params.m is None:
        raise DomainError(f"{what} needs the L^m exponent m")
    return params.m


def delta_exponent(params: EquationParams, alpha: float) -> float:
    """delta = (1/m)(p(m-1) - d) + (alpha/m)((m-1)p + 1); DomainError when
    params has no m or delta is not finite."""
    p, m, d = params.p, _require_m(params, "delta_exponent"), params.d
    delta = (p * (m - 1.0) - d) / m + alpha * ((m - 1.0) * p + 1.0) / m
    if not math.isfinite(delta):
        raise DomainError(f"delta is not finite for p={p}, m={m}, d={d}, alpha={alpha}")
    return delta


def lm_scaling_exponent(params: EquationParams) -> float:
    """Exponent of a in |a^p f(a., a^p.)|_{L^m} = a^e |f|_{L^m}."""
    p, m = params.p, _require_m(params, "lm_scaling_exponent")
    return p * (1.0 - 1.0 / m) - params.d / m


@dataclass(frozen=True)
class AdmissibleAlpha:
    """Largest admissible alpha together with the active constraint caps."""

    alpha: float
    caps: dict

    def binding(self) -> str:
        return min(self.caps, key=lambda k: self.caps[k])


def admissible_alpha(params: EquationParams, lam: float, theta: float) -> AdmissibleAlpha:
    """Largest alpha, in steps of ALPHA_GRID_RESOLUTION, satisfying every
    active constraint.

    Active constraints: alpha < p/(2(p-1)); lam^alpha >= 1 - theta; alpha < 1;
    and when params has an m, alpha < 1/2 together with
    p(1-alpha-1/m) - d/m >= 0.  All constraints are monotone in alpha, so a
    downward grid snap of the smallest cap is exact to the grid resolution.
    """
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda must be in (0,1), got {lam}")
    if not (0.0 < theta < 1.0):
        raise DomainError(f"theta must be in (0,1), got {theta}")
    p, m, d = params.p, params.m, params.d
    caps = {}
    caps["alpha < p/(2(p-1))"] = p / (2.0 * (p - 1.0)) - ALPHA_GRID_RESOLUTION
    caps["lambda^alpha >= 1-theta"] = math.log(1.0 - theta) / math.log(lam)
    caps["alpha < 1"] = 1.0 - ALPHA_GRID_RESOLUTION
    if m is not None:
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


def beta_window(params: EquationParams) -> tuple[float, float, bool]:
    """The admissible window (1/p, min(1/p', (m-1)/d)) for the kernel exponent."""
    params.require_superquadratic("beta_window")
    m = _require_m(params, "beta_window")
    lower = 1.0 / params.p
    upper = min(1.0 / params.p_prime, (m - 1.0) / params.d)
    return lower, upper, lower < upper


def time_exponent(p: float, alpha: float) -> float:
    """Exponent of |t - s| in the two-point modulus: alpha / (p - alpha(p-1))."""
    beta = p - alpha * (p - 1.0)
    if beta <= 0:
        raise DomainError(f"p - alpha(p-1) must be positive, got {beta}")
    return alpha / beta
