"""Explicit barrier functions and solvers for every constant system they need.

Supersolution (p > 2):   U(x,t) = C t^{-1/(p-1)} (|x|^2 + eta*t)^{p'/2}
with certificate          U_t + (1/A)|DU|^p - eps*m+(D^2 U) >= 0.

Subsolution:  L(x,t) = theta*b(|x|/R + t/4) - (C_b*eps*theta^2/R^2) t - eps*t
with certificate          L_t + A|DL|^p - eps*m-(D^2 L) + eps <= 0,
where b is a C^2 nonincreasing bump, 1 on (-inf, 3/4] and 0 on [1, inf).

First-order constants (T, theta, eps) solve the inequality system

    c_p (T-1)^{1-p'} A^{p'-1} 3^{p'} <= 1 - 4*theta
    c_p T^{1-p'} A^{p'-1}           >= 2*theta
    eps*T                           <= theta.

Certificates are grid checks, not proofs between nodes: every report records
the grid and the worst margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import extremal
from .core import EquationParams, GridFunction, require_float64_count
from .errors import DomainError, EmptyIntersection, SearchFailed
from .variational import legendre_closed

RESIDUAL_TOL = 1e-10
RANGE_TOL = 1e-8  # slack of the [0, 1] range premise of the two-case check
_C_MAX_DOUBLINGS = 41
_EPS0_MAX_HALVINGS = 41
_THETA_MARGIN = 0.01  # the subsolution theta stays below 1/4 - _THETA_MARGIN
_EPS_MAX_HALVINGS = 80
GRID_X_MAX = 2.0  # every verification grid covers |x| <= GRID_X_MAX
GRID_T_MAX = 1.0  # and t in [t_min, GRID_T_MAX]


# ---------------------------------------------------------------------------
# Bump profile
# ---------------------------------------------------------------------------


def _smoothstep(x):
    """C^2 quintic ramp 6x^5 - 15x^4 + 10x^3 with its first two derivatives."""
    s = 6 * x**5 - 15 * x**4 + 10 * x**3
    ds = 30 * x**2 * (1 - x) ** 2
    d2s = 60 * x * (2 * x - 1) * (x - 1)
    return s, ds, d2s


@dataclass(frozen=True)
class BumpFunction:
    """C^2 nonincreasing b with b = 1 on (-inf, 3/4], b = 0 on [1, inf).

    On [3/4, 1] the profile is b(s) = 1 - smoothstep(4(s - 3/4)): b' and b''
    vanish at the gluing points and have closed-form sup norms.
    """

    sup_db = 7.5  # max |b'| at s = 7/8
    sup_d2b = 160.0 / math.sqrt(3.0)

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        x = np.clip(4.0 * (s - 0.75), 0.0, 1.0)
        sig, dsig, d2sig = _smoothstep(x)
        inside = (s > 0.75) & (s < 1.0)
        b = np.where(s <= 0.75, 1.0, np.where(s >= 1.0, 0.0, 1.0 - sig))
        db = np.where(inside, -4.0 * dsig, 0.0)
        d2b = np.where(inside, -16.0 * d2sig, 0.0)
        return b, db, d2b


BUMP = BumpFunction()  # the bump of every subsolution barrier


# ---------------------------------------------------------------------------
# Verification grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationGrid:
    """Node family for residual certificates: |x| <= GRID_X_MAX with nx nodes
    per axis, t log-spaced in [t_min, GRID_T_MAX].  Barriers are radial, so
    residuals are evaluated on the (deduplicated) node radii."""

    nx: int = 65
    t_min: float = 1e-3
    nt: int = 65

    def __post_init__(self):
        if self.nx < 1 or self.nt < 1:
            raise DomainError(f"verification grid needs nx, nt >= 1, got {self.nx}, {self.nt}")

    def radii(self, d: int) -> np.ndarray:
        """The node radii; DomainError before allocating when the nx^d x nt
        nodes, which bound every array of a search, overflow an array."""
        if d not in (1, 2):
            raise DomainError(f"verification grid supports d in {{1, 2}}, got {d}")
        require_float64_count((*[self.nx] * d, self.nt),
                              f"the verification grid's nx^{d} x nt nodes")
        ax = np.linspace(-GRID_X_MAX, GRID_X_MAX, self.nx)
        if d == 1:
            return np.unique(np.abs(ax))
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        rho = np.sqrt(gx**2 + gy**2).ravel()
        rho = rho[rho <= GRID_X_MAX]
        if rho.size == 0:
            raise DomainError(f"no node of the verification grid (nx = {self.nx}) "
                              f"lies within |x| <= {GRID_X_MAX}")
        return np.unique(rho)

    def times(self) -> np.ndarray:
        return np.logspace(math.log10(self.t_min), math.log10(GRID_T_MAX), self.nt)


# ---------------------------------------------------------------------------
# Supersolution barrier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupersolutionBarrier:
    """U(x,t) = C t^{-1/(p-1)} (|x|^2 + eta t)^{p'/2}, defined for t > 0."""

    C: float
    eta: float
    params: EquationParams

    def __post_init__(self):
        self.params.require_superquadratic("SupersolutionBarrier")
        if not self.C > 0 or not self.eta > 0:
            raise DomainError("need C > 0 and eta > 0")


def supersolution_eval(bar: SupersolutionBarrier, x, t: float):
    """(value, gradient, hessian, time derivative) from the closed form.

    With g(s) = s^{p'/2} and s = |x|^2 + eta*t:
        U   = tau g(s),                  tau  = C t^{-1/(p-1)},
        U_t = tau (-g/((p-1) t) + eta g'),
        DU  = 2 tau g' x,
        D2U = tau (2 g' I + 4 g'' x x^T).
    """
    if not t > 0.0:
        raise DomainError(f"supersolution barrier needs t > 0, got {t}")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    p, pp = bar.params.p, bar.params.p_prime
    s = float(np.dot(xv, xv)) + bar.eta * t
    tau = bar.C * t ** (-1.0 / (p - 1.0))
    g = s ** (pp / 2.0)
    dg = (pp / 2.0) * s ** (pp / 2.0 - 1.0)
    d2g = (pp / 2.0) * (pp / 2.0 - 1.0) * s ** (pp / 2.0 - 2.0)
    value = tau * g
    dt = tau * (-g / ((p - 1.0) * t) + bar.eta * dg)
    grad = 2.0 * tau * dg * xv
    hess = tau * (2.0 * dg * np.eye(len(xv)) + 4.0 * d2g * np.outer(xv, xv))
    return value, grad, extremal.SymMatrix(hess), dt


def supersolution_residual(bar: SupersolutionBarrier, x, t: float, eps: float) -> float:
    """U_t + (1/A)|DU|^p - eps*m+(D^2 U) at a point."""
    _, grad, hess, dt = supersolution_eval(bar, x, t)
    gnorm = float(np.linalg.norm(grad))
    return dt + gnorm ** bar.params.p / bar.params.A - eps * extremal.m_plus(hess)


def _super_terms(params: EquationParams, eta: float, rho, t):
    """The terms of the supersolution residual that do not depend on C or eps.

    With s = rho^2 + eta t and g(s) = s^{p'/2}: t^{-1/(p-1)}, g', the bracket
    -g/((p-1) t) + eta g' of U_t and the radial bracket 2g' + 4g'' rho^2.
    `_super_candidate` and `_super_residual` turn them into the residual of one
    candidate (C, eps).  A term that overflows or divides by zero is inf or
    nan, which no certificate passes, so no warning is raised.
    """
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    p, pp = params.p, params.p_prime
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = rho**2 + eta * t
        g = s ** (pp / 2.0)
        dg = (pp / 2.0) * s ** (pp / 2.0 - 1.0)
        d2g = (pp / 2.0) * (pp / 2.0 - 1.0) * s ** (pp / 2.0 - 2.0)
        return (
            rho,
            t ** (-1.0 / (p - 1.0)),
            dg,
            -g / ((p - 1.0) * t) + eta * dg,
            2.0 * dg + 4.0 * d2g * rho**2,
        )


def _super_candidate(terms, C: float, params: EquationParams):
    """The eps-free part P = U_t + (1/A)|DU|^p of the residual of one C, and m+(D^2 U).

    With tau = C t^{-1/(p-1)} from `_super_terms`: the barrier is radial, so
    the Hessian eigenvalues are tau (2g' + 4g''rho^2) (radial) and 2 tau g'
    (tangential, d >= 2), and |DU| = 2 tau g' rho.  `_super_residual` turns
    (P, m+) into the residual at one eps.  As in `_super_terms`, inf and nan
    fail the certificate without a warning.
    """
    rho, t_pow, dg, dt_bracket, rad_bracket = terms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tau = C * t_pow
        tau_dg = 2.0 * tau * dg  # the tangential eigenvalue tau * 2g'
        gnorm = tau_dg * rho
        eig_rad = tau * rad_bracket
        eig_max = np.maximum(eig_rad, tau_dg) if params.d >= 2 else eig_rad
        mp = np.maximum(eig_max, 0.0)
        return tau * dt_bracket + gnorm**params.p / params.A, mp


def _super_residual(candidate, eps: float):
    """U_t + (1/A)|DU|^p - eps*m+(D^2 U) from the `_super_candidate` (P, m+) of one C."""
    P, mp = candidate
    return P - eps * mp


def _super_residual_radial(bar: SupersolutionBarrier, rho, t, eps: float):
    """Vectorized residual over radii/times; identical to the pointwise form
    because the barrier is radial."""
    terms = _super_terms(bar.params, bar.eta, rho, t)
    return _super_residual(_super_candidate(terms, bar.C, bar.params), eps)


def find_supersolution_constants(
    params: EquationParams,
    eta: float,
    grid: VerificationGrid | None = None,
) -> tuple[float, float]:
    """(C, eps0) certified on the verification grid.

    The candidates are C = 2^j and eps0 = 2^-h for j, h = 0..40; a candidate
    passes when the residual of the eta-barrier at eps = eta*eps0 is >= -1e-10
    at every node.  The residual is nonincreasing in eps, so the check at
    eps = eta*eps0 covers all smaller eps.  The result is the passing
    candidate with the fewest halvings h, and among those the smallest C.
    Raises SearchFailed when no candidate passes (p too close to 2 for the
    grid resolution).

    Everything in the residual that does not depend on C or eps (g and its
    derivatives in s = |x|^2 + eta t, t^{-1/(p-1)} and the brackets of U_t and
    of the radial eigenvalue) is computed once per search.  The search walks
    C upward, and for each C only halving counts below the best found so far
    are tried; the walk stops at the first C that passes at eps0 = 1.  Each C
    is first screened on the innermost radius, the first row of those terms
    (rho = 0 when nx is odd): a candidate passes only if every node does, so
    a C whose row fails at every remaining eps0 is skipped, and otherwise the
    eps-free part P(C) and m+(C) are built on the whole grid and tried from
    the first eps0 the row passed.  Each eps0 costs one P - eps*m+.
    """
    params.require_superquadratic("find_supersolution_constants")
    if not eta > 0:
        raise DomainError(f"eta must be > 0, got {eta}")
    grid = grid or VerificationGrid()
    rho, t = np.meshgrid(grid.radii(params.d), grid.times(), indexing="ij")
    terms = _super_terms(params, eta, rho, t)
    row = tuple(term[:1] for term in terms)  # grid.radii is sorted: the innermost radius

    def first_pass(candidate, start: int, stop: int):
        """The fewest halvings in [start, stop) at which the candidate passes, or None."""
        for h in range(start, stop):
            if _super_residual(candidate, eta * 0.5**h).min() >= -RESIDUAL_TOL:
                return h
        return None

    found = None
    halvings = _EPS0_MAX_HALVINGS  # a pass must take fewer halvings than this
    c = 1.0
    for _ in range(_C_MAX_DOUBLINGS):
        h = first_pass(_super_candidate(row, c, params), 0, halvings)
        if h is not None:
            h = first_pass(_super_candidate(terms, c, params), h, halvings)
        if h is not None:
            found, halvings = (c, 0.5**h), h
            if halvings == 0:
                break
        c *= 2.0
    if found is None:
        raise SearchFailed(
            f"no supersolution certificate for p={params.p}, A={params.A}, eta={eta} "
            f"within budget; p may be too close to 2 for this grid"
        )
    return found


# ---------------------------------------------------------------------------
# Subsolution barrier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsolutionBarrier:
    """L(x,t) = theta b(|x|/R + t/4) - (C_b eps theta^2/R^2) t - eps t."""

    theta: float
    R: float
    eps: float
    C_b: float

    def __post_init__(self):
        if not (0.0 < self.theta < 0.25):
            raise DomainError(f"theta must lie in (0, 1/4), got {self.theta}")
        if not self.R > 0 or not self.C_b > 0 or self.eps < 0:
            raise DomainError("need R > 0, C_b > 0, eps >= 0")

    @property
    def drift(self) -> float:
        """Coefficient of -t in L: C_b*eps*theta^2/R^2 + eps."""
        return self.C_b * self.eps * self.theta**2 / self.R**2 + self.eps


def subsolution_eval(bar: SubsolutionBarrier, x, t: float):
    """(value, gradient, hessian, time derivative), exact piecewise forms.

    The Hessian of b(|x|/R + t/4) is (b'/(R|x|))(I - xh xh^T) + (b''/R^2)
    xh xh^T away from the origin and extends by its radial limit (b''/R^2) I
    at x = 0 (a removable singularity: b' vanishes wherever |x|/R < 1/2).
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"subsolution barrier is verified on t in [0,1], got {t}")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    d = len(xv)
    rho = float(np.linalg.norm(xv))
    w = rho / bar.R + t / 4.0
    b, db, d2b = (float(v) for v in BUMP.eval(w))
    theta, R = bar.theta, bar.R
    value = theta * b - bar.drift * t
    dt = (theta / 4.0) * db - bar.drift
    if rho > 0.0:
        xh = xv / rho
        grad = (theta / R) * db * xh
        hess = theta * (
            (d2b / R**2) * np.outer(xh, xh)
            + (db / (R * rho)) * (np.eye(d) - np.outer(xh, xh))
        )
    else:
        grad = np.zeros(d)
        hess = theta * (d2b / R**2) * np.eye(d)
    return value, grad, extremal.SymMatrix(hess), dt


def subsolution_residual(
    bar: SubsolutionBarrier, params: EquationParams, x, t: float
) -> float:
    """L_t + A|DL|^p - eps*m-(D^2 L) + eps at a point."""
    _, grad, hess, dt = subsolution_eval(bar, x, t)
    gnorm = float(np.linalg.norm(grad))
    return dt + params.A * gnorm ** params.p - bar.eps * extremal.m_minus(hess) + bar.eps


def _sub_terms(theta: float, R: float, params: EquationParams, rho, t):
    """The terms of the subsolution residual that do not depend on eps:
    (theta/4) b', A|DL|^p and the clamp min(m-(D^2 L), 0), where w = |x|/R + t/4
    and the Hessian eigenvalues are theta b''/R^2 (radial) and theta b'/(R rho)
    (tangential, d >= 2).  `_sub_residual` adds the eps terms of one candidate."""
    rho = np.asarray(rho, dtype=float)
    t = np.asarray(t, dtype=float)
    w = rho / R + t / 4.0
    _, db, d2b = BUMP.eval(w)
    gnorm = (theta / R) * np.abs(db)
    eig_rad = theta * d2b / R**2
    if params.d >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            eig_tan = np.where(rho > 0.0, theta * db / (R * rho), eig_rad)
        eig_min = np.minimum(eig_rad, eig_tan)
    else:
        eig_min = eig_rad
    return (theta / 4.0) * db, params.A * gnorm**params.p, np.minimum(eig_min, 0.0)


def _sub_residual(terms, drift: float, eps: float):
    """L_t + A|DL|^p - eps*m-(D^2 L) + eps from `_sub_terms`, with L_t = (theta/4) b' - drift."""
    dt_bump, hamiltonian, mm = terms
    return dt_bump - drift + hamiltonian - eps * mm + eps


def _sub_residual_radial(bar: SubsolutionBarrier, params: EquationParams, rho, t):
    """Vectorized residual over radii/times."""
    terms = _sub_terms(bar.theta, bar.R, params, rho, t)
    return _sub_residual(terms, bar.drift, bar.eps)


def make_subsolution_barrier(
    params: EquationParams,
    R: float,
    grid: VerificationGrid | None = None,
) -> SubsolutionBarrier:
    """Construct a fully verified subsolution barrier, including its eps.

    C_b = 2||b'|| + ||b''||/R, and theta is the smaller of 1/4 - _THETA_MARGIN
    and (R^p / (4 A ||b'||^{p-1}))^{1/(p-1)}, taken in logs only where that
    quotient underflows to 0 or overflows (p = 300 or 1e12).  eps starts at
    min(theta/2, 1/(2 C_b)) and halves, at most _EPS_MAX_HALVINGS times, until
    the grid residual is <= 1e-10 everywhere (the admissible eps shrinks with
    the gluing-edge curvature of the bump, so a scan is simpler than a closed
    form).

    The bump and its derivatives on the grid, A|DL|^p and the eigenvalue clamp
    do not depend on eps and are computed once per search; each candidate
    costs only its drift and eps terms."""
    if not R > 0:
        raise DomainError(f"R must be > 0, got {R}")
    grid = grid or VerificationGrid()
    C_b = 2.0 * BUMP.sup_db + BUMP.sup_d2b / R
    p, A = params.p, params.A
    try:  # R**p, ||b'||**(p-1) and R**2 are Python float powers
        try:
            theta_cap = (R**p / (4.0 * A * BUMP.sup_db ** (p - 1.0))) ** (1.0 / (p - 1.0))
        except OverflowError:
            theta_cap = 0.0
        if theta_cap == 0.0:  # the quotient left the float range: the same cap in logs
            theta_cap = math.exp((p * math.log(R) - math.log(4.0) - math.log(A)
                                  - (p - 1.0) * math.log(BUMP.sup_db)) / (p - 1.0))
        theta = min(0.25 - _THETA_MARGIN, theta_cap)
        if theta <= 0:
            raise SearchFailed(f"no admissible theta for R={R}, p={params.p}, A={params.A}")
        rho, t = np.meshgrid(grid.radii(params.d), grid.times(), indexing="ij")
        terms = _sub_terms(theta, R, params, rho, t)
    except OverflowError:
        raise DomainError(f"R={R}, p={params.p}, A={params.A} overflow the float powers "
                          "of the subsolution barrier") from None
    eps = min(theta / 2.0, 0.5 / C_b)
    for _ in range(_EPS_MAX_HALVINGS):
        bar = SubsolutionBarrier(theta, R, eps, C_b)
        res = _sub_residual(terms, bar.drift, eps)
        if res.max() <= RESIDUAL_TOL:
            return bar
        eps *= 0.5
    raise SearchFailed(
        f"subsolution residual check failed for p={params.p}, A={params.A}, R={R} "
        f"at every eps down to {eps:g} (grid resolution issue)"
    )


# ---------------------------------------------------------------------------
# First-order constants (T, theta, eps)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstOrderConstants:
    """A verified solution (T, theta, eps) of the three-inequality system."""

    T: float
    theta: float
    eps: float
    params: EquationParams

    def __post_init__(self):
        if not (self.theta > 0.0 and self.eps > 0.0):
            raise DomainError(f"first-order constants need theta > 0 and eps > 0, "
                              f"got theta = {self.theta:g}, eps = {self.eps:g}")
        m1, m2, m3 = self.margins()
        if min(m1, m2, m3) < 0.0:
            raise DomainError(
                f"first-order constant system violated: margins {(m1, m2, m3)}"
            )

    def margins(self) -> tuple[float, float, float]:
        """Slack of each inequality (all must be >= 0)."""
        lhs1, lhs2 = _first_order_costs(self.params, self.T)
        return (
            (1.0 - 4.0 * self.theta) - lhs1,
            lhs2 - 2.0 * self.theta,
            self.theta - self.eps * self.T,
        )


def _float_range_failure(params: EquationParams) -> SearchFailed:
    return SearchFailed(f"first-order constants for p={params.p}, A={params.A} leave the "
                        f"float range (p' = {params.p_prime:g})")


def _c_p(params: EquationParams) -> float:
    """c_p = (p-1) p^{-p'}; SearchFailed naming p and A when p' rounds to 1."""
    try:
        return legendre_closed(params.p, 1.0).c_p
    except SearchFailed:
        raise _float_range_failure(params) from None


def _first_order_costs(params: EquationParams, T: float) -> tuple[float, float]:
    """The left sides c_p (T-1)^{1-p'} A^{p'-1} 3^{p'} and c_p T^{1-p'} A^{p'-1}
    of the first two inequalities; SearchFailed when they leave the float range."""
    A, pp = params.A, params.p_prime
    c_p = _c_p(params)
    try:
        return (c_p * (T - 1.0) ** (1.0 - pp) * A ** (pp - 1.0) * 3.0**pp,
                c_p * T ** (1.0 - pp) * A ** (pp - 1.0))
    except OverflowError:
        raise _float_range_failure(params) from None


def first_order_constants(params: EquationParams) -> FirstOrderConstants:
    """Solve the system in the proof's order: T = 2^k for the least k >= 1 that
    puts the left side of the first inequality below 1, theta the largest value
    the first two inequalities allow, then eps = theta/(2T).

    Since 1 - p' = -1/(p-1), the first inequality holds iff T - 1 > K^{p-1}
    with K = c_p A^{p'-1} 3^{p'}; k is worked out from log2 of that bound and
    confirmed on the computed cost, which rounding may move by one step.  A T
    beyond the float range, or a theta or eps that underflows to 0, raises
    SearchFailed.
    """
    p, A, pp = params.p, params.A, params.p_prime
    c_p = _c_p(params)
    log2_bound = (p - 1.0) * (math.log2(c_p) + (pp - 1.0) * math.log2(A) + pp * math.log2(3.0))
    try:  # k is the least integer above log2(1 + K^{p-1}); k and 2.0**k can overflow
        k = max(1, math.floor(np.logaddexp2(0.0, log2_bound)) + 1)
        T = 2.0**k
        if _first_order_costs(params, T)[0] >= 1.0:
            T = 2.0 ** (k + 1)
        elif k > 1 and _first_order_costs(params, T / 2.0)[0] < 1.0:
            T /= 2.0
    except OverflowError:
        raise _float_range_failure(params) from None
    lhs1, lhs2 = _first_order_costs(params, T)
    theta = min((1.0 - lhs1) / 4.0, lhs2 / 2.0)
    eps = theta / (2.0 * T)
    if not eps > 0.0:  # A^{p'-1} T^{1-p'} or theta / 2T underflowed to 0
        raise _float_range_failure(params)
    try:  # rounding can leave a computed margin below 0: a failed verification
        return FirstOrderConstants(T, theta, eps, params)
    except DomainError as exc:
        raise SearchFailed(str(exc)) from None


# ---------------------------------------------------------------------------
# Two-case oscillation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoCaseReport:
    """Which half of the improvement lemma applied and whether it verified."""

    case: int
    passed: bool
    threshold: float
    witness_value: float
    witness_x: tuple
    witness_t: float
    margin: float
    bottom_min: float
    n_bottom_nodes: int


def two_case_oscillation_check(
    u: GridFunction,
    params: EquationParams,
    R: float,
    r: float,
    theta: float,
    center=None,
) -> TwoCaseReport:
    """Classify and verify the two-case improvement of oscillation on a grid.

    Case 1 (some bottom value in B_R is <= theta): verify u <= 1 - theta on
    B_R x [1/2, 1].  Case 2 (all bottom values >= theta): verify u >= theta/2
    on B_{R/2} x [1/2, 1].  u must already carry values in [0, 1] over the
    covering region B_{R+r} x [0, 1], up to RANGE_TOL (shift_normalize first
    if needed).
    """
    d = u.dim
    center = np.zeros(d) if center is None else np.atleast_1d(np.asarray(center, float))
    cover_box, cover = u.region_box(center, R + r, 0.0, 1.0)
    if not cover.any():
        raise EmptyIntersection("covering cylinder misses the grid")
    covered = u.values[cover_box][cover]
    if covered.min() < -RANGE_TOL or covered.max() > 1.0 + RANGE_TOL:
        raise DomainError(
            f"values must lie in [0,1] on the covering cylinder; got "
            f"[{covered.min():g}, {covered.max():g}]"
        )

    ts = u.times()
    i_bottom = int(np.argmin(np.abs(ts)))
    if abs(ts[i_bottom]) > 0.5 * u.spacing_t + 1e-12:
        raise DomainError("grid has no time slice near t = 0")
    bottom_box, bottom_mask = u.ball_box(center, R)
    if not bottom_mask.any():
        raise EmptyIntersection("B_R misses the spatial grid")
    bottom_vals = u.values[..., i_bottom][bottom_box][bottom_mask]
    bottom_min = float(bottom_vals.min())

    # case 1 bounds the maximum on B_R from above, case 2 the minimum on
    # B_{R/2} from below: sign = -1 turns case 2 into the form of case 1
    case1 = bottom_min <= theta
    radius, threshold, sign = (R, 1.0 - theta, 1.0) if case1 else (R / 2.0, theta / 2.0, -1.0)
    region_box, region = u.region_box(center, radius, 0.5, 1.0)
    if not region.any():
        raise EmptyIntersection("conclusion region misses the grid")
    # within the box, whose C order is the grid's, the first extreme node is the grid's
    vals = np.where(region, sign * u.values[region_box], np.nan)
    idx = np.unravel_index(int(np.nanargmax(vals)), vals.shape)
    witness = sign * float(vals[idx])
    passed = sign * witness <= sign * threshold + 1e-12
    margin = sign * (threshold - witness)
    wx = tuple(float(u.axis_coords(i)[region_box[i].start + idx[i]]) for i in range(d))
    wt = float(ts[region_box[-1].start + idx[-1]])
    return TwoCaseReport(
        case=1 if case1 else 2,
        passed=bool(passed),
        threshold=float(threshold),
        witness_value=witness,
        witness_x=wx,
        witness_t=wt,
        margin=float(margin),
        bottom_min=bottom_min,
        n_bottom_nodes=int(bottom_mask.sum()),
    )
