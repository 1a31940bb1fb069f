"""Closed-form references the numerical results are judged against.

Hydrogen levels and radial functions, for every (n, l), come straight
from the Coulomb bound-state formulas.  The linear potential reduces to
the Airy equation, so its S-wave spectrum is built on the negative zeros
of Ai(x), tabulated below (DLMF 9.9); checking Ai at them tests airy_ai,
a self-contained evaluator of a float or an array: one power-series pass
over every |x| <= 8 entry, asymptotic expansions per point to |x| <= 20.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import LINEAR_LAMBDA, LINEAR_MU, ProblemSpec, _is_count

_AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)        # Ai(0)
_AIP_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)    # Ai'(0)
_SERIES_LIMIT = 8.0
_DOMAIN_LIMIT = 20.0
# a_1..a_10, the zeros of Ai by increasing |x| (DLMF 9.9), correctly rounded
_AIRY_ZEROS = np.array([
    -2.338107410459767, -4.08794944413097, -5.520559828095551,
    -6.786708090071759, -7.944133587120853, -9.02265085334098,
    -10.040174341558085, -11.008524303733262, -11.936015563236262,
    -12.828776752865757])
_AIRY_ZEROS.setflags(write=False)
MAX_AIRY_ZEROS = len(_AIRY_ZEROS)


def hydrogen_energy(n: int, l: int, spec: ProblemSpec | None = None) -> float:
    """Coulomb level -e^2/(2*a0*N^2), N = n + l; n counts nodes + 1, not the
    principal quantum number, so (n, l) pairs with equal n+l are degenerate.
    spec must be the Coulomb (n, l) state; without one, e^2 and a0 are
    ProblemSpec.coulomb(n, l)'s, whose construction checks n and l."""
    spec = spec or ProblemSpec.coulomb(n, l)
    if spec != ProblemSpec.coulomb(n, l, spec.mu, spec.coupling):
        raise ValueError(f"spec is not the Coulomb ({n}, {l}) state")
    level = -spec.coupling / (2.0 * spec.a0 * (n + l) ** 2)
    if not math.isfinite(level):
        raise ValueError(f"the Coulomb ({n}, {l}) level overflows double precision")
    return level


def hydrogen_radial(n: int, l: int, z) -> float:
    """Reduced radial function u(z) = z*R(z), z in Bohr radii, unnormalised,
    in hydrogen_energy's (n, l): u = z^(l+1) e^(-z/N) L_(n-1)^(2l+1)(2z/N)."""
    ProblemSpec.coulomb(n, l)                     # checks n and l
    zv = np.asarray(z, dtype=float)
    if not ((zv >= 0.0) & (zv < np.inf)).all():
        raise ValueError("z must be nonnegative and finite")
    principal = n + l
    alpha = 2 * l + 1
    with np.errstate(over="ignore", invalid="ignore"):    # refused below
        x = 2.0 * zv / principal
        lag_prev, lag = 0.0, 1.0                  # L_(-1) and L_0
        for k in range(n - 1):                    # three-term recurrence
            lag_prev, lag = lag, ((2 * k + 1 + alpha - x) * lag
                                  - (k + alpha) * lag_prev) / (k + 1)
        u = zv ** (l + 1) * np.exp(-zv / principal) * lag
    if not np.isfinite(u).all():
        raise ValueError(f"u(z) of Coulomb ({n}, {l}) overflows double precision")
    return float(u) if u.ndim == 0 else u


def _ai_series(x):
    """Maclaurin pair Ai = Ai(0)*f + Ai'(0)*g, safe up to |x| ~ 8, of a float
    or an array; each entry stops at its own last term, as it would alone."""
    xv = np.asarray(x, dtype=float)
    x3 = xv * xv * xv
    f_term, g_term = np.ones_like(xv), xv.copy()
    f_sum, g_sum = f_term.copy(), g_term.copy()
    live = np.ones(xv.shape, dtype=bool)
    for k in range(1, 400):
        np.multiply(f_term, x3 / ((3 * k - 1) * (3 * k)), out=f_term, where=live)
        np.multiply(g_term, x3 / ((3 * k) * (3 * k + 1)), out=g_term, where=live)
        np.add(f_sum, f_term, out=f_sum, where=live)
        np.add(g_sum, g_term, out=g_sum, where=live)
        live &= ~(abs(f_term) + abs(g_term) < 1e-17 * (1.0 + abs(f_sum) + abs(g_sum)))
        if not live.any():
            break
    ai = _AI_ZERO * f_sum + _AIP_ZERO * g_sum
    return float(ai) if ai.ndim == 0 else ai


def _asymptotic_terms(zeta: float):
    """Terms u_k/zeta^k of the large-|x| expansion, truncated at the
    smallest term (the series is asymptotic, not convergent)."""
    terms = [1.0]
    term = 1.0
    for k in range(1, 60):
        term *= (3 * k - 2.5) * (3 * k - 1.5) * (3 * k - 0.5) / (54.0 * k * (k - 0.5) * zeta)
        if abs(term) >= abs(terms[-1]):
            break
        terms.append(term)
        if abs(term) < 1e-18:
            break
    return terms


def _ai_asymptotic(x: float) -> float:
    if x > 0.0:
        zeta = 2.0 / 3.0 * x ** 1.5
        total = 0.0
        for k, t in enumerate(_asymptotic_terms(zeta)):
            total += t if k % 2 == 0 else -t
        return math.exp(-zeta) * total / (2.0 * math.sqrt(math.pi) * x ** 0.25)
    t = -x
    zeta = 2.0 / 3.0 * t ** 1.5
    even = odd = 0.0
    for k, term in enumerate(_asymptotic_terms(zeta)):
        sign = 1.0 if (k // 2) % 2 == 0 else -1.0
        if k % 2 == 0:
            even += sign * term
        else:
            odd += sign * term
    phase = zeta + 0.25 * math.pi
    return (math.sin(phase) * even - math.cos(phase) * odd) / (
        math.sqrt(math.pi) * t ** 0.25)


def airy_ai(x):
    """Ai(x) of a float or an array on |x| <= 20: one _ai_series call for every
    |x| <= 8 entry, _ai_asymptotic for each of the rest.  A float gives a float."""
    xv = np.asarray(x, dtype=float)
    if (bad := xv[~(np.abs(xv) <= _DOMAIN_LIMIT)]).size:     # NaN is bad too
        raise ValueError(f"|x| <= {_DOMAIN_LIMIT} required, got {bad[0]}")
    series = np.abs(xv) <= _SERIES_LIMIT
    out = np.empty_like(xv)
    out[series] = _ai_series(xv[series])
    out[~series] = [_ai_asymptotic(t) for t in xv[~series].tolist()]
    return float(out) if out.ndim == 0 else out


def airy_zero_table(count: int = MAX_AIRY_ZEROS) -> np.ndarray:
    """First `count` negative zeros of Ai by increasing |x|, read-only."""
    if not _is_count(count) or not 1 <= count <= MAX_AIRY_ZEROS:
        raise ValueError(f"count must be an integer in 1..{MAX_AIRY_ZEROS}")
    return _AIRY_ZEROS[:count]


def airy_zero(order: int) -> float:
    """order-th negative zero of Ai (order = 1 is the smallest |x|)."""
    if not _is_count(order) or not 1 <= order <= MAX_AIRY_ZEROS:
        raise ValueError(f"order must be an integer in 1..{MAX_AIRY_ZEROS}")
    return float(airy_zero_table(MAX_AIRY_ZEROS)[order - 1])


def linear_energy(n: int, lam: float = LINEAR_LAMBDA, mu: float = LINEAR_MU) -> float:
    """S-wave level of V = lam*r:  E_n = -x_n * (lam^2/(2*mu))^(1/3)."""
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf):
        raise ValueError("lam and mu must be positive and finite")
    scale = (lam * lam / (2.0 * mu)) ** (1.0 / 3.0)
    if not 0.0 < scale < math.inf:
        raise ValueError("energy scale (lam^2/(2*mu))^(1/3) must be positive and finite")
    return -airy_zero(n) * scale


def linear_radial(n: int, r, lam: float = LINEAR_LAMBDA, mu: float = LINEAR_MU):
    """Reduced S-wave eigenfunction u(r) = Ai(x_n*(1 - lam*r/E_n)).

    With E_n from linear_energy this is Ai((2*mu/lam^2)^(1/3)*(lam*r - E_n)),
    and nothing divides by lam^2.  Past x = 20 u is far below double-precision
    visibility, so it is clamped to zero there; every other point goes
    through one airy_ai call.  A float r gives a float.
    """
    energy = linear_energy(n, lam, mu)
    rv = np.asarray(r, dtype=float)
    if not ((rv >= 0.0) & (rv < np.inf)).all():
        raise ValueError("r must be nonnegative and finite")
    with np.errstate(over="ignore"):                  # an infinite x is past the clamp
        arg = airy_zero(n) * (1.0 - lam * rv / energy)
    past = arg > _DOMAIN_LIMIT
    u = np.where(past, 0.0, airy_ai(np.where(past, 0.0, arg)))
    return float(u) if u.ndim == 0 else u
