"""Closed-form references the numerical results are judged against.

Hydrogen levels and radial functions, for every (n, l), come straight
from the Coulomb bound-state formulas.  The linear potential reduces to
the Airy equation, so its S-wave spectrum is built on the negative zeros
of Ai(x); the evaluator below is self-contained (power series inside
|x| <= 8, asymptotic expansions out to |x| <= 20).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .grid import LINEAR_LAMBDA, LINEAR_MU, Potential, ProblemSpec, _is_count

_AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)        # Ai(0)
_AIP_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)    # Ai'(0)
_SERIES_LIMIT = 8.0
_DOMAIN_LIMIT = 20.0
MAX_AIRY_ZEROS = 10


def hydrogen_energy(n: int, l: int, spec: ProblemSpec | None = None) -> float:
    """Coulomb level -e^2/(2*a0*N^2), N = n + l; n counts nodes + 1, not the
    principal quantum number, so (n, l) pairs with equal n+l are degenerate.
    spec must be the Coulomb (n, l) state; without one, e^2 and a0 are
    ProblemSpec.coulomb(n, l)'s."""
    if not (_is_count(n) and _is_count(l)) or n < 1 or l < 0:
        raise ValueError("need integers n >= 1 and l >= 0")
    spec = spec or ProblemSpec.coulomb(n, l)
    if spec.kind is not Potential.COULOMB or (spec.n, spec.l) != (n, l):
        raise ValueError(f"spec is not the Coulomb ({n}, {l}) state")
    return -spec.coupling / (2.0 * spec.a0 * (n + l) ** 2)


def hydrogen_radial(n: int, l: int, z) -> float:
    """Reduced radial function u(z) = z*R(z), z in Bohr radii, unnormalised,
    in hydrogen_energy's (n, l): u = z^(l+1) e^(-z/N) L_(n-1)^(2l+1)(2z/N)."""
    if not (_is_count(n) and _is_count(l)) or n < 1 or l < 0:
        raise ValueError("need integers n >= 1 and l >= 0")
    zv = np.asarray(z, dtype=float)
    if np.any(zv < 0.0):
        raise ValueError("z must be nonnegative")
    principal = n + l
    x = 2.0 * zv / principal
    alpha = 2 * l + 1
    lag_prev, lag = 0.0, 1.0                      # L_(-1) and L_0
    for k in range(n - 1):                        # three-term recurrence
        lag_prev, lag = lag, ((2 * k + 1 + alpha - x) * lag
                              - (k + alpha) * lag_prev) / (k + 1)
    u = zv ** (l + 1) * np.exp(-zv / principal) * lag
    return float(u) if u.ndim == 0 else u


def _ai_series(x: float) -> float:
    """Maclaurin pair Ai = Ai(0)*f + Ai'(0)*g; safe up to |x| ~ 8."""
    x3 = x * x * x
    f_term = 1.0
    g_term = x
    f_sum = f_term
    g_sum = g_term
    for k in range(1, 400):
        f_term *= x3 / ((3 * k - 1) * (3 * k))
        g_term *= x3 / ((3 * k) * (3 * k + 1))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) + abs(g_term) < 1e-17 * (1.0 + abs(f_sum) + abs(g_sum)):
            break
    return _AI_ZERO * f_sum + _AIP_ZERO * g_sum


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


def airy_ai(x: float) -> float:
    """Ai(x) on |x| <= 20, series for |x| <= 8 and asymptotics beyond."""
    x = float(x)
    if not abs(x) <= _DOMAIN_LIMIT:
        raise ValueError(f"|x| <= {_DOMAIN_LIMIT} required, got {x}")
    if abs(x) <= _SERIES_LIMIT:
        return _ai_series(x)
    return _ai_asymptotic(x)


def _bisect_zero(lo: float, hi: float) -> float:
    """Bisect airy_ai on [lo, hi]; signs at the ends must differ."""
    flo = airy_ai(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-15 * max(1.0, abs(mid)):
            return mid
        fmid = airy_ai(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@cache
def _airy_zeros() -> np.ndarray:
    """The MAX_AIRY_ZEROS zeros of Ai nearest 0 by sign scan + bisection, read-only."""
    zeros = []
    step = 0.05
    x_hi = -1.0                       # Ai > 0 on (-2.34, 0]
    f_hi = airy_ai(x_hi)
    x = x_hi
    while len(zeros) < MAX_AIRY_ZEROS:
        x -= step
        if x < -13.5:                 # ten zeros all sit above -13
            raise RuntimeError("zero scan ran past the expected range")
        f = airy_ai(x)
        if (f < 0.0) != (f_hi < 0.0):
            zeros.append(_bisect_zero(x, x + step))
        x_hi, f_hi = x, f
    z = np.array(zeros)
    if np.any(z >= 0.0) or np.any(np.diff(z) >= 0.0):
        raise RuntimeError("zeros must be negative and strictly decreasing")
    z.setflags(write=False)
    return z


def airy_zero_table(count: int = MAX_AIRY_ZEROS) -> np.ndarray:
    """First `count` negative zeros of Ai by increasing |x|, read-only."""
    if not _is_count(count) or not 1 <= count <= MAX_AIRY_ZEROS:
        raise ValueError(f"count must be an integer in 1..{MAX_AIRY_ZEROS}")
    return _airy_zeros()[:count]


def airy_zero(order: int) -> float:
    """order-th negative zero of Ai (order = 1 is the smallest |x|)."""
    if not _is_count(order) or not 1 <= order <= MAX_AIRY_ZEROS:
        raise ValueError(f"order must be an integer in 1..{MAX_AIRY_ZEROS}")
    return float(airy_zero_table(MAX_AIRY_ZEROS)[order - 1])


def linear_energy(n: int, lam: float = LINEAR_LAMBDA, mu: float = LINEAR_MU) -> float:
    """S-wave level of V = lam*r:  E_n = -x_n * (lam^2/(2*mu))^(1/3)."""
    if lam <= 0.0 or mu <= 0.0:
        raise ValueError("lam and mu must be positive")
    return -airy_zero(n) * (lam * lam / (2.0 * mu)) ** (1.0 / 3.0)


def linear_radial(n: int, r, lam: float = LINEAR_LAMBDA, mu: float = LINEAR_MU):
    """Reduced S-wave eigenfunction u(r) = Ai((2*mu/lam^2)^(1/3)*(lam*r - E_n)).

    The Airy argument grows linearly with r; beyond the evaluator's
    domain the function is far below double-precision visibility, so it
    is clamped to zero there.
    """
    scale = (2.0 * mu / (lam * lam)) ** (1.0 / 3.0)
    energy = linear_energy(n, lam, mu)
    rv = np.asarray(r, dtype=float)
    if np.any(rv < 0.0):
        raise ValueError("r must be nonnegative")
    arg = scale * (lam * rv - energy)
    out = np.empty_like(arg, dtype=float)
    flat_arg = arg.ravel()
    flat_out = out.ravel()
    for i, a in enumerate(flat_arg):
        flat_out[i] = 0.0 if a > _DOMAIN_LIMIT else airy_ai(a)
    return float(out) if out.ndim == 0 else out
