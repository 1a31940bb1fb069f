"""Closed-form reference values: Coulomb levels, radial forms, Airy machinery.

The Airy evaluator is the one piece of real numerics here, so it gets
an independent cross-check against scipy.special.airy on top of the
frozen-value and self-consistency tests; the tabulated zeros are
checked against scipy.special.ai_zeros.
"""

import math

import numpy as np
import pytest
import scipy.special

from relaxbound import (LINEAR_LAMBDA, ProblemSpec, airy_ai, airy_zero,
                        hydrogen_energy, hydrogen_radial, linear_energy, linear_radial)
from relaxbound.oracles import (MAX_AIRY_ZEROS, _ai_asymptotic, _ai_series,
                                airy_zero_table)

from conftest import reference_ai_series

# ---------------------------------------------------------------- levels --


@pytest.mark.parametrize("n, l, ev", [
    (1, 0, -13.598289),
    (2, 0, -3.399572),
    (2, 1, -1.510921),
])
def test_hydrogen_levels_frozen(n, l, ev):
    assert hydrogen_energy(n, l) == pytest.approx(ev, rel=1e-5)


def test_hydrogen_degeneracy_is_exact():
    # same (n+l) means the same float expression, so equality is bitwise
    assert hydrogen_energy(2, 1) == hydrogen_energy(3, 0)
    assert hydrogen_energy(1, 1) == hydrogen_energy(2, 0)


def test_hydrogen_energy_scales_with_coupling_squared():
    weak = ProblemSpec.coulomb(1, 0)
    strong = ProblemSpec.coulomb(1, 0, coupling=2.0 * weak.coupling)
    assert hydrogen_energy(1, 0, strong) == pytest.approx(
        4.0 * hydrogen_energy(1, 0, weak), rel=1e-14)


@pytest.mark.parametrize("n, l", [(0, 0), (1, -1)])
def test_hydrogen_energy_rejects_bad_quantum_numbers(n, l):
    with pytest.raises(ValueError):
        hydrogen_energy(n, l)


@pytest.mark.parametrize("n, l", [(1, 0), (3, 2)])
def test_hydrogen_energy_refuses_a_level_double_precision_cannot_hold(n, l):
    # a0 = 1/(mu*e^2) = 1e-200 passes the spec's check, but
    # -e^2/(2*a0*N^2) = -1e500/N^2 overflows
    spec = ProblemSpec.coulomb(n, l, mu=1e-100, coupling=1e300)
    with pytest.raises(ValueError, match="overflows"):
        hydrogen_energy(n, l, spec)


# --------------------------------------------------------- radial forms --


def test_radial_forms_at_fixed_points():
    assert hydrogen_radial(1, 0, 0.0) == 0.0
    assert hydrogen_radial(1, 0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert hydrogen_radial(2, 0, 2.0) == 0.0       # 2s node: L_1^1(z) = 2 - z
    assert hydrogen_radial(2, 1, 6.0) == 0.0       # 3p node: L_1^3(2z/3) = 4 - 2z/3
    assert hydrogen_radial(1, 1, 2.0) == pytest.approx(4.0 * math.exp(-1.0), rel=1e-14)


def test_radial_ground_state_peaks_at_one_bohr_radius():
    lo, hi = 0.0, 5.0
    for _ in range(200):                 # ternary search on the unimodal peak
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if hydrogen_radial(1, 0, m1) < hydrogen_radial(1, 0, m2):
            lo = m1
        else:
            hi = m2
    assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=1e-6)


def test_radial_forms_are_elementwise():
    z = np.array([0.0, 1.0, 2.0, 3.0])
    u = hydrogen_radial(1, 0, z)
    assert u.shape == z.shape
    assert u[0] == 0.0


def test_radial_rejects_unsupported_state():
    for n, l in [(0, 0), (1, -1)]:
        with pytest.raises(ValueError):
            hydrogen_radial(n, l, 1.0)


def test_radial_rejects_negative_z():
    for bad in (-0.5, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError):
            hydrogen_radial(1, 0, bad)


def test_radial_refuses_a_curve_double_precision_cannot_hold():
    # z^(l+1) overflows: 99^201 is about 1e401
    with pytest.raises(ValueError, match="overflows"):
        hydrogen_radial(1, 200, np.linspace(0.0, 99.0, 12))


def _radial_ode_residual(n, l, z, u_fn, energy):
    """Residual of u'' = (l(l+1)/z^2 - 2*mu*a0^2*E - 2/z) u at z, with the
    second derivative taken by central differences (step small enough to
    leave residuals well under the tolerance for true eigenfunctions)."""
    h = 1e-4
    d2 = (u_fn(z + h) - 2.0 * u_fn(z) + u_fn(z - h)) / (h * h)
    spec = ProblemSpec.coulomb(1, 0)
    coeff = l * (l + 1) / z**2 - 2.0 * spec.mu * spec.a0**2 * energy - 2.0 / z
    return d2 - coeff * u_fn(z)


@pytest.mark.parametrize("n, l", [(1, 0), (2, 0), (2, 1), (1, 1), (3, 0), (1, 2),
                                  (3, 2)])
def test_radial_forms_satisfy_the_ode(n, l):
    energy = hydrogen_energy(n, l)
    for z in (0.5, 1.0, 2.0, 3.5, 6.0):
        u = hydrogen_radial(n, l, z)
        res = _radial_ode_residual(n, l, z, lambda zz: hydrogen_radial(n, l, zz),
                                   energy)
        assert abs(res) <= 1e-6 * max(1.0, abs(u))


# ------------------------------------------------------------------ Airy --


def test_airy_at_zero_is_exact():
    assert airy_ai(0.0) == pytest.approx(0.3550280538878172, abs=1e-15)


def test_airy_matches_scipy_across_the_domain():
    # worst case is the exponentially small tail right at the series side of
    # the branch switch (x = 8), where cancellation leaves ~2e-10 absolute
    xs = np.linspace(-20.0, 20.0, 801)
    for x in xs:
        ref = scipy.special.airy(x)[0]
        assert airy_ai(float(x)) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_airy_positive_tail_decays_monotonically():
    xs = np.linspace(2.0, 20.0, 50)
    vals = [airy_ai(float(x)) for x in xs]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_airy_series_and_asymptotics_agree_on_the_overlap_band():
    # evaluation switches branch at |x| = 8; both must agree around it
    for x in np.concatenate([np.linspace(7.6, 8.4, 17),
                             np.linspace(-8.4, -7.6, 17)]):
        assert _ai_series(float(x)) == pytest.approx(
            _ai_asymptotic(np.array([x]))[0], abs=1e-9)


def test_airy_series_on_an_array_keeps_every_scalar_bit():
    # each entry stops at its own last term, as the one-point loop does
    rng = np.random.default_rng(23)
    xs = np.concatenate([[0.0, -0.0, 8.0, -8.0, 5e-324, -1e-310],
                         rng.uniform(-1e-3, 1e-3, 200), np.linspace(-8.0, 8.0, 1601),
                         rng.uniform(-8.0, 8.0, 1000)])
    want = np.array([reference_ai_series(float(x)) for x in xs])
    assert _ai_series(xs).tobytes() == want.tobytes()
    grid = _ai_series(xs[:12].reshape(3, 4))
    assert grid.shape == (3, 4) and grid.tobytes() == want[:12].tobytes()
    for x in (0.0, -8.0, 0.5):
        assert type(_ai_series(x)) is float and _ai_series(x) == reference_ai_series(x)
        assert type(airy_ai(x)) is float and airy_ai(x) == reference_ai_series(x)


@pytest.mark.parametrize("x", [20.5, -25.0, float("nan")])
def test_airy_rejects_out_of_domain(x):
    with pytest.raises(ValueError):
        airy_ai(x)


def _one_point_ai(x):
    # the series for |x| <= 8, the asymptotic expansion beyond, one point at a
    # time; beyond, a one-element array, as numpy's exp and sin on a float may
    # differ in the last bit from its array kernels
    if abs(x) <= 8.0:
        return reference_ai_series(x)
    return float(_ai_asymptotic(np.array([x]))[0])


def test_airy_on_an_array_keeps_the_bits_of_each_branch():
    edges = [8.0, -8.0, 20.0, -20.0, 0.0, -0.0, math.nextafter(8.0, 9.0),
             math.nextafter(8.0, 7.0), math.nextafter(-8.0, -9.0), math.nextafter(-8.0, -7.0)]
    xs = np.concatenate([edges, np.linspace(-20.0, 20.0, 4001)])
    want = np.array([_one_point_ai(x) for x in xs.tolist()])
    assert airy_ai(xs).tobytes() == want.tobytes()
    assert airy_ai(xs[:12].reshape(3, 4)).tobytes() == want[:12].tobytes()
    assert airy_ai(xs[:12].reshape(3, 4)).shape == (3, 4)
    for x in edges:
        got = airy_ai(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_one_point_ai(x)).tobytes()
        assert type(airy_ai(np.array(x))) is float and airy_ai(np.array(x)) == got
    for shape in ((0,), (2, 0)):
        empty = airy_ai(np.zeros(shape))
        assert isinstance(empty, np.ndarray) and empty.shape == shape


@pytest.mark.parametrize("bad", [20.5, -20.5, float("nan")])
def test_airy_refuses_an_array_with_one_entry_out_of_domain(bad):
    xs = np.linspace(-3.0, 3.0, 7)
    xs[4] = bad
    with pytest.raises(ValueError, match=f"got {bad}$"):   # the entry, not the array
        airy_ai(xs)


@pytest.mark.parametrize("x_lo, x_hi, tol", [
    (-4.0, 2.0, 1e-5),
    # deeper into the oscillatory region cancellation noise in the series,
    # amplified by 1/h^2, dominates; the band stops short of -8 so the
    # stencil never straddles the series/asymptotic switch
    (-7.9, -4.0, 3e-5),
])
def test_airy_satisfies_its_ode_by_finite_differences(x_lo, x_hi, tol):
    h = 2e-3
    for x in np.linspace(x_lo, x_hi, 61):
        x = float(x)
        d2 = (airy_ai(x + h) - 2.0 * airy_ai(x) + airy_ai(x - h)) / (h * h)
        assert abs(d2 - x * airy_ai(x)) <= tol


def test_airy_zeros_frozen_values():
    assert airy_zero(1) == pytest.approx(-2.338107410459767, abs=1e-9)
    assert airy_zero(2) == pytest.approx(-4.087949444130972, abs=1e-9)
    assert airy_zero(10) == pytest.approx(-12.828776752865762, abs=1e-9)


def test_airy_zeros_have_small_residual_and_a_sign_change():
    for order in range(1, MAX_AIRY_ZEROS + 1):
        z = airy_zero(order)
        assert abs(airy_ai(z)) < 1e-10
        assert airy_ai(z - 1e-6) * airy_ai(z + 1e-6) < 0.0


def test_airy_zeros_interlace():
    zeros = [airy_zero(order) for order in range(1, MAX_AIRY_ZEROS + 1)]
    assert all(b < a for a, b in zip(zeros, zeros[1:]))
    assert all(z < 0.0 for z in zeros)


def test_airy_zero_table_shape():
    table = airy_zero_table(4)
    assert len(table) == 4
    assert table[0] == airy_zero(1)
    assert len(airy_zero_table()) == MAX_AIRY_ZEROS
    assert table.tobytes() == airy_zero_table()[:4].tobytes()


def test_airy_zero_table_matches_scipy():
    # scipy finds its zeros independently; its own a_5 is 1.0e-12 off
    expect = scipy.special.ai_zeros(MAX_AIRY_ZEROS)[0]
    np.testing.assert_allclose(airy_zero_table(), expect, rtol=2e-12, atol=0.0)


def test_airy_zero_table_is_read_only():
    table = airy_zero_table(4)
    with pytest.raises(ValueError):
        table[0] = 0.0
    assert airy_zero(1) == table[0]


@pytest.mark.parametrize("order", [0, 11, -3])
def test_airy_zero_rejects_out_of_range(order):
    with pytest.raises(ValueError):
        airy_zero(order)


# a count is a Python or numpy integer, never a bool or a float
NOT_COUNTS = [
    pytest.param(lambda: hydrogen_energy(1.5, 0), id="hydrogen_energy-1.5"),
    pytest.param(lambda: hydrogen_energy(True, 0), id="hydrogen_energy-True"),
    pytest.param(lambda: hydrogen_energy(1, 0.0), id="hydrogen_energy-l-0.0"),
    pytest.param(lambda: hydrogen_energy(True, 0, ProblemSpec.coulomb(1, 0)),
                 id="hydrogen_energy-True-with-spec"),
    pytest.param(lambda: hydrogen_radial(1.0, 0, 0.5), id="hydrogen_radial-1.0"),
    pytest.param(lambda: hydrogen_radial(1, False, 0.5), id="hydrogen_radial-l-False"),
    pytest.param(lambda: airy_zero(True), id="airy_zero-True"),
    pytest.param(lambda: airy_zero(1.0), id="airy_zero-1.0"),
    pytest.param(lambda: airy_zero_table(4.0), id="airy_zero_table-4.0"),
    pytest.param(lambda: airy_zero_table(True), id="airy_zero_table-True"),
    pytest.param(lambda: linear_energy(1.5), id="linear_energy-1.5"),
    pytest.param(lambda: linear_radial(1.5, 0.5), id="linear_radial-1.5"),
]


@pytest.mark.parametrize("call", NOT_COUNTS)
def test_counts_must_be_integers(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_numpy_integer_counts_are_accepted():
    assert hydrogen_energy(np.int64(2), np.int32(1)) == hydrogen_energy(2, 1)
    assert hydrogen_radial(np.int64(2), np.int8(0), 0.5) == hydrogen_radial(2, 0, 0.5)
    assert airy_zero(np.int64(3)) == airy_zero(3)
    assert airy_zero_table(np.int32(4)).tobytes() == airy_zero_table(4).tobytes()
    assert linear_energy(np.int64(2)) == linear_energy(2)


@pytest.mark.parametrize("spec", [
    ProblemSpec.coulomb(1, 0),
    ProblemSpec.coulomb(2, 1, coupling=2.0, mu=0.5),
    ProblemSpec.linear(2, 0),
], ids=["coulomb-1-0", "coulomb-2-1-constants", "linear-2-0"])
def test_hydrogen_energy_rejects_a_spec_of_another_state(spec):
    # asks for (2, 0); only the Coulomb (2, 0) spec may answer
    with pytest.raises(ValueError, match="not the Coulomb"):
        hydrogen_energy(2, 0, spec)


def test_hydrogen_energy_defaults_to_the_hydrogen_spec():
    for n, l in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        assert hydrogen_energy(n, l) == hydrogen_energy(n, l, ProblemSpec.coulomb(n, l))


# --------------------------------------------------------- linear levels --


def test_linear_levels_frozen():
    assert linear_energy(1) == pytest.approx(5.972379208615, rel=1e-12)
    assert linear_energy(2) == pytest.approx(10.442114060618, rel=1e-12)
    # values quoted to fewer digits by the reference comparisons
    assert linear_energy(1) == pytest.approx(5.972379, rel=1e-5)
    assert linear_energy(2) == pytest.approx(10.442114, rel=1e-5)


def test_linear_level_coefficient():
    coeff = (5.0**2 / (2.0 * 0.75)) ** (1.0 / 3.0)
    assert coeff == pytest.approx(2.554364772, rel=1e-8)
    assert linear_energy(1) == pytest.approx(-airy_zero(1) * coeff, rel=1e-14)


def test_linear_energy_rejects_bad_parameters():
    with pytest.raises(ValueError):
        linear_energy(1, lam=0.0)
    with pytest.raises(ValueError):
        linear_energy(1, mu=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            linear_energy(1, lam=bad)
        with pytest.raises(ValueError):
            linear_energy(1, mu=bad)
    # finite, but the energy scale (lam^2/(2*mu))^(1/3) overflows or underflows
    for params in ({"lam": 1e200}, {"lam": 1e-200}, {"mu": 1e-320}):
        with pytest.raises(ValueError, match="energy scale"):
            linear_energy(1, **params)


# ------------------------------------------------------- linear S states --


def test_linear_radial_vanishes_at_origin():
    # u(0) = Ai(-scaled E) = Ai(x_n) which is a zero by construction
    assert abs(linear_radial(1, 0.0)) < 1e-10


def test_linear_radial_clamps_the_far_tail_to_zero():
    assert linear_radial(1, 100.0) == 0.0


def test_linear_radial_at_the_largest_radii_is_zero_without_a_warning():
    # lam*r overflows to inf; the Airy argument then lies past the clamp
    assert linear_radial(1, 1e308) == 0.0
    assert type(linear_radial(1, 1e308)) is float
    u = linear_radial(2, np.array([0.0, 1e308, np.finfo(float).max]))
    assert u[0] == linear_radial(2, 0.0) and u[1] == u[2] == 0.0


def test_linear_radial_preserves_shape():
    r = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    u = linear_radial(1, r)
    assert u.shape == r.shape


def test_linear_radial_second_state_has_one_interior_node():
    r = np.linspace(1e-3, 6.0, 2000)
    u = linear_radial(2, r)
    flips = np.sum(np.sign(u[:-1]) * np.sign(u[1:]) < 0)
    assert flips == 1


def test_linear_radial_peaks_inside_the_classical_region():
    r = np.linspace(0.0, 3.0, 3001)
    u = linear_radial(1, r)
    r_peak = r[np.argmax(np.abs(u))]
    assert 0.5 < r_peak < 0.9           # turning point sits at E/lambda = 1.19
    assert r_peak < linear_energy(1) / 5.0


@pytest.mark.parametrize("n", [1, 2, 10])
def test_linear_radial_keeps_the_bits_of_one_point_at_a_time(n):
    # radii whose Airy argument x = x_n*(1 - lam*r/E_n) runs from x_n
    # across the series limit |x| = 8 and past the clamp at x = 20
    energy, zero = linear_energy(n), airy_zero(n)
    r_max = energy / LINEAR_LAMBDA * (1.0 - 24.0 / zero)
    r = np.concatenate([np.linspace(0.0, r_max, 3001),
                        energy / LINEAR_LAMBDA * (1.0 - np.array([-8.0, 8.0, 20.0]) / zero)])
    r = r[r >= 0.0]
    arg = zero * (1.0 - LINEAR_LAMBDA * r / energy)
    assert arg.min() < (-8.0 if n == 10 else 8.0) and arg.max() > 20.0
    want = [0.0 if a > 20.0 else reference_ai_series(a) if abs(a) <= 8.0 else airy_ai(a)
            for a in arg.tolist()]
    assert linear_radial(n, r).tobytes() == np.array(want).tobytes()
    assert type(linear_radial(n, 0.5)) is float
    assert linear_radial(n, 0.5) == linear_radial(n, np.array([0.5]))[0]


def test_linear_radial_rejects_negative_radius():
    with pytest.raises(ValueError):
        linear_radial(1, -0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            linear_radial(1, bad)
    # linear_energy's checks refuse lam, mu and the energy scale the
    # Airy argument is built from
    for lam in (0.0, 1e-200):
        with pytest.raises(ValueError):
            linear_radial(1, 1.0, lam=lam)
