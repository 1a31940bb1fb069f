"""Coordinate maps, meshes, and the value types they feed."""

import math

import numpy as np
import pytest

from relaxbound import (HYDROGEN_E2, HYDROGEN_MU, LINEAR_LAMBDA, LINEAR_MU,
                        Mesh, Potential, ProblemSpec, RelaxConfig,
                        SolutionGrid, map_x_to_z, map_z_to_x)


@pytest.mark.parametrize("x, z", [(0.0, 0.0), (0.5, 1.0), (0.9, 9.0)])
def test_map_x_to_z_known_points(x, z):
    assert map_x_to_z(x) == pytest.approx(z, abs=1e-14)


@pytest.mark.parametrize("z, x", [(0.0, 0.0), (1.0, 0.5), (9.0, 0.9)])
def test_map_z_to_x_known_points(z, x):
    assert map_z_to_x(z) == pytest.approx(x, abs=1e-14)


def test_maps_round_trip_densely():
    x = np.linspace(0.0, 0.99, 991)
    back = map_z_to_x(map_x_to_z(x))
    assert np.max(np.abs(back - x)) <= 1e-14


def test_maps_are_elementwise_on_arrays():
    x = np.array([[0.0, 0.25], [0.5, 0.75]])
    z = map_x_to_z(x)
    assert z.shape == x.shape
    assert z[1, 0] == 1.0


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_map_x_to_z_rejects_outside_domain(bad):
    with pytest.raises(ValueError):
        map_x_to_z(bad)


def test_map_z_to_x_rejects_negative():
    with pytest.raises(ValueError):
        map_z_to_x(-1e-12)


@pytest.mark.parametrize("m", [3, 41, 101, 1000, 10001])
def test_uniform_mesh_coordinates_are_exact(m):
    mesh = Mesh.uniform(m)
    k = np.arange(m)
    # per-point construction, not accumulation: equality must be exact
    assert np.array_equal(mesh.x, k / (m - 1))
    assert mesh.x[0] == 0.0
    assert mesh.x[-1] == 1.0
    assert mesh.h == 1.0 / (m - 1)


def test_uniform_mesh_is_strictly_increasing():
    mesh = Mesh.uniform(57)
    assert np.all(np.diff(mesh.x) > 0.0)


def test_mesh_rejects_too_few_points():
    with pytest.raises(ValueError):
        Mesh.uniform(2)


def test_mesh_validates_direct_construction():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Mesh(m=4, h=0.25, x=x)          # wrong point count
    with pytest.raises(ValueError):
        Mesh(m=5, h=0.25, x=x * 0.5)    # does not reach 1
    bad = x.copy()
    bad[2] = bad[1]
    with pytest.raises(ValueError):
        Mesh(m=5, h=0.25, x=bad)        # not strictly increasing


def test_mesh_coordinates_are_read_only():
    mesh = Mesh.uniform(11)
    with pytest.raises(ValueError):
        mesh.x[0] = 0.5


def test_solution_grid_copies_and_freezes():
    src = np.zeros((3, 4))
    grid = SolutionGrid(src)
    src[0, 0] = 99.0
    assert grid.y[0, 0] == 0.0
    with pytest.raises(ValueError):
        grid.y[0, 0] = 1.0


def test_solution_grid_properties():
    y = np.arange(12.0).reshape(3, 4)
    grid = SolutionGrid(y)
    assert grid.m == 4
    assert np.array_equal(grid.wavefunction, y[0])
    assert np.array_equal(grid.derivative, y[1])
    assert grid.energy == y[2, 0]


@pytest.mark.parametrize("shape", [(2, 4), (4, 4), (3, 1), (3,)])
def test_solution_grid_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        SolutionGrid(np.zeros(shape))


def test_solution_grid_rejects_non_finite():
    y = np.zeros((3, 4))
    y[1, 2] = np.inf
    with pytest.raises(ValueError):
        SolutionGrid(y)


def test_relax_config_defaults_and_normalisation():
    cfg = RelaxConfig()
    assert cfg.itmax == 100
    assert cfg.conv == 1e-5
    assert cfg.slowc == 1.0
    assert cfg.scalv == (1.0, 1.0, 1.0)
    assert RelaxConfig(scalv=[1, 2, 3]).scalv == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("kwargs", [
    {"itmax": 0},
    {"conv": 0.0},
    {"conv": -1e-6},
    {"slowc": 0.0},
    {"scalv": (1.0, 1.0)},
    {"scalv": (1.0, 0.0, 1.0)},
    {"scalv": (1.0, -1.0, 1.0)},
    {"itmax": 2.5},
    {"conv": math.nan},
    {"conv": math.inf},
    {"slowc": math.nan},
    {"slowc": math.inf},
    {"scalv": (1.0, math.nan, 1.0)},
    {"scalv": (1.0, 1.0, math.inf)},
])
def test_relax_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RelaxConfig(**kwargs)


def test_coulomb_spec_defaults():
    spec = ProblemSpec.coulomb(1, 0)
    assert spec.kind is Potential.COULOMB
    assert spec.mu == HYDROGEN_MU
    assert spec.coupling == HYDROGEN_E2
    # Bohr radius 1/(mu*e^2), the scale of the z = r/a0 rescaling
    assert spec.a0 == pytest.approx(2.6831879e-4, rel=1e-6)


def test_linear_spec_defaults():
    spec = ProblemSpec.linear(2, 1)
    assert spec.kind is Potential.LINEAR
    assert spec.mu == LINEAR_MU
    assert spec.coupling == LINEAR_LAMBDA
    assert spec.a0 == 1.0
    assert (spec.n, spec.l) == (2, 1)


def test_coulomb_spec_requires_consistent_a0():
    good = 1.0 / (HYDROGEN_MU * HYDROGEN_E2)
    ProblemSpec(kind=Potential.COULOMB, mu=HYDROGEN_MU, coupling=HYDROGEN_E2,
                a0=good, l=0, n=1)
    with pytest.raises(ValueError):
        ProblemSpec(kind=Potential.COULOMB, mu=HYDROGEN_MU,
                    coupling=HYDROGEN_E2, a0=good * (1.0 + 1e-9), l=0, n=1)


@pytest.mark.parametrize("kwargs", [
    {"mu": 0.0}, {"mu": -1.0}, {"coupling": 0.0},
])
def test_spec_rejects_nonpositive_physics(kwargs):
    base = {"n": 1, "l": 0}
    with pytest.raises(ValueError):
        ProblemSpec.linear(**base, **kwargs)


@pytest.mark.parametrize("field", ["mu", "coupling"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("make", [ProblemSpec.coulomb, ProblemSpec.linear],
                         ids=["coulomb", "linear"])
def test_spec_rejects_nonfinite_physics(make, value, field):
    with pytest.raises(ValueError, match="finite"):
        make(1, 0, **{field: value})


@pytest.mark.parametrize("a0", [math.nan, math.inf])
def test_spec_rejects_nonfinite_a0(a0):
    for kind in Potential:
        with pytest.raises(ValueError):
            ProblemSpec(kind=kind, mu=HYDROGEN_MU, coupling=HYDROGEN_E2,
                        a0=a0, l=0, n=1)


@pytest.mark.parametrize("n, l", [(0, 0), (-1, 0), (1, -1)])
def test_spec_rejects_bad_quantum_numbers(n, l):
    with pytest.raises(ValueError):
        ProblemSpec.linear(n, l)


@pytest.mark.parametrize("n, l", [(1, 0.5), (1.0, 0), (True, 0), (2, False),
                                  (np.float64(2.0), 1)])
@pytest.mark.parametrize("make", [ProblemSpec.coulomb, ProblemSpec.linear],
                         ids=["coulomb", "linear"])
def test_spec_rejects_non_integer_quantum_numbers(make, n, l):
    with pytest.raises(ValueError, match="integers"):
        make(n, l)


def test_spec_takes_numpy_integer_quantum_numbers():
    spec = ProblemSpec.linear(np.int64(2), np.int32(1))
    assert (spec.n, spec.l) == (2, 1)


@pytest.mark.parametrize("itmax", [True, False, 3.0, np.float64(3.0)])
def test_relax_config_rejects_non_integer_itmax(itmax):
    with pytest.raises(ValueError, match="itmax"):
        RelaxConfig(itmax=itmax)


@pytest.mark.parametrize("m", [101.0, True, np.float64(11.0)])
def test_mesh_rejects_non_integer_point_counts(m):
    with pytest.raises(ValueError, match="integer"):
        Mesh.uniform(m)
    with pytest.raises(ValueError, match="integer"):
        Mesh(m=m, h=0.1, x=np.linspace(0.0, 1.0, 11))
