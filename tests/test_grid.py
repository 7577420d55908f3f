import numpy as np
import pytest
from scipy.integrate import quad

from swlw.grid import (ComplexGridFn, Grid, RealGridFn, d_cubed, d_minus,
                       d_plus, d_zero, dplus_norm_p, inner, l2_diff_p1_p0,
                       laplacian_h, norm_p, sample)


def random_real(grid, rng):
    return RealGridFn(grid, rng.normal(size=grid.J + 2))


def random_complex(grid, rng):
    return ComplexGridFn(grid, rng.normal(size=grid.J + 2)
                         + 1j * rng.normal(size=grid.J + 2))


class TestGridModel:
    def test_mesh_width_and_right_endpoint(self):
        g = Grid(9, 5.0)
        assert g.h == pytest.approx(0.5)
        assert g.x[-1] == pytest.approx(5.0, abs=1e-15)

    def test_rejects_small_J_and_bad_L(self):
        with pytest.raises(ValueError):
            Grid(5, 1.0)
        with pytest.raises(ValueError):
            Grid(10, 0.0)

    def test_ghost_layers_zeroed_and_frozen(self):
        g = Grid(8, 1.0)
        z = RealGridFn(g, np.ones(g.J + 2))
        assert z.values[0] == z.values[1] == 0
        assert z.values[g.J] == z.values[g.J + 1] == 0
        with pytest.raises(ValueError):
            z.values[3] = 7.0

    def test_wrong_length_rejected(self):
        g = Grid(8, 1.0)
        with pytest.raises(ValueError):
            RealGridFn(g, np.zeros(5))


class TestDifferenceOperators:
    # J=6 variant of the h=0.5 spike example: (3 - 1)/0.5 = 4
    def test_d_plus_arithmetic(self):
        g = Grid(6, 3.5)  # h = 0.5
        z = RealGridFn(g, [0, 0, 1, 3, 0, 0, 0, 0])
        assert d_plus(z)[2] == pytest.approx(4.0)
        assert d_plus(z)[-1] == 0.0

    def test_d_plus_zero_and_constant_run(self):
        g = Grid(32, 2.0)
        assert np.all(d_plus(RealGridFn.zeros(g)) == 0)
        vals = np.zeros(g.J + 2)
        vals[2:g.J] = 3.0
        z = RealGridFn(g, vals)
        assert np.all(d_plus(z)[3:g.J - 1] == 0)

    def test_d_minus_arithmetic(self):
        g = Grid(6, 3.5)
        z = RealGridFn(g, [0, 0, 1, 3, 0, 0, 0, 0])
        assert d_minus(z)[3] == pytest.approx(4.0)
        assert d_minus(z)[0] == 0.0

    def test_d_minus_is_shifted_d_plus(self):
        rng = np.random.default_rng(0)
        g = Grid(40, 3.0)
        for _ in range(100):
            z = random_complex(g, rng)
            assert np.array_equal(d_minus(z)[1:], d_plus(z)[:-1])

    def test_d_zero_arithmetic_and_average_identity(self):
        g = Grid(6, 7.0)  # h = 1
        z = RealGridFn(g, [0, 0, 1, 0, 2, 0, 0, 0])
        assert d_zero(z)[3] == pytest.approx(0.5)
        rng = np.random.default_rng(1)
        w = random_complex(g, rng)
        avg = 0.5 * (d_plus(w) + d_minus(w))
        avg[0] = avg[-1] = 0
        np.testing.assert_allclose(d_zero(w), avg, rtol=0, atol=1e-14)

    def test_laplacian_arithmetic(self):
        g = Grid(6, 7.0)
        z = RealGridFn(g, [0, 0, 1, 0, 0, 0, 0, 0])
        lap = laplacian_h(z)
        assert lap[2] == pytest.approx(-2.0)
        assert lap[3] == pytest.approx(1.0)

    def test_laplacian_composition_orders_agree(self):
        rng = np.random.default_rng(2)
        g = Grid(24, 2.0)
        z = random_real(g, rng)
        dmp = d_minus(d_plus(z), g)
        dpm = d_plus(d_minus(z), g)
        np.testing.assert_allclose(dmp[2:g.J], dpm[2:g.J], rtol=1e-13)
        np.testing.assert_allclose(laplacian_h(z)[2:g.J], dmp[2:g.J],
                                   rtol=1e-13)

    def test_d_cubed_arithmetic(self):
        g = Grid(6, 7.0)
        z = RealGridFn(g, [0, 0, 1, 0, 0, 0, 0, 0])
        assert d_cubed(z)[3] == pytest.approx(1.0)
        assert np.all(d_cubed(z)[[0, 1, g.J, g.J + 1]] == 0)

    def test_d_cubed_is_composition(self):
        rng = np.random.default_rng(3)
        g = Grid(30, 4.0)
        for _ in range(25):
            z = random_real(g, rng)
            comp = d_zero(d_minus(d_plus(z), g), g)
            scale = np.max(np.abs(comp)) + 1.0
            assert np.max(np.abs(d_cubed(z)[2:g.J] - comp[2:g.J])) \
                <= 4e-16 * scale


class TestInnerAndNorms:
    def test_inner_single_entry(self):
        g = Grid(6, 3.5)  # h = 0.5
        vals = np.zeros(g.J + 2)
        vals[2] = 2.0
        z = RealGridFn(g, vals)
        assert inner(z, z) == pytest.approx(2.0)

    def test_inner_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        g = Grid(20, 1.0)
        z, w = random_complex(g, rng), random_complex(g, rng)
        assert inner(z, w) == pytest.approx(np.conj(inner(w, z)), rel=1e-15)

    def test_inner_grid_mismatch(self):
        z = RealGridFn.zeros(Grid(8, 1.0))
        w = RealGridFn.zeros(Grid(10, 1.0))
        with pytest.raises(ValueError):
            inner(z, w)

    def test_norm_single_entry_p4(self):
        g = Grid(6, 3.5)
        vals = np.zeros(g.J + 2, complex)
        vals[2] = 2j
        z = ComplexGridFn(g, vals)
        assert norm_p(z, 4) == pytest.approx(8.0**0.25)

    def test_norm_rejects_p_below_one(self):
        z = RealGridFn.zeros(Grid(8, 1.0))
        with pytest.raises(ValueError):
            norm_p(z, 0.5)

    def test_norm2_squared_matches_inner(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = Grid(int(rng.integers(6, 64)), float(rng.uniform(0.5, 10)))
            z = random_complex(g, rng)
            assert norm_p(z, 2)**2 == pytest.approx(inner(z, z).real,
                                                    rel=1e-14)


class TestAlgebraicIdentities:
    """Summation by parts, skew-symmetry and symmetry on random inputs."""

    def test_summation_by_parts(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = Grid(int(rng.integers(6, 200)), float(rng.uniform(0.5, 20)))
            u, w = random_complex(g, rng), random_complex(g, rng)
            lhs = inner(d_plus(u), w, g)
            rhs = -inner(u, d_minus(w))
            scale = abs(lhs) + abs(rhs) + 1e-30
            assert abs(lhs - rhs) <= 1e-13 * scale

    def test_skew_symmetry_centered_and_third(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = Grid(int(rng.integers(6, 200)), float(rng.uniform(0.5, 20)))
            u = random_real(g, rng)
            scale = norm_p(u, 2)**2 / g.h + 1e-30
            assert abs(inner(d_zero(u), u, g).real) <= 1e-13 * scale
            assert abs(inner(d_cubed(u), u, g).real) <= 1e-13 * scale / g.h**2

    def test_laplacian_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = Grid(int(rng.integers(6, 200)), float(rng.uniform(0.5, 20)))
            u, w = random_complex(g, rng), random_complex(g, rng)
            lhs = inner(laplacian_h(u), w, g)
            rhs = inner(u, laplacian_h(w), g)
            scale = abs(lhs) + abs(rhs) + 1e-30
            assert abs(lhs - rhs) <= 1e-13 * scale


class TestDiscreteInequalities:
    def test_gagliardo_nirenberg_and_l1_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            g = Grid(int(rng.integers(6, 128)), float(rng.uniform(0.2, 50)))
            z = random_real(g, rng)
            sup = norm_p(z, np.inf)
            assert sup <= np.sqrt(2.0) * np.sqrt(norm_p(z, 2)) \
                * np.sqrt(dplus_norm_p(z, 2)) * (1 + 1e-12)
            d1 = dplus_norm_p(z, 1)
            assert sup <= 0.5 * d1 * (1 + 1e-12)
            assert 0.5 * d1 <= 0.5 * np.sqrt(g.L) * dplus_norm_p(z, 2) \
                * (1 + 1e-12)

    def test_interpolator_distance_estimate(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            g = Grid(int(rng.integers(6, 64)), float(rng.uniform(0.2, 20)))
            z = random_real(g, rng)
            assert l2_diff_p1_p0(z) <= g.h * dplus_norm_p(z, 2) * (1 + 1e-12)

    @pytest.mark.parametrize("complex_", [False, True],
                             ids=["real", "complex"])
    def test_p1_p0_distance_against_quadrature(self, complex_):
        # P1 interpolates the nodes linearly, P0 holds z_j on (x_j, x_{j+1})
        rng = np.random.default_rng(14)
        g = Grid(10, 2.0)
        z = (random_complex if complex_ else random_real)(g, rng)
        v = z.values

        def p1_minus_p0_sq(x, j):
            p1 = (np.interp(x, g.x, v.real)
                  + 1j * np.interp(x, g.x, v.imag))
            return abs(p1 - v[j])**2

        ref = np.sqrt(sum(quad(p1_minus_p0_sq, g.x[j], g.x[j + 1],
                               args=(j,))[0] for j in range(g.J + 1)))
        assert l2_diff_p1_p0(z) == pytest.approx(ref, rel=1e-12)


class TestSample:
    def test_zero_function(self):
        g = Grid(8, 1.0)
        assert np.all(sample(lambda x: 0.0, g).values == 0)

    def test_identity_function(self):
        g = Grid(8, 4.5)
        z = sample(lambda x: x, g)
        np.testing.assert_allclose(z.values[2:g.J], g.x[2:g.J], rtol=1e-15)
        assert np.all(z.values[[0, 1, g.J, g.J + 1]] == 0)

    def test_nonfinite_sample_names_node(self):
        g = Grid(8, 1.0)
        with pytest.raises(ValueError, match="j=4"):
            sample(lambda x: np.inf if abs(x - g.x[4]) < 1e-12 else 0.0, g)
