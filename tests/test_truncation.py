import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlw.truncation import TruncationFamily

EVALUATORS = ("flux", "flux_prime", "flux_antiderivative", "coupling",
              "coupling_prime", "coupling_second")


def fd_derivative(f, x, eps=1e-6):
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


class TestConstruction:
    def test_level_below_one_rejected(self):
        for bad in (0.999, 0.5, 0.0, -3.0):
            with pytest.raises(ValueError):
                TruncationFamily.active(bad)
        assert TruncationFamily.active(1.0).M == 1.0  # boundary allowed

    def test_off_and_active_flags(self):
        assert not TruncationFamily.off().is_active
        assert TruncationFamily.active(2.0).is_active


class TestOffFamily:
    def test_matches_plain_functions(self):
        tr = TruncationFamily.off()
        v = np.linspace(-7, 7, 41)
        np.testing.assert_array_equal(tr.flux(v), v * v)
        np.testing.assert_array_equal(tr.flux_prime(v), 2 * v)
        np.testing.assert_allclose(tr.flux_antiderivative(v), v**3 / 3,
                                   rtol=1e-15)
        np.testing.assert_array_equal(tr.coupling(v), v)
        np.testing.assert_array_equal(tr.coupling_prime(v), np.ones_like(v))
        np.testing.assert_array_equal(tr.coupling_second(v), np.zeros_like(v))

    def test_scalar_in_scalar_out(self):
        tr = TruncationFamily.off()
        assert np.isscalar(tr.flux(3.0)) or np.ndim(tr.flux(3.0)) == 0
        assert float(tr.flux(3.0)) == 9.0


class TestExactInsideLevel:
    """Bitwise equality with the untruncated family on |v| <= M."""

    def test_bitwise_inside(self):
        rng = np.random.default_rng(0)
        off = TruncationFamily.off()
        for M in (1.5, 4.0, 10.0):
            tr = TruncationFamily.active(M)
            v = rng.uniform(-M, M, size=2000)
            for name in ("flux", "flux_prime", "flux_antiderivative",
                         "coupling", "coupling_prime", "coupling_second"):
                a = getattr(tr, name)(v)
                b = getattr(off, name)(v)
                assert np.array_equal(a, b), name

    def test_bitwise_at_the_level(self):
        off = TruncationFamily.off()
        tr = TruncationFamily.active(3.0)
        for v in (3.0, -3.0):
            assert tr.flux(v) == off.flux(v)
            assert tr.coupling(v) == off.coupling(v)


class TestPlainBranchProperty:
    """Inputs with |v| <= M take the untruncated branch bit for bit, and
    an array evaluates each entry as that entry alone would."""

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype \
            and a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(M=st.floats(1.0, 1e6),
           fractions=st.lists(st.floats(-1.0, 1.0), max_size=30))
    def test_bitwise_plain_at_and_below_the_level(self, M, fractions):
        tr, off = TruncationFamily.active(M), TruncationFamily.off()
        v = np.array([M, -M, 0.0, -0.0] + [M * f for f in fractions])
        v = np.clip(v, -M, M)
        for name in EVALUATORS:
            f, g = getattr(tr, name), getattr(off, name)
            assert self.same_bits(f(v), g(v)), name
            for x in v:
                assert self.same_bits(f(float(x)), g(float(x))), (name, x)

    @settings(max_examples=200, deadline=None)
    @given(M=st.floats(1.0, 100.0),
           multiples=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30))
    def test_mixed_array_entries_match_scalars(self, M, multiples):
        tr = TruncationFamily.active(M)
        v = np.array([M, -M] + [M * m for m in multiples])
        for name in EVALUATORS:
            f = getattr(tr, name)
            out = f(v)
            for x, y in zip(v, out):
                assert self.same_bits(f(float(x)), y), (name, x)


class TestNaN:
    """A NaN input takes the saturated branch: it stays NaN, and it does
    not send the finite entries of its array down the plain branch."""

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_nan_stays_nan_and_entries_match_scalars(self, name):
        f = getattr(TruncationFamily.active(2.0), name)
        assert np.isnan(f(np.nan))
        v = np.array([np.nan, 0.5, -1.5, 2.0, 3.0, -4.5, 6.0, -100.0])
        out = f(v)
        assert np.isnan(out[0])
        for x, y in zip(v[1:], out[1:]):
            assert f(float(x)) == y, (name, x)

class TestFluxShape:
    def test_far_field_is_absolute_value(self):
        tr = TruncationFamily.active(2.0)
        top = 2.0**2 + 1.0
        v = np.array([top, top + 1.0, -top - 5.0, 100.0])
        np.testing.assert_allclose(tr.flux(v), np.abs(v), rtol=1e-14)

    def test_sandwich_zero_le_flux_le_square(self):
        rng = np.random.default_rng(1)
        for M in (1.2, 3.0, 8.0):
            tr = TruncationFamily.active(M)
            v = rng.uniform(-50, 50, size=5000)
            f = tr.flux(v)
            assert np.all(f >= 0)
            assert np.all(f <= v * v * (1 + 1e-14))

    def test_flux_even_and_continuous(self):
        tr = TruncationFamily.active(2.0)
        v = np.linspace(0.0, 8.0, 20001)
        np.testing.assert_array_equal(tr.flux(v), tr.flux(-v))
        jumps = np.abs(np.diff(tr.flux(v)))
        assert jumps.max() < 0.01  # ~ max slope * dv

    def test_flux_prime_bound(self):
        # |f'| <= 2 (M^2 + 1) + 1 uniformly (coarse bound used in analysis)
        rng = np.random.default_rng(2)
        for M in (1.5, 3.0, 10.0):
            tr = TruncationFamily.active(M)
            v = rng.uniform(-10 * M, 10 * M, size=20000)
            assert np.max(np.abs(tr.flux_prime(v))) <= 2 * (M * M + 1) + 1

    def test_flux_prime_matches_fd(self):
        tr = TruncationFamily.active(2.0)
        v = np.linspace(-7, 7, 401)
        fd = fd_derivative(tr.flux, v)
        np.testing.assert_allclose(tr.flux_prime(v), fd, rtol=0, atol=5e-8)

    def test_flux_antiderivative_matches_fd(self):
        tr = TruncationFamily.active(2.0)
        v = np.linspace(-8, 8, 401)
        fd = fd_derivative(tr.flux_antiderivative, v)
        np.testing.assert_allclose(tr.flux(v), fd, rtol=0, atol=5e-8)

    def test_flux_antiderivative_odd_and_monotone(self):
        tr = TruncationFamily.active(2.0)
        v = np.linspace(0, 12, 500)
        np.testing.assert_allclose(tr.flux_antiderivative(-v),
                                   -tr.flux_antiderivative(v), rtol=1e-14)
        assert np.all(np.diff(tr.flux_antiderivative(v)) > 0)

    def test_flux_antiderivative_against_quadrature(self):
        from scipy.integrate import quad
        tr = TruncationFamily.active(2.0)
        for v in (1.0, 2.3, 4.7, 5.0, 9.0, -3.4):
            pts = [p for p in (2.0, -2.0, 5.0, -5.0) if min(0, v) < p < max(0, v)]
            ref = quad(tr.flux, 0.0, v, limit=200, points=pts or None)[0]
            assert tr.flux_antiderivative(v) == pytest.approx(ref, rel=1e-10)


class TestCouplingShape:
    def test_plateau_value_and_onset(self):
        for M in (1.5, 4.0):
            tr = TruncationFamily.active(M)
            v = np.array([2 * M, 3 * M, -2 * M, -100 * M])
            np.testing.assert_allclose(tr.coupling(v),
                                       1.5 * M * np.sign(v), rtol=1e-14)
            assert np.all(tr.coupling_prime(v) == 0)

    def test_coupling_odd_bounded_monotone(self):
        tr = TruncationFamily.active(2.0)
        v = np.linspace(0, 10, 2001)
        np.testing.assert_allclose(tr.coupling(-v), -tr.coupling(v),
                                   rtol=1e-14)
        assert np.all(np.abs(tr.coupling(v)) <= 1.5 * 2.0 + 1e-14)
        assert np.all(np.diff(tr.coupling(v)) >= -1e-14)

    def test_coupling_prime_in_unit_interval(self):
        rng = np.random.default_rng(3)
        tr = TruncationFamily.active(3.0)
        v = rng.uniform(-20, 20, 10000)
        d = tr.coupling_prime(v)
        assert np.all((0.0 <= d) & (d <= 1.0))

    def test_coupling_derivatives_match_fd(self):
        tr = TruncationFamily.active(2.0)
        v = np.linspace(-6, 6, 401)
        np.testing.assert_allclose(tr.coupling_prime(v),
                                   fd_derivative(tr.coupling, v),
                                   rtol=0, atol=5e-9)
        np.testing.assert_allclose(tr.coupling_second(v),
                                   fd_derivative(tr.coupling_prime, v),
                                   rtol=0, atol=5e-9)

    def test_c2_continuity_at_joints(self):
        # values, first and second derivatives agree across v = M and 2M
        M = 2.0
        tr = TruncationFamily.active(M)
        eps = 1e-9
        for joint in (M, 2 * M):
            for fn in (tr.coupling, tr.coupling_prime, tr.coupling_second):
                assert fn(joint - eps) == pytest.approx(fn(joint + eps),
                                                        abs=1e-6)
        top = M * M + 1.0
        for joint in (M, top):
            for fn in (tr.flux, tr.flux_prime):
                assert fn(joint - eps) == pytest.approx(fn(joint + eps),
                                                        abs=1e-6)
