"""Smooth saturation of the quadratic KdV flux and the coupling potential.

The long-wave equation carries a quadratic flux v^2 and a linear coupling
potential v.  The truncated family replaces them, above a level M > 1, by
functions with globally bounded derivatives while remaining *bitwise* the
untruncated ones on |v| <= M:

* ``flux``            -- v^2 on |v| <= M, |v| beyond M^2+1, blended between;
* ``coupling``        -- v on |v| <= M, the plateau +-3M/2 beyond 2M;
* ``flux_antiderivative`` -- the running integral of ``flux`` from 0.

Blending uses the quintic smoothstep s(t) = t^3 (10 - 15 t + 6 t^2), so the
family is C^2 (one continuous derivative is what the implicit solver's
Newton iteration needs; the extra degree keeps the second derivative
continuous for the Jacobian).

``TruncationFamily.off()`` is the untruncated system: flux v^2, coupling v,
antiderivative v^3/3.  For inputs that never exceed M, the active family
evaluates to exactly the same floating-point values as the off family.
All evaluators accept scalars or numpy arrays; they use products and
Horner's rule, not powers, so that an array entry rounds as a scalar does.
"""

import numpy as np

__all__ = ["TruncationFamily"]


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_prime(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t * t * (1.0 + t * (-2.0 + t)), 0.0)


# antiderivative of (1 - s): q(t) = t - 2.5 t^4 + 3 t^5 - t^6, q(1) = 1/2
def _ramp_integral(t):
    t = np.clip(t, 0.0, 1.0)
    return t + t * t * (t * t) * (-2.5 + t * (3.0 - t))


class TruncationFamily:
    """Descriptor of the saturation level; all evaluators are pure.

    Parameters
    ----------
    M : float or None
        Saturation level (>= 1), or None for the untruncated system.
    """

    __slots__ = ("M",)

    def __init__(self, M=None):
        # M >= 1 keeps |v| <= v^2 on the blend region, so the sandwich
        # 0 <= flux <= v^2 (and with it the energy control) survives
        if M is not None and not M >= 1:
            raise ValueError(f"truncation level must be >= 1, got {M}")
        object.__setattr__(self, "M", None if M is None else float(M))

    def __setattr__(self, name, value):
        raise AttributeError("TruncationFamily is immutable")

    @classmethod
    def off(cls):
        return cls(None)

    @classmethod
    def active(cls, M):
        return cls(M)

    @property
    def is_active(self):
        return self.M is not None

    def __repr__(self):
        return "TruncationFamily(off)" if self.M is None else \
            f"TruncationFamily(M={self.M})"

    # -- saturated quadratic flux ------------------------------------

    def flux(self, v):
        """Saturated v^2: exactly v*v on |v| <= M, |v| above M^2+1.

        In between, the blend (1-theta) v^2 + theta |v| with
        theta = s((|v| - M)/(M^2 + 1 - M)); the sandwich
        0 <= flux(v) <= v^2 holds everywhere since |v| <= v^2 on the
        blend region (M > 1).
        """
        v = np.asarray(v, dtype=np.float64)
        quad = v * v
        if self.M is None or np.abs(v).max(initial=0.0) <= self.M:
            return quad[()] if quad.ndim == 0 else quad
        M = self.M
        a = np.abs(v)
        theta = _smoothstep((a - M) / (M * M + 1.0 - M))
        out = np.where(a <= M, quad, (1.0 - theta) * quad + theta * a)
        return out[()] if out.ndim == 0 else out

    def flux_prime(self, v):
        """Derivative of ``flux``; odd, equal to 2v on |v| <= M."""
        v = np.asarray(v, dtype=np.float64)
        lin = 2.0 * v
        if self.M is None or np.abs(v).max(initial=0.0) <= self.M:
            return lin[()] if lin.ndim == 0 else lin
        M = self.M
        w = M * M + 1.0 - M
        a = np.abs(v)
        s = np.sign(v)
        t = (a - M) / w
        theta = _smoothstep(t)
        dtheta = _smoothstep_prime(t) / w
        # d/da of (1-theta) a^2 + theta a, then restore oddness via sign
        outer = 2.0 * a * (1.0 - theta) + theta + (a - a * a) * dtheta
        out = np.where(a <= M, lin, s * outer)
        return out[()] if out.ndim == 0 else out

    def flux_antiderivative(self, v):
        """Integral of ``flux`` from 0; odd, exactly v^3/3 on |v| <= M.

        Evaluated by closed-form piecewise antiderivatives: on the blend
        region the integrand is a degree-7 polynomial in the blend
        coordinate, integrated termwise; beyond M^2+1 the growth is
        (v^2 - (M^2+1)^2)/2 on top of the accumulated value.
        """
        v = np.asarray(v, dtype=np.float64)
        cube = v * v * v / 3.0
        if self.M is None or np.abs(v).max(initial=0.0) <= self.M:
            return cube[()] if cube.ndim == 0 else cube
        M = self.M
        top = M * M + 1.0
        w = top - M
        a = np.abs(v)
        s = np.sign(v)
        t = np.clip((a - M) / w, 0.0, 1.0)
        blend = M**3 / 3.0 + w * _blend_flux_integral(t, M, w)
        tail = (M**3 / 3.0 + w * _blend_flux_integral(1.0, M, w)
                + 0.5 * (a * a - top * top))
        out = np.where(a <= M, cube, s * np.where(a <= top, blend, tail))
        return out[()] if out.ndim == 0 else out

    # -- saturated coupling potential --------------------------------

    def coupling(self, v):
        """Saturated identity: v on |v| <= M, the plateau sign(v) 3M/2
        beyond 2M, a unit-slope ramp eased by the smoothstep in between."""
        v = np.asarray(v, dtype=np.float64)
        if self.M is None or np.abs(v).max(initial=0.0) <= self.M:
            return v[()] if v.ndim == 0 else v.copy()
        M = self.M
        a = np.abs(v)
        s = np.sign(v)
        ramp = M + M * _ramp_integral((a - M) / M)
        out = np.where(a <= M, v, s * np.where(a < 2.0 * M, ramp, 1.5 * M))
        return out[()] if out.ndim == 0 else out

    def coupling_prime(self, v):
        """Derivative of ``coupling``: 1 inside, 0 past 2M, in [0, 1]."""
        v = np.asarray(v, dtype=np.float64)
        if self.M is None or np.abs(v).max(initial=0.0) <= self.M:
            out = np.ones_like(v)
            return out[()] if out.ndim == 0 else out
        M = self.M
        a = np.abs(v)
        out = np.where(a <= M, 1.0, 1.0 - _smoothstep((a - M) / M))
        return out[()] if out.ndim == 0 else out

    def coupling_second(self, v):
        """Second derivative of ``coupling``; zero inside and past 2M."""
        v = np.asarray(v, dtype=np.float64)
        if self.M is None or np.abs(v).max(initial=0.0) <= self.M:
            out = np.zeros_like(v)
            return out[()] if out.ndim == 0 else out
        M = self.M
        a = np.abs(v)
        s = np.sign(v)
        out = np.where(a <= M, 0.0,
                       -s * _smoothstep_prime((a - M) / M) / M)
        return out[()] if out.ndim == 0 else out


def _blend_flux_integral(t, M, w):
    """int_0^t [(1 - s(r)) (M + w r)^2 + s(r) (M + w r)] dr, closed form.

    Expand s(r) = 10 r^3 - 15 r^4 + 6 r^5 and (M + w r)^k, integrate the
    resulting degree-7 polynomial termwise.
    """
    s_coef = np.zeros(6)
    s_coef[3:] = (10.0, -15.0, 6.0)
    lin = np.array([M, w])                      # M + w r
    quad = np.convolve(lin, lin)                # (M + w r)^2
    diff = np.zeros(3)                          # lin - quad
    diff[:2] += lin
    diff -= quad
    poly = np.zeros(9)                          # quad + s * (lin - quad)
    poly[:3] += quad
    prod = np.convolve(s_coef, diff)            # degree 7
    poly[:len(prod)] += prod
    anti = poly / np.arange(1, 10)              # term r^k -> r^{k+1}/(k+1)
    return t * np.polyval(anti[::-1], t)
