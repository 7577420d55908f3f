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
That reduction lives in one helper, ``_saturated``: each evaluator is the
untruncated function with only the entries |v| > M replaced by its blend.
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


def _saturated(plain):
    """The reduction rule: decorate ``beyond(v, a, M)``, the blend at the
    entries a = |v| > M, into an evaluator returning ``plain(v)``, the
    untruncated function, with those entries replaced (none when M is unset
    or max |v| <= M).  The negated test sends NaN to the blend, so NaN stays
    NaN; 0-d results come back as scalars."""
    def decorate(beyond):
        def evaluate(self, v):
            v = np.asarray(v, dtype=np.float64)
            out, M = plain(v), self.M
            if M is not None and not np.abs(v).max(initial=0.0) <= M:
                a = np.abs(v)
                out = np.where(a <= M, out, beyond(v, a, M))
            return out[()] if out.ndim == 0 else out
        for attr in ("__name__", "__qualname__", "__doc__"):
            setattr(evaluate, attr, getattr(beyond, attr))
        return evaluate
    return decorate


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

    @_saturated(lambda v: v * v)
    def flux(v, a, M):
        """Saturated v^2: exactly v*v on |v| <= M, |v| above M^2+1.

        In between, the blend (1-theta) v^2 + theta |v| with
        theta = s((|v| - M)/(M^2 + 1 - M)); the sandwich
        0 <= flux(v) <= v^2 holds everywhere since |v| <= v^2 on the
        blend region (M > 1).
        """
        theta = _smoothstep((a - M) / (M * M + 1.0 - M))
        return (1.0 - theta) * (v * v) + theta * a

    @_saturated(lambda v: 2.0 * v)
    def flux_prime(v, a, M):
        """Derivative of ``flux``; odd, equal to 2v on |v| <= M."""
        w = M * M + 1.0 - M
        t = (a - M) / w
        theta = _smoothstep(t)
        dtheta = _smoothstep_prime(t) / w
        # d/da of (1-theta) a^2 + theta a, then restore oddness via sign
        outer = 2.0 * a * (1.0 - theta) + theta + (a - a * a) * dtheta
        return np.sign(v) * outer

    @_saturated(lambda v: v * v * v / 3.0)
    def flux_antiderivative(v, a, M):
        """Integral of ``flux`` from 0; odd, exactly v^3/3 on |v| <= M.

        Evaluated by closed-form piecewise antiderivatives: on the blend
        region the integrand is a degree-7 polynomial in the blend
        coordinate, integrated termwise; beyond M^2+1 the growth is
        (v^2 - (M^2+1)^2)/2 on top of the accumulated value.
        """
        top = M * M + 1.0
        w = top - M
        t = np.clip((a - M) / w, 0.0, 1.0)
        blend = M**3 / 3.0 + w * _blend_flux_integral(t, M, w)
        tail = (M**3 / 3.0 + w * _blend_flux_integral(1.0, M, w)
                + 0.5 * (a * a - top * top))
        return np.sign(v) * np.where(a <= top, blend, tail)

    # -- saturated coupling potential --------------------------------

    @_saturated(np.copy)
    def coupling(v, a, M):
        """Saturated identity: v on |v| <= M, the plateau sign(v) 3M/2
        beyond 2M, a unit-slope ramp eased by the smoothstep in between."""
        ramp = M + M * _ramp_integral((a - M) / M)
        return np.sign(v) * np.where(a < 2.0 * M, ramp, 1.5 * M)

    @_saturated(np.ones_like)
    def coupling_prime(v, a, M):
        """Derivative of ``coupling``: 1 inside, 0 past 2M, in [0, 1]."""
        return 1.0 - _smoothstep((a - M) / M)

    @_saturated(np.zeros_like)
    def coupling_second(v, a, M):
        """Second derivative of ``coupling``; zero inside and past 2M."""
        return -np.sign(v) * _smoothstep_prime((a - M) / M) / M


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
