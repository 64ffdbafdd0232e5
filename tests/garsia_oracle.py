"""Scalar reference Garsia chain sums, quadrature and ball volumes: the
chain terms of one pair summed one at a time, recursive adaptive Simpson
with one integrand call at a time, and one pass over the n x n matrix per
radius.  They are the oracles the array passes in `resistwalk.garsia` are
checked against: the chain and integral bounds to a relative tolerance (the
sweep sums the Simpson leaves in another order and runs the (0, d0] head at
a fixed tolerance), the ball volumes exactly.

`integral_bound_curve` clips every interval at `lower`, so it is a
reference for any lower limit, not only for lower <= min 2 d(x, y);
`integral_bound` is the integral up to one limit.  `exp_square_psi` is a
second psi shape, exp(c y^2), for the checks.
"""

import math

import numpy as np

from resistwalk.errors import QuadratureFailure


def exp_square_psi(c):
    """psi(y) = exp(c y^2) and its closed-form generalized inverse."""
    psi = lambda y: np.exp(c * np.asarray(y, dtype=float) ** 2)
    psi_inv = lambda x: np.sqrt(np.maximum(np.log(np.maximum(np.asarray(x, dtype=float), 1.0)), 0.0) / c)
    return psi, psi_inv


def chain_bound(ctx, profile, gamma, x, y):
    """2 sum_{i=1}^{n} p(d0 2^{i+1}) psi^{-1}(Gamma / v(d0 2^{i-1})^2) for the
    pair (x, y), n the least i >= 1 with d0 2^i > d(x, y); 0 when x == y."""
    if x == y:
        return 0.0
    n = 1
    while ctx.d0 * 2.0**n <= float(ctx.d[x, y]):
        n += 1
    total = 0.0
    for i in range(1, n + 1):
        vs = float(profile.v(ctx.d0 * 2.0 ** (i - 1)))
        pv = float(profile.p(ctx.d0 * 2.0 ** (i + 1)))
        total += pv * float(profile.psi_inv(gamma / (vs * vs)))
    return 2.0 * total


def _adaptive_simpson(h, a, b, tol):
    fa, fb = h(a), h(b)
    m = 0.5 * (a + b)
    fm = h(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _asr(h, a, b, fa, fm, fb, whole, tol, 40)


def _asr(h, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = h(lm), h(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or (b - a) < 1e-15 * max(abs(a), abs(b)):
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureFailure(f"adaptive quadrature failed to converge on [{a}, {b}]")
    return _asr(h, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _asr(
        h, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def integrand(profile, gamma):
    """s -> p(4s)/s psi^{-1}(Gamma / v(s/2)^2), on Python floats."""

    def h(s):
        vs = float(profile.v(s / 2.0))
        return float(profile.p(4.0 * s)) / s * float(profile.psi_inv(gamma / (vs * vs)))

    return h


def _dyadic_breakpoints(d0, lo, hi):
    pts = []
    k = math.floor(math.log2(lo / d0)) if lo > 0 else 0
    while d0 * 2.0**k <= lo:
        k += 1
    while d0 * 2.0**k < hi:
        pts.append(d0 * 2.0**k)
        k += 1
    return pts


def integrate_with_breakpoints(h, lo, hi, d0, tol):
    """Integral of h over [lo, hi] with panels split at dyadic d0 2^k."""
    if hi <= lo:
        return 0.0
    cuts = [lo] + _dyadic_breakpoints(d0, lo, hi) + [hi]
    coarse = [abs((b - a) * h(0.5 * (a + b))) for a, b in zip(cuts[:-1], cuts[1:])]
    scale = max(sum(coarse), 1e-300)
    total = 0.0
    for (a, b), c in zip(zip(cuts[:-1], cuts[1:]), coarse):
        total += _adaptive_simpson(h, a, b, tol * max(c, 1e-3 * scale))
    return total


def singular_head(h, d0, tol):
    """Integral of h over (0, d0] by geometric panels, with a geometric
    remainder estimate; the integrand must be integrable at 0."""
    total = 0.0
    prev = None
    b = d0
    for _ in range(200):
        a = 0.5 * b
        panel = _adaptive_simpson(h, a, b, tol * max(abs(total), 1.0) * 1e-3)
        total += panel
        if prev is not None and panel < prev and panel < tol * max(abs(total), 1e-300):
            ratio = panel / prev
            total += panel * ratio / (1.0 - ratio)
            return total
        prev = panel
        b = a
    raise QuadratureFailure("head panels near zero did not decay; integrand not integrable?")


def integral_bound_curve(ctx, profile, gamma, lower=None, tol=1e-6):
    """Matrix of 4 int_lower^{2 d(x,y)} p(4s)/s psi^{-1}(Gamma / v(s/2)^2) ds,
    one interval between consecutive distinct upper limits at a time."""
    if lower is None:
        lower = ctx.d0
    n = ctx.d.shape[0]
    off = ~np.eye(n, dtype=bool)
    uppers = np.unique(2.0 * ctx.d[off])
    h = integrand(profile, gamma)
    acc = 0.0
    lo = lower
    if lower == 0.0:
        lo = min(ctx.d0, float(uppers[0]))
        acc += singular_head(h, lo, tol)
    cum = {}
    for u in uppers:
        acc += integrate_with_breakpoints(h, lo, float(u), ctx.d0, tol)
        cum[float(u)] = acc
        lo = max(lo, float(u))
    out = np.zeros((n, n))
    out[off] = 4.0 * np.array([cum[float(u)] for u in 2.0 * ctx.d[off]])
    return out


def integral_bound(ctx, profile, gamma, upper, lower=None, tol=1e-6):
    """4 int_lower^upper p(4s)/s psi^{-1}(Gamma / v(s/2)^2) ds for one upper
    limit, 0 when upper <= lower; lower=0 adds the head (0, min(d0, upper)]."""
    if lower is None:
        lower = ctx.d0
    h = integrand(profile, gamma)
    if lower == 0.0:
        lower = min(ctx.d0, upper)
        head = singular_head(h, lower, tol)
    else:
        head = 0.0
    return 4.0 * (head + integrate_with_breakpoints(h, lower, upper, ctx.d0, tol))


def ball_volume_checks(mu, d, cluster_tol=1e-9):
    """(radii, minvols) with one comparison over the whole matrix per radius."""
    n = len(mu)
    off = ~np.eye(n, dtype=bool)
    vals = np.unique(d[off])
    diam = float(vals[-1])
    tol = cluster_tol * diam
    reps = [float(vals[0])]
    for vv in vals[1:]:
        if vv - reps[-1] > tol:
            reps.append(float(vv))
    d0 = reps[0]
    order = np.argsort(d, axis=1)
    rows = np.take_along_axis(d, order, axis=1)
    cum = np.cumsum(mu[order], axis=1)
    radii = [d0]
    minvols = [float(mu.min())]
    for k in range(len(reps) - 1):
        thresh = reps[k] + 0.5 * tol
        idx = (rows <= thresh).sum(axis=1)
        vols = cum[np.arange(n), idx - 1]
        radii.append(reps[k + 1])
        minvols.append(float(vols.min()))
    return np.array(radii), np.array(minvols)
