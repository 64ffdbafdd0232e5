"""Discrete chaining bounds for the modulus of continuity of vertex functions.

The machinery follows the classical Garsia-Rodemich-Rumsey scheme adapted to
a finite metric measure space.  A profile is a triple (v, p, psi) with
psi's generalized inverse psi^{-1} given in closed form:

  v  nondecreasing volume gauge, with mu(B_d(x, r)) >= v(r) required on the
     whole range of realized radii (verified exactly, not sampled),
  p  nondecreasing distance gauge with p(0) = 0,
  psi  symmetric convex with psi(0) = 1 and psi(x) -> infinity.

With Gamma(f) = sum_{x,y} psi((f(x)-f(y)) / p(d(x,y))) mu_x mu_y (diagonal
pairs contribute psi(0) mu_x^2), every pair obeys

  |f(x) - f(y)| <= 2 sum_{i=1}^{n} p(d0 2^{i+1}) psi^{-1}(Gamma / v(d0 2^{i-1})^2)

with n = floor(log2(d(x,y)/d0)) + 1, and the sum is dominated by the integral
4 int p(4s)/s psi^{-1}(Gamma / v(s/2)^2) ds over (d0, 2 d(x,y)] or (0, 2 d(x,y)].

The integral is computed for all upper limits 2 d(x, y) at once: the range is
cut into panels at the limits and at s = d0 2^k (plus geometric panels on
(0, d0] when the lower limit is 0), and adaptive Simpson runs breadth-first
over every panel, evaluating the integrand once per round on an array of new
nodes; cumulative sums give each limit.  Adaptive Simpson rather than a fixed
rule, because psi^{-1} = log(max(x, 1)) has a kink that needs error control.
Exact ball volumes come from one search per row of the sorted distance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GammaOverflow,
    InvalidProfile,
    MissingValue,
    QuadratureFailure,
    UnknownVertex,
    VolumeBoundUnverified,
)
from .graphs import WeightedGraph
from .resistance import validate_metric

_GRID = np.geomspace(1e-6, 10.0, 64)
_GRID.setflags(write=False)
CLUSTER_TOL = 1e-9  # relative width within which ball_volume_checks merges radii
_SIMPSON_DEPTH = 40  # levels of halving before a panel fails
QUAD_TOL = 1e-6  # relative tolerance of the integral sweep of garsia_integral_bound_curve
_HEAD_PANELS = 200  # geometric panels tried on (0, d0] when lower = 0


def _call(fn, x):
    """Apply a vectorized profile piece to an array."""
    return np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)


@dataclass(eq=False)
class GarsiaProfile:
    """A (v, p, psi, psi_inv) profile, structurally validated at construction.

    Each piece is vectorized: it maps an array to an array of its shape.
    The constraints are sampled on a geometric grid of 64 points in
    [1e-6, 10]; psi_inv must be the generalized inverse
    inf{ y >= 0 : psi(y) > x }, 0 for x < psi(0).
    """

    v: object
    p: object
    psi: object
    psi_inv: object

    def _on_grid(self, name):
        """The piece `name` on the validation grid, refused unless it maps
        the grid to an array of the grid's shape."""
        try:
            out = _call(getattr(self, name), _GRID)
        except (TypeError, ValueError) as exc:  # a scalar-only callable
            raise InvalidProfile(f"{name} must accept an array") from exc
        if out.shape != _GRID.shape:
            raise InvalidProfile(f"{name} must map an array to an array of its shape")
        return out

    def __post_init__(self):
        vv, pv, psv, _ = (self._on_grid(name) for name in ("v", "p", "psi", "psi_inv"))
        if np.any(np.diff(vv) < 0):
            raise InvalidProfile("v must be nondecreasing")
        if np.any(vv <= 0):
            raise InvalidProfile("v must be positive on the validation grid")
        if np.any(np.diff(pv) < 0):
            raise InvalidProfile("p must be nondecreasing")
        if float(self.p(0.0)) != 0.0:
            raise InvalidProfile("p(0) must equal 0")
        if np.any(pv < 0):
            raise InvalidProfile("p must be nonnegative")
        if not np.all(np.isfinite(psv)):
            raise InvalidProfile("psi overflows on the validation grid [1e-6, 10]")
        if float(self.psi(0.0)) != 1.0:
            raise InvalidProfile("psi(0) must equal 1")
        neg = _call(self.psi, -_GRID)
        if np.max(np.abs(neg - psv)) > 1e-9 * np.max(psv):
            raise InvalidProfile("psi must be symmetric")
        if np.any(np.diff(psv) < 0):
            raise InvalidProfile("psi must be nondecreasing on [0, inf)")
        mids = _call(self.psi, 0.5 * (_GRID[:-1] + _GRID[1:]))
        if np.any(mids > 0.5 * (psv[:-1] + psv[1:]) * (1 + 1e-9) + 1e-12):
            raise InvalidProfile("psi must be convex")
        if psv[-1] <= psv[-len(_GRID) // 4]:
            raise InvalidProfile("psi must keep increasing (divergence proxy)")


## Ready-made profile pieces.

def power_volume(c: float, alpha: float):
    return lambda r: c * np.asarray(r, dtype=float) ** alpha


def sqrt_gauge():
    return lambda s: np.sqrt(np.asarray(s, dtype=float))


def exp_abs_psi(c: float):
    psi = lambda y: np.exp(c * np.abs(np.asarray(y, dtype=float)))
    psi_inv = lambda x: np.maximum(np.log(np.maximum(np.asarray(x, dtype=float), 1.0)), 0.0) / c
    return psi, psi_inv


def ball_volume_checks(mu: np.ndarray, d: np.ndarray):
    """Radii and exact worst-case ball volumes for volume lower bounds.

    Returns (radii, minvols) such that "for all x and all r in [d0, diam]:
    mu(B_d(x, r)) >= v(r)" holds if and only if minvols[k] >= v(radii[k]) for
    every k, for any nondecreasing v.  Open balls B(x, r) = {y : d(x,y) < r}
    are piecewise constant in r, so it suffices to test at d0 and just above
    each realized distance; distances within CLUSTER_TOL * diam of each other
    are treated as equal to absorb floating point ties.
    """
    n = len(mu)
    off = ~np.eye(n, dtype=bool)
    vals = np.unique(d[off])
    diam = float(vals[-1])
    tol = CLUSTER_TOL * diam
    reps = [float(vals[0])]
    for vv in vals[1:].tolist():
        if vv - reps[-1] > tol:
            reps.append(vv)
    order = np.argsort(d, axis=1)
    rows = np.take_along_axis(d, order, axis=1)
    cum = np.cumsum(mu[order], axis=1)
    thresholds = np.array(reps[:-1]) + 0.5 * tol
    minvols = np.full(len(reps), np.inf)
    minvols[0] = mu.min()  # B(x, d0) = {x}
    nthr = len(thresholds)
    for i in range(n):
        # rows[i][j] <= thresholds[k] iff first[j] <= k, so a cumulative
        # histogram of first gives |{y : d(x_i, y) <= reps[k]}| for every k
        first = np.searchsorted(thresholds, rows[i], side="left")
        counts = np.cumsum(np.bincount(first, minlength=nthr + 1)[:nthr])
        np.minimum(minvols[1:], cum[i].take(counts - 1), out=minvols[1:])
    return np.array(reps), minvols


def fit_power_volume(mu: np.ndarray, d: np.ndarray, alpha: float):
    """Largest c with mu(B_d(x, r)) >= c r^alpha on all realized radii.

    Returns (c, v); the fitted v passes verify_volume by construction."""
    radii, minvols = ball_volume_checks(mu, d)
    c = float(np.min(minvols / radii**alpha))
    return c, power_volume(c, alpha)


@dataclass(eq=False)
class MetricContext:
    """A metric on the vertices of a graph, with exact volume verification.

    Construction checks the metric axioms; calling
    verify_volume(profile) checks min_x mu(B_d(x, r)) >= v(r) exactly for all
    r in [d0, diam] and registers the profile for use in the bounds."""

    graph: WeightedGraph
    d: np.ndarray
    d0: float = field(init=False)
    diam: float = field(init=False)

    def __post_init__(self):
        n = self.graph.n
        if self.d.shape != (n, n):
            raise UnknownVertex(f"distance matrix shape {self.d.shape} does not match n={n}")
        validate_metric(self.d)
        off = ~np.eye(n, dtype=bool)
        self.d0 = float(self.d[off].min())
        self.diam = float(self.d[off].max())
        self._verified = set()  # profiles, not id()s: a freed profile's id is reused
        self._checks = None

    def volume_checks(self):
        if self._checks is None:
            self._checks = ball_volume_checks(self.graph.mu, self.d)
        return self._checks

    def verify_volume(self, profile: GarsiaProfile) -> float:
        """Exact check of the volume lower bound; returns the worst ratio
        min ball volume / v(r) (>= 1 when the bound holds)."""
        radii, minvols = self.volume_checks()
        vvals = _call(profile.v, radii)
        ratios = minvols / vvals
        worst = float(ratios.min())
        if worst < 1.0:
            k = int(np.argmin(ratios))
            raise VolumeBoundUnverified(
                f"volume bound fails at r={float(radii[k])!r}: min ball volume "
                f"{float(minvols[k])!r} < v(r) = {float(vvals[k])!r}"
            )
        self._verified.add(profile)
        return worst

    def is_verified(self, profile: GarsiaProfile) -> bool:
        return profile in self._verified


def gamma_functional(g: WeightedGraph, ctx: MetricContext, f, profile: GarsiaProfile) -> float:
    """Gamma(f) = sum over ordered pairs of psi(df / p(d)) mu_x mu_y.

    Diagonal pairs contribute psi(0) mu_x^2 = mu_x^2.  A non-finite psi value
    raises GammaOverflow naming the offending pair."""
    vals = np.asarray(f, dtype=float)
    if vals.shape != (g.n,):
        raise MissingValue(f"expected {g.n} values, got shape {vals.shape}")
    n = g.n
    off = ~np.eye(n, dtype=bool)
    pd = np.ones((n, n))
    pd[off] = _call(profile.p, ctx.d[off])
    ratio = np.zeros((n, n))
    ratio[off] = (vals[:, None] - vals[None, :])[off] / pd[off]
    psiv = np.ones((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        psiv[off] = _call(profile.psi, ratio[off])
    if not np.all(np.isfinite(psiv)):
        bad = np.argwhere(~np.isfinite(psiv))[0]
        raise GammaOverflow(
            f"psi overflowed at pair ({int(bad[0])}, {int(bad[1])}) "
            f"with ratio {float(ratio[bad[0], bad[1]])!r}",
            pair=(int(bad[0]), int(bad[1])),
        )
    return float(g.mu @ psiv @ g.mu)


def _require_verified(ctx: MetricContext, profile: GarsiaProfile):
    if not ctx.is_verified(profile):
        raise VolumeBoundUnverified(
            "profile volume bound not verified on this context; call ctx.verify_volume(profile)"
        )


def _chain_lengths(dmat: np.ndarray, d0: float) -> np.ndarray:
    """n(x, y) = min{ i : d0 2^i > d(x, y) } elementwise, with float fix-ups."""
    off = dmat > 0
    n = np.zeros(dmat.shape, dtype=np.int64)
    ratio = np.ones_like(dmat)
    ratio[off] = dmat[off] / d0
    n[off] = np.floor(np.log2(ratio[off])).astype(np.int64) + 1
    # guard against log2 rounding on exact powers of two
    too_small = off & (d0 * np.exp2(n.astype(float)) <= dmat)
    n[too_small] += 1
    shrinkable = off & (n > 1) & (d0 * np.exp2(n.astype(float) - 1) > dmat)
    n[shrinkable] -= 1
    # distances a hair below d0 (metric ties) still take one term
    np.maximum(n, off.astype(np.int64), out=n)
    return n


def _chain_terms(ctx: MetricContext, profile: GarsiaProfile, gamma: float, imax: int) -> np.ndarray:
    i = np.arange(1, imax + 1, dtype=float)
    pvals = _call(profile.p, ctx.d0 * np.exp2(i + 1))
    vvals = _call(profile.v, ctx.d0 * np.exp2(i - 1))
    return pvals * _call(profile.psi_inv, gamma / vvals**2)


def garsia_bound_matrix(
    g: WeightedGraph,
    ctx: MetricContext,
    f,
    profile: GarsiaProfile,
    gamma: float | None = None,
) -> np.ndarray:
    """Chaining bounds for all pairs at once: 2 cum[n(x, y)], where cum[k]
    is the running sum of the first k chain terms; one Gamma and one table
    serve every pair, and the diagonal is zero."""
    _require_verified(ctx, profile)
    if gamma is None:
        gamma = gamma_functional(g, ctx, f, profile)
    nmat = _chain_lengths(ctx.d, ctx.d0)
    cum = np.concatenate([[0.0], np.cumsum(_chain_terms(ctx, profile, gamma, int(nmat.max())))])
    return 2.0 * cum[nmat]


def _integrand_values(profile: GarsiaProfile, gamma: float, s: np.ndarray) -> np.ndarray:
    """p(4s)/s psi^{-1}(Gamma / v(s/2)^2) at every point of s.

    NaN where Gamma / v(s/2)^2 is not finite (v underflows far below d0), so
    that only a head panel the quadrature actually uses can fail on it."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vs = _call(profile.v, s / 2.0)
        arg = gamma / (vs * vs)
        finite = np.isfinite(arg)
        inv = np.full(s.shape, np.nan)
        inv[finite] = _call(profile.psi_inv, arg[finite])
        return _call(profile.p, 4.0 * s) / s * inv


def _simpson_sweep(h, a, b, fa, fm, fb, tol) -> np.ndarray:
    """Adaptive Simpson on every panel [a_i, b_i] at once, breadth-first.

    fa, fm, fb hold h at the ends and midpoints of the panels and tol the
    absolute tolerance of each.  Each round evaluates h once, on the quarter
    points of all open subpanels.  A subpanel is accepted when |err| <=
    15 tol or its width underflows; otherwise it splits into two halves at
    tol / 2.  Returns the panel integrals, NaN for a panel with a subpanel
    still open after 40 levels or with a non-finite error."""
    npan = len(a)
    total = np.zeros(npan)
    failed = np.zeros(npan, dtype=bool)
    owner = np.arange(npan)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    for depth in range(_SIMPSON_DEPTH, -1, -1):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fq = h(np.concatenate([lm, rm]))
        flm, frm = fq[: len(lm)], fq[len(lm) :]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        done = (np.abs(err) <= 15.0 * tol) | ((b - a) < 1e-15 * np.maximum(np.abs(a), np.abs(b)))
        total += np.bincount(owner[done], weights=(left + right + err / 15.0)[done], minlength=npan)
        # splitting cannot mend a non-finite error, and depth 0 is the last level
        failed[owner[~done & (~np.isfinite(err) | (depth == 0))]] = True
        split = ~done & ~failed[owner]
        if not split.any():
            break
        lower_half = np.stack([a, m, fa, flm, fm, left])[:, split]
        upper_half = np.stack([m, b, fm, frm, fb, right])[:, split]
        a, b, fa, fm, fb, whole = np.concatenate([lower_half, upper_half], axis=1)
        tol = 0.5 * np.concatenate([tol[split], tol[split]])
        owner = np.concatenate([owner[split], owner[split]])
    total[failed] = np.nan
    return total


def _head_total(panels: np.ndarray, top: float, tol: float) -> float:
    """Integral over (0, top] from the panels (top 2^-k-1, top 2^-k], k =
    0, 1, ...: summed in that order until a panel decays below tol times
    the running total, then closed with a geometric remainder estimate."""
    total = 0.0
    prev = None
    for k, panel in enumerate(panels.tolist()):
        if math.isnan(panel):
            a, b = top * 2.0 ** (-k - 1), top * 2.0**-k
            raise QuadratureFailure(f"adaptive quadrature failed to converge on [{a}, {b}]")
        total += panel
        if prev is not None and panel < prev and panel < tol * max(abs(total), 1e-300):
            ratio = panel / prev
            return total + panel * ratio / (1.0 - ratio)
        prev = panel
    raise QuadratureFailure("head panels near zero did not decay; integrand not integrable?")


def _cumulative_integrals(
    profile: GarsiaProfile, gamma: float, d0: float, uppers: np.ndarray, lower: float, tol: float
) -> np.ndarray:
    """int_lower^u p(4s)/s psi^{-1}(Gamma / v(s/2)^2) ds for every u of the
    sorted array uppers (0 where u <= lower), from one adaptive Simpson
    sweep over all panels.

    The intervals between lower and consecutive upper limits are cut into
    panels at s = d0 2^k; each panel gets tolerance tol max(c, 1e-3 scale),
    with c its coarse midpoint estimate |(b - a) h((a + b) / 2)| and scale
    the sum of c over its interval.  lower=0 adds the head (0, top], top =
    min(d0, uppers[0]), as the 200 geometric panels (top 2^-k-1, top 2^-k]
    at tolerance 1e-3 tol, of which _head_total uses as many as it needs;
    the integrand must be integrable at 0."""
    if lower < 0:
        raise QuadratureFailure("lower limit must be >= 0")
    lo = min(d0, float(uppers[0])) if lower == 0.0 else lower
    bounds = np.concatenate([[lo], uppers[uppers > lo]])
    hi = float(bounds[-1])
    k = np.arange(math.floor(math.log2(lo / d0)) - 1, math.ceil(math.log2(hi / d0)) + 2)
    dyadic = np.ldexp(d0, k)
    cuts = [bounds, dyadic[(dyadic > lo) & (dyadic < hi)]]
    if lower == 0.0:
        cuts.append(np.ldexp(lo, -np.arange(1, _HEAD_PANELS + 1)))
    cuts = np.unique(np.concatenate(cuts))
    a, b = cuts[:-1], cuts[1:]
    which = np.searchsorted(bounds, a, side="right") - 1  # interval of each panel, -1 in the head
    in_head = which < 0
    h = lambda s: _integrand_values(profile, gamma, s)
    mid = 0.5 * (a + b)
    fcut, fmid = h(cuts), h(mid)
    coarse = np.abs((b - a) * fmid)
    scale = np.maximum(np.bincount(which + 1, weights=coarse, minlength=len(bounds)), 1e-300)
    ptol = np.where(in_head, 1e-3 * tol, tol * np.maximum(coarse, 1e-3 * scale[which + 1]))
    panels = _simpson_sweep(h, a, b, fcut[:-1], fmid, fcut[1:], ptol)
    failed = np.flatnonzero(np.isnan(panels) & ~in_head)
    if failed.size:
        i = failed[0]
        raise QuadratureFailure(f"adaptive quadrature failed to converge on [{a[i]}, {b[i]}]")
    head = _head_total(panels[in_head][::-1], lo, tol) if lower == 0.0 else 0.0
    per_interval = np.bincount(which[~in_head], weights=panels[~in_head], minlength=len(bounds) - 1)
    cum = np.cumsum(np.concatenate([[head], per_interval]))
    return cum[np.searchsorted(bounds, uppers)]


def garsia_integral_bound_curve(
    g: WeightedGraph,
    ctx: MetricContext,
    f,
    profile: GarsiaProfile,
    lower: float | None = None,
    gamma: float | None = None,
) -> np.ndarray:
    """Integral bounds for all pairs at once via one cumulative sweep.

    Returns the matrix of bounds; entries share one adaptive Simpson sweep
    over the panels between lower and the sorted distinct upper limits
    2 d(x, y), cut at s = d0 2^k, whose cumulative sums give every limit.
    Entries with 2 d(x, y) <= lower are 0."""
    _require_verified(ctx, profile)
    if gamma is None:
        gamma = gamma_functional(g, ctx, f, profile)
    if lower is None:
        lower = ctx.d0
    n = g.n
    off = ~np.eye(n, dtype=bool)
    uppers, which = np.unique(2.0 * ctx.d[off], return_inverse=True)
    out = np.zeros((n, n))
    out[off] = 4.0 * _cumulative_integrals(profile, gamma, ctx.d0, uppers, lower, QUAD_TOL)[which]
    return out
