"""Desk-scale studies tying the random walk statistics to their predicted
behavior on the self-similar families.

Every routine here is a pure function of (config, seed): each Monte Carlo
study runs its trials through `_trial_plan`, which alone assigns stream
indices (level-major, then start, then trial), so reruns are bit-exact.
Estimated tail curves carry 95% binomial confidence half-widths; cross-level
comparisons are stated as dispersion bounds on quantiles, never as
convergence claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (
    ExcessiveCensoring,
    InsufficientData,
    InsufficientLevels,
    InvalidProfile,
    InvariantViolation,
    RangeError,
)
from .garsia import ball_volume_checks
from .graphs import FamilySpec, WeightedGraph, _jsonable, generate
from .resistance import ResistanceMatrix, resistance_matrix, set_resistance
from .walk_sim import GROUP_WIDTH, RngStream, walk_group

DEFAULT_LAMBDA_GRID = tuple(0.5 * k for k in range(13))
DEFAULT_N_TRIALS = 2000
SMALL_GRAPH_STARTS = 30  # exhaustive starts at or below this size
MAX_CENSORED_FRACTION = 0.01  # most cover times a run may censor at the cap
Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def _graph_id(g: WeightedGraph) -> str:
    return f"{g.meta.get('family', 'graph')}-{g.meta.get('level', '?')}"


def _start_vertices(g: WeightedGraph) -> list[int]:
    """All vertices on small graphs; symmetry-orbit representatives else."""
    if g.n <= SMALL_GRAPH_STARTS:
        return list(range(g.n))
    return [int(v) for v in g.meta["start_reps"]]


def _wald_halfwidth(p: np.ndarray, n: int) -> np.ndarray:
    return Z_95 * np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n)


def _tail_probs(samples: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """P(sample >= lambda) on a shared sample set; exactly nonincreasing."""
    srt = np.sort(samples)
    return 1.0 - np.searchsorted(srt, lam, side="left") / len(samples)


def _fit_log_slope(lam: np.ndarray, prob: np.ndarray):
    """Least-squares slope of log(prob) against lambda where prob > 0."""
    keep = prob > 0
    if keep.sum() < 2:
        return None
    return float(np.polyfit(lam[keep], np.log(prob[keep]), 1)[0])


def _ks_pooled(a: np.ndarray, b: np.ndarray, points: int = 200) -> float:
    """KS distance between two samples on a pooled quantile grid."""
    grid = np.quantile(np.concatenate([a, b]), np.linspace(0.0, 1.0, points))
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


@dataclass(eq=False)
class TailCurve:
    """One estimated tail curve P(statistic >= lambda) on one graph."""

    kind: str  # thm-a | thm-b | sup-localtime | equicontinuity
    graph_id: str
    lambda_grid: np.ndarray
    prob_est: np.ndarray
    ci_halfwidth: np.ndarray
    n_trials: int
    starts: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    bound: np.ndarray | None = None
    fitted_slope: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lambda_grid = np.asarray(self.lambda_grid, dtype=float)
        self.prob_est = np.asarray(self.prob_est, dtype=float)
        self.ci_halfwidth = np.asarray(self.ci_halfwidth, dtype=float)
        if np.any(np.diff(self.lambda_grid) <= 0):
            raise RangeError("lambda grid must be strictly increasing")
        if not ((0 <= self.prob_est) & (self.prob_est <= 1)).all():  # NaN fails both
            raise InvariantViolation("tail probabilities must lie in [0, 1]")
        slack = self.ci_halfwidth[1:] + self.ci_halfwidth[:-1]
        if np.any(np.diff(self.prob_est) > slack + 1e-12):
            raise InvariantViolation("tail curve increases beyond CI slack")

    def to_jsonable(self) -> dict:
        out = {
            "kind": self.kind,
            "graph_id": self.graph_id,
            "lambda_grid": _jsonable(self.lambda_grid),
            "prob_est": _jsonable(self.prob_est),
            "ci_halfwidth": _jsonable(self.ci_halfwidth),
            "n_trials": self.n_trials,
            "starts": _jsonable(self.starts),
            "params": _jsonable(self.params),
            "extras": _jsonable(self.extras),
        }
        if self.bound is not None:
            out["bound"] = _jsonable(self.bound)
        if self.fitted_slope is not None:
            out["fitted_slope"] = float(self.fitted_slope)
        return out


@dataclass(eq=False)
class UvdReport:
    """Volume lower bounds against a gauge v at realized radii."""

    family: str
    alpha: float  # power exponent of the gauge v(r) = r^alpha
    levels: list
    per_level: list  # dicts: level, radii, min_ball_volume, c1, c2, c3
    c1_values: list
    c2_values: list
    c1_span: float  # max/min across levels
    c2_span: float
    passed: bool


@dataclass(eq=False)
class ExponentEstimate:
    """Log-log fits: volume exponent alpha and walk exponent beta."""

    family: str
    levels: list
    alpha_hat: float
    beta_hat: float
    alpha_resid: float  # rms residual of the volume fit
    beta_resid: float
    n_volume_points: int
    n_pair_points: int


@dataclass(eq=False)
class ScalingReport:
    """Cross-level distributional comparison of a rescaled quantity."""

    kind: str
    levels: list
    n_trials: int
    functionals: dict  # name -> {grid, cdfs per level, ks_successive, means}
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for entry in self.functionals.values():
            for ks in entry.get("ks_successive", []):
                if not (0.0 <= ks <= 1.0):
                    raise InvariantViolation("KS statistic outside [0, 1]")


@dataclass(eq=False)
class CarpetGrowthReport:
    """Growth rate of the side-to-side resistance across carpet levels."""

    levels: list
    set_resistances: list
    ratios: list
    rho_hat: float
    ratio_spread: float  # max/min of successive ratios
    wired_check_level: int
    wired_max_excess: float  # max of R_wired - R_unwired over pairs


## Volume growth and exponents.

def check_uvd(family: str, levels, v_exponent: float) -> UvdReport:
    """Exact ball-volume lower bounds against the gauge v(r) = r^v_exponent.

    For each level, every realized radius r in [r_0, r_diam] of the
    resistance metric gets min_x mu(B_R(x, r)) computed exactly; c1 is the
    largest constant with c1 v(r) <= that minimum everywhere, c2 the
    smallest with m <= c2 v(r_diam), and c3 the observed doubling constant
    max v(2r)/v(r).  passed requires the fitted constants to reproduce the
    inequalities on every checked radius.
    """
    alpha = float(v_exponent)
    vfun = lambda r: np.atleast_1d(r) ** alpha
    levels = [int(l) for l in levels]
    if not levels:
        raise InsufficientLevels("need at least one level")
    per_level = []
    c1s, c2s = [], []
    passed = True
    for level in levels:
        g = generate(FamilySpec(family, level))
        R = resistance_matrix(g)
        radii, minvols = ball_volume_checks(g.mu, R.matrix)
        v = vfun(radii)
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise InvalidProfile("volume gauge must be positive and finite on realized radii")
        v_diam = float(vfun(R.r_diam)[0])
        c1 = float(np.min(minvols / v))
        c2 = float(g.total_mass / v_diam)
        c3 = float(np.max(vfun(2.0 * radii) / v))
        ok = bool(
            np.all(c1 * v <= minvols * (1 + 1e-12))
            and g.total_mass <= c2 * v_diam * (1 + 1e-12)
        )
        passed = bool(passed and ok and c1 > 0)
        per_level.append(
            {
                "level": level,
                "radii": radii,
                "min_ball_volume": minvols,
                "c1": c1,
                "c2": c2,
                "c3": c3,
                "inequalities_hold": ok,
            }
        )
        c1s.append(c1)
        c2s.append(c2)
    return UvdReport(
        family=family,
        alpha=alpha,
        levels=levels,
        per_level=per_level,
        c1_values=c1s,
        c2_values=c2s,
        c1_span=float(max(c1s) / min(c1s)),
        c2_span=float(max(c2s) / min(c2s)),
        passed=passed,
    )


def _euclidean_matrix(g: WeightedGraph) -> np.ndarray:
    c = g.coord_array()
    diff = c[:, None, :] - c[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


# length contraction ratio of each family's cell maps
_FAMILY_LENGTH_SCALE = {
    "path": 2.0,
    "gasket": 2.0,
    "vicsek": 3.0,
    "carpet": 3.0,
    "wired_carpet": 3.0,
}


def _corner_volume_points(g: WeightedGraph, rho: float):
    """Corner-ball volumes at scale-aligned radii snapped to realized values.

    A closed ball around the corner at radius diam * rho^-j contains a
    scaled copy of the graph plus a scale-independent boundary mass, so the
    volumes obey vol = C r^alpha + B exactly; snapping each radius down to
    the nearest realized corner distance keeps that structure on lattices
    whose distances miss the aligned radii.  The corner's own mass is
    removed (it is part of B anyway) to keep volumes positive-scaling.
    """
    corner = int(g.meta.get("corners", g.meta.get("endpoints"))[0])
    c = g.coord_array()
    drow = np.sqrt(((c - c[corner]) ** 2).sum(axis=1))
    realized = np.unique(drow[drow > 0])
    diam = float(realized[-1])
    rs, vols = [], []
    j = 1
    while True:
        target = diam * rho**-j
        k = np.searchsorted(realized, target * (1 + 1e-12), side="right") - 1
        if k < 0:
            break
        r = float(realized[k])
        vol = float(g.mu[drow <= r * (1 + 1e-12)].sum() - g.mu[corner])
        if not rs or r < rs[-1]:
            rs.append(r)
            vols.append(vol)
        j += 1
    return np.array(rs), np.array(vols)


def estimate_exponents(family: str, levels) -> ExponentEstimate:
    """Exponent fits in the Euclidean embedding, pooled over levels.

    alpha_hat comes from corner-anchored ball volumes at radii aligned with
    the family's own contraction ratio: the constant boundary mass B is
    profiled out per level (vol = C r^alpha + B holds exactly there), and
    the reported slope is the pooled per-level-demeaned log-log fit of the
    corrected volumes.  beta_hat = alpha_hat + pooled demeaned slope of
    log R against log Euclidean distance over all vertex pairs.
    """
    from scipy.optimize import minimize_scalar

    levels = [int(l) for l in levels]
    if len(levels) < 2:
        raise InsufficientData("need at least two levels to pool a fit")
    rho = _FAMILY_LENGTH_SCALE[family]
    graphs = [generate(FamilySpec(family, level)) for level in levels]
    data = []
    for g in graphs:
        rs, vols = _corner_volume_points(g, rho)
        if len(rs):
            data.append((rs, vols))
    n_vol = sum(len(rs) for rs, _ in data)
    if n_vol < 2 * len(data) + 1:
        raise InsufficientData(
            f"{n_vol} volume points cannot pin a shared exponent over "
            f"{len(data)} levels; use deeper levels"
        )

    def pooled_sse(alpha):
        tot = 0.0
        for rs, vols in data:
            A = np.stack([rs**alpha, np.ones_like(rs)], axis=1)
            coef, *_ = np.linalg.lstsq(A, vols, rcond=None)
            tot += float(np.sum((A @ coef - vols) ** 2) / np.sum(vols**2))
        return tot

    opt = minimize_scalar(pooled_sse, bounds=(0.2, 4.0), method="bounded",
                          options={"xatol": 1e-12})
    xs, ys = [], []
    for rs, vols in data:
        A = np.stack([rs**opt.x, np.ones_like(rs)], axis=1)
        coef, *_ = np.linalg.lstsq(A, vols, rcond=None)
        corrected = vols - coef[1]
        keep = corrected > 0
        if keep.sum() >= 2:
            lx, ly = np.log(rs[keep]), np.log(corrected[keep])
            xs.append(lx - lx.mean())
            ys.append(ly - ly.mean())
    if not xs:
        raise InsufficientData("background correction left no usable volume points")
    vx, vy = np.concatenate(xs), np.concatenate(ys)
    alpha_hat = float(vx @ vy / (vx @ vx))
    alpha_resid = float(np.sqrt(np.mean((vy - alpha_hat * vx) ** 2)))

    pair_x, pair_y = [], []
    for g in graphs:
        D = _euclidean_matrix(g)
        R = resistance_matrix(g).matrix
        iu = np.triu_indices(g.n, k=1)
        lx, ly = np.log(D[iu]), np.log(R[iu])
        pair_x.append(lx - lx.mean())
        pair_y.append(ly - ly.mean())
    px, py = np.concatenate(pair_x), np.concatenate(pair_y)
    slope = float(px @ py / (px @ px))
    beta_resid = float(np.sqrt(np.mean((py - slope * px) ** 2)))
    return ExponentEstimate(
        family=family,
        levels=levels,
        alpha_hat=alpha_hat,
        beta_hat=float(alpha_hat + slope),
        alpha_resid=alpha_resid,
        beta_resid=beta_resid,
        n_volume_points=n_vol,
        n_pair_points=len(px),
    )


## Tail curves.

def _trial_plan(contexts, n_trials: int, seed: int, trial):
    """Run a Monte Carlo study in the documented stream order.

    Level-major, then start, then trial, with the stream index k counting
    from 0 across the whole call.  Each level's S * n_trials trials, in that
    order, are cut into ceil(S * n_trials / GROUP_WIDTH) consecutive groups
    of near-equal size, so one group may span several starts.
    `trial(ctx, starts, rngs)` runs one group at once, its trial j from
    vertex starts[j] on rngs[j], and returns (values, flagged): values of
    shape [len(rngs)] or [len(rngs), F], and flagged whether each trial was
    cut short (censored or unsaturated; a bool broadcasts).  Each trial
    reads only its own stream, so the grouping cannot change a value.
    Yields (ctx, samples, flagged) per level context, after that level's
    trials: samples[f, i, j] holds the value of functional f of trial j
    from ctx.starts[i], and flagged[i, j] its flag.
    """
    k = 0
    for ctx in contexts:
        S = len(ctx.starts)
        total = S * n_trials
        starts = np.repeat(np.asarray(ctx.starts, dtype=np.int64), n_trials)
        groups = -(-total // GROUP_WIDTH)
        cuts = [total * i // groups for i in range(groups + 1)]
        rows, flags = [], []
        for a, b in zip(cuts[:-1], cuts[1:]):
            values, flagged = trial(ctx, starts[a:b], [RngStream(seed, k + j) for j in range(a, b)])
            rows.append(np.asarray(values, dtype=float).reshape(b - a, -1))
            flags.append(np.broadcast_to(flagged, b - a))
        k += total
        samples = np.moveaxis(np.concatenate(rows).reshape(S, n_trials, -1), 2, 0)
        flagged = np.concatenate(flags).astype(bool).reshape(S, n_trials)
        yield ctx, np.ascontiguousarray(samples), flagged


def _level_contexts(family, levels, starts, **derived):
    """Per-level contexts, built lazily in level order: the level, its graph
    g, starts(g), then derived[name](ctx) for each name in turn."""
    for level in levels:
        g = generate(FamilySpec(family, int(level)))
        ctx = SimpleNamespace(level=int(level), g=g, starts=starts(g))
        for name, fn in derived.items():
            setattr(ctx, name, fn(ctx))
        yield ctx


def _corner_start(g: WeightedGraph) -> list[int]:
    return [int(g.meta["corners"][0])]


def _tail_curves(kind, contexts, lam, n_trials, seed, trial, params, extras=None):
    """Run a tail study and give each level its worst-case (max over starts)
    tail curve; params(ctx) and extras(samples, flagged) fill in the rest."""
    lam = np.asarray(lam, dtype=float)
    curves = []
    for c, samples, flagged in _trial_plan(contexts, n_trials, seed, trial):
        probs = np.stack([_tail_probs(s, lam) for s in samples[0]])
        prob = probs[np.argmax(probs, axis=0), np.arange(len(lam))]
        ex = extras(samples[0], flagged) if extras else {}
        ex["per_start_prob"] = probs
        curves.append(TailCurve(
            kind=kind,
            graph_id=_graph_id(c.g),
            lambda_grid=lam.copy(),
            prob_est=prob,
            ci_halfwidth=_wald_halfwidth(prob, n_trials),
            n_trials=n_trials,
            starts=[int(s) for s in c.starts],
            params=params(c),
            fitted_slope=_fit_log_slope(lam, prob),
            extras=ex,
        ))
    return curves


def _scaled_difference_trial(c, starts, rngs):
    """The thm-a running max under the level's gauge, scale and horizon."""
    return c.scale * walk_group(c.g, starts, rngs, c.steps, inv_den=c.inv_den).statistic, False


def _require_trials(n_trials: int):
    if n_trials < 100:
        raise RangeError("n_trials must be at least 100")


def tail_curve_thm_a(
    family: str,
    levels,
    T: float,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    n_trials: int = DEFAULT_N_TRIALS,
    seed: int = 0,
) -> list[TailCurve]:
    """Tail of max_{t <= T m r, x != y} r^{-1}|L_t(x) - L_t(y)| / Rt(x,y)^{1/2}.

    One curve per level, maximized over start vertices (exhaustive on small
    graphs, symmetry representatives on large ones).
    """
    _require_trials(n_trials)
    if T <= 0:
        raise RangeError("T must be positive")
    contexts = _level_contexts(
        family, levels, _start_vertices,
        R=lambda c: resistance_matrix(c.g),
        inv_den=lambda c: sqrt_gauge_reciprocal(c.R),
        scale=lambda c: 1.0 / c.R.r_diam,
        steps=lambda c: int(math.floor(T * c.g.total_mass * c.R.r_diam)),
    )
    return _tail_curves(
        "thm-a", contexts, lambda_grid, n_trials, seed, _scaled_difference_trial,
        params=lambda c: {"T": float(T), "steps": c.steps, "seed": seed},
    )


def tail_curve_thm_b(
    family: str,
    levels,
    L: float,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    n_trials: int = DEFAULT_N_TRIALS,
    seed: int = 0,
    cap_factor: float = 200.0,
) -> list[TailCurve]:
    """Tail of the L-truncated modulus sup_t max_pairs |tL(x) - tL(y)| / Rt^{1/2}
    with tL = min(L, L_t / r), against the closed-form bound 2 e^{1/2 - l^2/8L}.

    Trials stop at saturation (every vertex truncated), which freezes the
    statistic exactly; the step cap cap_factor * L * m * r only guards
    against runaways and the fraction it censors is reported.
    """
    _require_trials(n_trials)
    if L < 1:
        raise RangeError("truncation level must be >= 1")
    lam = np.asarray(lambda_grid, dtype=float)
    bound = 2.0 * np.exp(0.5 - lam**2 / (8.0 * L))
    contexts = _level_contexts(
        family, levels, _start_vertices,
        R=lambda c: resistance_matrix(c.g),
        inv_den=lambda c: sqrt_gauge_reciprocal(c.R),
        inc=lambda c: 1.0 / (c.g.mu * c.R.r_diam),
        cap=lambda c: int(math.ceil(cap_factor * L * c.g.total_mass * c.R.r_diam)),
    )

    def trial(c, starts, rngs):
        w = walk_group(c.g, starts, rngs, c.cap, inv_den=c.inv_den, inc=c.inc, level=L)
        return w.statistic, ~w.stopped

    curves = _tail_curves(
        "thm-b", contexts, lam, n_trials, seed, trial,
        params=lambda c: {"L": float(L), "step_cap": c.cap, "seed": seed},
        extras=lambda samples, unsat: {"unsaturated_fraction": int(unsat.sum()) / unsat.size},
    )
    for curve in curves:
        curve.bound = bound.copy()
    return curves


def sup_local_time_tail(
    family: str,
    levels,
    T: float,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    n_trials: int = DEFAULT_N_TRIALS,
    seed: int = 0,
) -> list[TailCurve]:
    """Tail of max_x r^{-1} L_{T m r}(x).

    The occupation identity pins sum_x L_t(x) mu_x = t, so the statistic is
    at least T deterministically; tails beyond that measure concentration.
    """
    _require_trials(n_trials)
    if T <= 0:
        raise RangeError("T must be positive")
    contexts = _level_contexts(
        family, levels, _start_vertices,
        R=lambda c: resistance_matrix(c.g),
        steps=lambda c: int(math.floor(T * c.g.total_mass * c.R.r_diam)),
        inv_mu_r=lambda c: 1.0 / (c.g.mu * c.R.r_diam),
    )

    def trial(c, starts, rngs):
        [counts] = walk_group(c.g, starts, rngs, c.steps).counts
        return np.max(counts * c.inv_mu_r, axis=1), False

    return _tail_curves(
        "sup-localtime", contexts, lambda_grid, n_trials, seed, trial,
        params=lambda c: {"T": float(T), "steps": c.steps, "seed": seed},
    )


EQUICONTINUITY_HOLDER = math.log(5.0 / 3.0) / (2.0 * math.log(2.0))


def _off_diagonal_reciprocal(M: np.ndarray, den) -> np.ndarray:
    """1 / den(M) off the diagonal of the square matrix M, zero on it."""
    off = ~np.eye(len(M), dtype=bool)
    out = np.zeros_like(M)
    out[off] = 1.0 / den(M[off])
    return out


def sqrt_gauge_reciprocal(R: ResistanceMatrix) -> np.ndarray:
    """1 / sqrt(Rt) off the diagonal, zero on it."""
    return _off_diagonal_reciprocal(R.matrix / R.r_diam, np.sqrt)


def _equicontinuity_gauge_reciprocal(g: WeightedGraph) -> np.ndarray:
    """1 / (|x-y|^H (1 + ln 1/|x-y|)^{1/2}) off the diagonal, zero on it."""
    return _off_diagonal_reciprocal(
        _euclidean_matrix(g),
        lambda d: d**EQUICONTINUITY_HOLDER * np.sqrt(1.0 + np.log(1.0 / d)),
    )


def modulus_equicontinuity_gasket(
    levels,
    T: float,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    n_trials: int = DEFAULT_N_TRIALS,
    seed: int = 0,
) -> list[TailCurve]:
    """Tail of (3/5)^i max_{t <= 5^i T} |dL| / (|x-y|^H (1 + ln 1/|x-y|)^{1/2})
    on gasket level i, |x-y| Euclidean, H = ln(5/3)/(2 ln 2), corner start.

    The per-trial statistic is retained, so each curve also reports its 99th
    percentile; across levels those percentiles should stay in a tight band.
    """
    _require_trials(n_trials)
    if T <= 0:
        raise RangeError("T must be positive")
    contexts = _level_contexts(
        "gasket", levels, _corner_start,
        inv_den=lambda c: _equicontinuity_gauge_reciprocal(c.g),
        steps=lambda c: int(math.floor(5.0**c.level * T)),
        scale=lambda c: (3.0 / 5.0) ** c.level,
    )
    return _tail_curves(
        "equicontinuity", contexts, lambda_grid, n_trials, seed, _scaled_difference_trial,
        params=lambda c: {"T": float(T), "steps": c.steps, "seed": seed,
                          "holder_exponent": EQUICONTINUITY_HOLDER},
        extras=lambda samples, _: {"p99": float(np.percentile(samples[0], 99.0))},
    )


## Distributional scaling studies on the gasket.

def _pooled_cdfs(by_level: dict, levels: list, **entry) -> dict:
    """Cross-level comparison of one functional: per-level means, successive
    KS statistics, and every level's CDF on one 200-point pooled grid."""
    entry["levels"] = levels
    entry["means"] = [float(by_level[level].mean()) for level in levels]
    entry["ks_successive"] = [
        _ks_pooled(by_level[a], by_level[b]) for a, b in zip(levels[:-1], levels[1:])
    ]
    pooled = np.concatenate([by_level[level] for level in levels])
    grid = np.quantile(pooled, np.linspace(0.0, 1.0, 200))
    entry["grid"] = grid
    entry["cdf"] = {
        level: np.searchsorted(np.sort(by_level[level]), grid, side="right") / len(by_level[level])
        for level in levels
    }
    return entry


def local_time_scaling(
    levels,
    t_values=(1.0,),
    n_trials: int = DEFAULT_N_TRIALS,
    seed: int = 0,
) -> ScalingReport:
    """Distributions of functionals of the rescaled field 6 (3/5)^i L_{5^i t}
    from matched corner starts on gasket levels i.

    Functionals per (t, trial): the field value at the starting corner, its
    max over vertices, and the occupation average 5^{-i} sum f L mu with f
    the Euclidean x-coordinate.  The exact identity 5^{-i} sum L mu =
    5^{-i} floor(5^i t) is asserted on every trial.  Successive-level KS
    statistics are computed on pooled 200-point grids.
    """
    _require_trials(n_trials)
    levels = [int(l) for l in levels]
    if len(levels) < 2:
        raise InsufficientLevels("need at least two levels to compare")
    keys = [(nm, t) for t in t_values for nm in ("corner_value", "max_value", "occupation_xcoord")]
    contexts = _level_contexts(
        "gasket", levels, _corner_start,
        xcoord=lambda c: c.g.coord_array()[:, 0],
        inv_mu=lambda c: 1.0 / c.g.mu,
        norm=lambda c: 6.0 * (3.0 / 5.0) ** c.level,
        occ_norm=lambda c: 5.0**-c.level,
        step_counts=lambda c: [int(math.floor(5.0**c.level * t)) for t in t_values],
    )

    def trial(c, starts, rngs):
        marks = sorted(c.step_counts)
        w = walk_group(c.g, starts, rngs, marks[-1], marks=marks)
        values = []
        for st in c.step_counts:
            counts = w.counts[marks.index(st)]
            if np.any(counts.sum(axis=1) != st):
                raise InvariantViolation("occupation identity failed on a trial")
            lt = counts * c.inv_mu
            values += [c.norm * lt[np.arange(len(lt)), starts], c.norm * lt.max(axis=1),
                       c.occ_norm * np.array([c.xcoord @ row for row in counts])]
        return np.stack(values, axis=1), False

    by_key = {key: {} for key in keys}
    for c, samples, _ in _trial_plan(contexts, n_trials, seed, trial):
        for f, key in enumerate(keys):
            by_key[key][c.level] = samples[f, 0]
    functionals = {
        f"{nm}@t={t:g}": _pooled_cdfs(by_level, levels, t=float(t))
        for (nm, t), by_level in by_key.items()
    }
    return ScalingReport(
        kind="local-time",
        levels=levels,
        n_trials=n_trials,
        functionals=functionals,
        extras={"normalization": "6*(3/5)^i, horizon 5^i t", "seed": seed},
    )


def _cover_cap(g: WeightedGraph, cap_factor: float) -> int:
    """Step cap of a cover-time trial: int(cap_factor * m * r * (1 + ln n))."""
    return int(cap_factor * g.total_mass * resistance_matrix(g).r_diam * (1.0 + math.log(g.n)))


def _cover_trial(ctx, starts, rngs):
    """Cover times from `starts`, right-censored at ctx.cap: (tau_cov, censored)."""
    w = walk_group(ctx.g, starts, rngs, ctx.cap, cover=True)
    return w.steps, ~w.stopped


def cover_time_scaling(
    levels,
    n_trials: int = 1000,
    seed: int = 0,
    cap_factor: float = 1000.0,
) -> ScalingReport:
    """Distributions of 5^{-i} tau_cov from corner starts on gasket levels i.

    Samples exceeding cap_factor * m * r * (1 + ln n) steps are right-censored
    at the cap; more than MAX_CENSORED_FRACTION of them fails the run.
    """
    _require_trials(n_trials)
    levels = [int(l) for l in levels]
    if len(levels) < 2:
        raise InsufficientLevels("need at least two levels to compare")
    contexts = _level_contexts(
        "gasket", levels, _corner_start, cap=lambda c: _cover_cap(c.g, cap_factor)
    )
    by_level, censored, caps = {}, [], []
    for c, taus, flagged in _trial_plan(contexts, n_trials, seed, _cover_trial):
        ncens = int(flagged.sum())
        frac = ncens / n_trials
        if frac > MAX_CENSORED_FRACTION:
            raise ExcessiveCensoring(
                f"level {c.level}: {frac:.2%} of cover times censored at cap {c.cap}"
            )
        by_level[c.level] = 5.0**-c.level * taus[0, 0]
        censored.append(ncens)
        caps.append(c.cap)
    return ScalingReport(
        kind="cover-time",
        levels=levels,
        n_trials=n_trials,
        functionals={"rescaled_cover_time": _pooled_cdfs(by_level, levels)},
        extras={"censored_per_level": censored, "caps": caps, "seed": seed},
    )


## Carpet resistance growth.

def _side_sets(g: WeightedGraph):
    xs = g.coord_array()[:, 0]
    lo, hi = xs.min(), xs.max()
    left = [int(i) for i in np.flatnonzero(np.isclose(xs, lo, rtol=0, atol=1e-12))]
    right = [int(i) for i in np.flatnonzero(np.isclose(xs, hi, rtol=0, atol=1e-12))]
    return left, right


def carpet_rho_estimate(levels, wired_check_level: int = 1) -> CarpetGrowthReport:
    """Growth rate of the left-to-right set resistance across carpet levels.

    rho_hat is the geometric mean of successive resistance ratios on the
    plain (unwired) carpets; the wired variant only enters the monotonicity
    cross-check R_wired <= R_unwired on the shared vertices of level
    wired_check_level.  Raises
    InvariantViolation if the estimated growth rate is not > 1.
    """
    levels = sorted(int(l) for l in levels)
    if len(levels) < 2:
        raise InsufficientLevels("need at least two carpet levels for a ratio")
    res = []
    for level in levels:
        g = generate(FamilySpec("carpet", level))
        left, right = _side_sets(g)
        res.append(float(set_resistance(g, left, right)))
    ratios = [res[i + 1] / res[i] for i in range(len(res) - 1)]
    rho_hat = float(math.exp(np.mean(np.log(ratios))))
    if rho_hat <= 1.0:
        raise InvariantViolation(f"resistance growth rate {rho_hat!r} is not > 1")
    return CarpetGrowthReport(
        levels=levels,
        set_resistances=res,
        ratios=ratios,
        rho_hat=rho_hat,
        ratio_spread=float(max(ratios) / min(ratios)),
        wired_check_level=wired_check_level,
        wired_max_excess=_wired_vs_unwired_excess(int(wired_check_level)),
    )


def _wired_vs_unwired_excess(level: int) -> float:
    """max over shared vertex pairs of R_wired - R_unwired (should be <= 0)."""
    g = generate(FamilySpec("carpet", level))
    gw = generate(FamilySpec("wired_carpet", level))
    vmap = gw.meta["vertex_map"]
    R = resistance_matrix(g).matrix
    Rw = resistance_matrix(gw).matrix
    interior = np.setdiff1d(np.arange(g.n), g.meta["boundary"])
    wired = np.array([vmap[v] for v in interior.tolist()], dtype=np.int64)
    excess = Rw[np.ix_(wired, wired)] - R[np.ix_(interior, interior)]
    return float(excess[np.triu_indices(len(interior), k=1)].max(initial=-math.inf))
