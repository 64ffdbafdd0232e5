"""The three benchmark workloads: their ops, the inputs each op receives, and
the checks each op's output must pass.

Every op calls resistwalk through module attributes looked up at call time
(`rw.cli_io.run_command`, `rw.garsia.gamma_functional`, ...), so the tracing
shim sees every call.  Inputs are derived from the seed only; the program
receives nothing else.

Each op has a JSON-able `inputs` description.  Its digest, with the op name,
is the key goldens are stored under, so an op whose inputs do not depend on
the seed (the `resist` run, the carpet study, the corner resistances) is
checked against its golden at every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("mc-tails", "exact-solve", "all-pairs")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0

# what one item is, per workload (items_per_s counts these)
ITEM = {"mc-tails": "trials", "exact-solve": "queries", "all-pairs": "functions"}

GASKET_RESISTANCE_EXPONENT = math.log(3) / math.log(5 / 3)
Z_95 = 1.959963984540054
SCHEMA = "resistwalk/1"


@dataclass
class Op:
    """One operation of a workload.

    fn(ctx) runs the op and returns its raw result.  summarize(result, ctx)
    turns it into {"files": {name: sha256}, "values": {name: number|list},
    "bytes": int, "nfiles": int}; check(summary, result, checker) returns
    failure messages from the analytic and structural checks.  rel_tol is
    the relative tolerance for value goldens.
    """

    name: str
    inputs: dict
    fn: Callable[[Any], Any]
    summarize: Callable[[Any, Any], dict]
    check: Callable[[dict, Any, Any], list] = lambda s, r, c: []
    items: int = 0
    rel_tol: float = 0.0

    @property
    def key(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, separators=(",", ":"))
        return f"{self.name} {hashlib.sha256(blob.encode()).hexdigest()[:16]}"


@dataclass
class Ctx:
    """What ops share within one pass: the package, the output root, the
    tracer when tracing, and per-pass state handed from op to op."""

    rw: Any
    out_root: Path
    tracer: Any = None
    state: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- CLI ops ---------------------------------------------------------------------


def _cli_summary(manifest, ctx, op_dir: Path) -> dict:
    """Digests of the output files.  bytes counts the outputs only: the
    manifest's length varies with the wall-clock time it records."""
    files, size = {}, 0
    for name, digest in manifest.outputs.items():
        files[name] = sha256_file(op_dir / name)
        size += (op_dir / name).stat().st_size
        if files[name] != digest:
            files[name] = f"manifest-mismatch:{files[name]}"
    return {"files": files, "values": {}, "bytes": size, "nfiles": len(files) + 1}


def cli_op(name, cfg, items=0, check=None) -> Op:
    doc = {"schema": SCHEMA, **cfg}
    text = json.dumps(doc, sort_keys=True)

    def fn(ctx):
        cli = ctx.rw.cli_io
        return cli.run_command(cli.parse_config(text), out_dir=str(ctx.out_root / name))

    def summarize(manifest, ctx):
        return _cli_summary(manifest, ctx, ctx.out_root / name)

    def run_check(summary, manifest, checker):
        msgs = [f"{f}: file differs from its manifest digest" for f, d in summary["files"].items()
                if d.startswith("manifest-mismatch")]
        if check is not None and not msgs:
            msgs += check(checker.out_root / name, cfg, checker)
        return msgs

    return Op(name=name, inputs=doc, fn=fn, summarize=summarize, check=run_check, items=items)


def _read_csv_rows(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_tailcurves(kind, grid, n_trials, statistic_floor=None):
    """Structural checks on every tailcurve CSV of a tail-curve exp run."""

    def check(op_dir: Path, cfg, checker):
        msgs = []
        for level in cfg["levels"]:
            path = op_dir / f"tailcurve_{kind}_{level}.csv"
            header, rows = _read_csv_rows(path)
            if header != "lambda,prob_est,ci_halfwidth,n_trials":
                msgs.append(f"{path.name}: header {header!r}")
                continue
            lam = [float(r[0]) for r in rows]
            p = np.array([float(r[1]) for r in rows])
            hw = np.array([float(r[2]) for r in rows])
            if lam != [float(x) for x in grid]:
                msgs.append(f"{path.name}: lambda column {lam} is not the config grid")
            if any(int(r[3]) != n_trials for r in rows):
                msgs.append(f"{path.name}: n_trials column is not {n_trials}")
            if np.any(p < 0) or np.any(p > 1) or np.any(np.diff(p) > 0):
                msgs.append(f"{path.name}: tail probabilities not a nonincreasing curve in [0, 1]")
            wald = Z_95 * np.sqrt(np.clip(p * (1 - p), 0, None) / n_trials)
            if np.any(np.abs(hw - wald) > 1e-12 * np.maximum(wald, 1e-300)):
                msgs.append(f"{path.name}: ci_halfwidth is not the Wald half-width")
            if statistic_floor is not None:
                below = [pp for lv, pp in zip(lam, p) if lv < statistic_floor and pp != 1.0]
                if below:
                    msgs.append(f"{path.name}: P(stat >= lambda) < 1 below the deterministic floor")
        return msgs

    return check


def _check_cover(levels):
    def check(op_dir: Path, cfg, checker):
        rep = json.loads((op_dir / "scaling_report.json").read_text())
        msgs = []
        entry = rep["functionals"]["rescaled_cover_time"]
        for level, mean in zip(levels, entry["means"]):
            n = _family_n("gasket", level)
            if mean < (n - 1) * 5.0**-level:
                msgs.append(f"cover level {level}: mean {mean} below (n-1) 5^-level")
            cdf = np.array(entry["cdf"][str(level)])
            if np.any(np.diff(cdf) < 0) or cdf[-1] != 1.0:
                msgs.append(f"cover level {level}: cdf not a distribution function")
        if any(rep["extras"]["censored_per_level"]):
            msgs.append("cover: censored samples")
        return msgs

    return check


def _check_carpet(op_dir: Path, cfg, checker):
    rep = json.loads((op_dir / "carpet_report.json").read_text())
    msgs = []
    if not rep["rho_hat"] > 1.0:
        msgs.append(f"carpet: rho_hat {rep['rho_hat']} not > 1")
    if rep["wired_max_excess"] is not None and rep["wired_max_excess"] > 1e-9:
        msgs.append(f"carpet: wired resistance exceeds unwired by {rep['wired_max_excess']}")
    res = rep["set_resistances"]
    if any(b <= a for a, b in zip(res, res[1:])):
        msgs.append("carpet: set resistance not increasing with level")
    return msgs


def _check_uvd(op_dir: Path, cfg, checker):
    rep = json.loads((op_dir / "uvd_report.json").read_text())
    msgs = []
    if not rep["passed"]:
        msgs.append("uvd: report not passed")
    if not all(lv["inequalities_hold"] for lv in rep["per_level"]):
        msgs.append("uvd: volume inequalities fail on some level")
    return msgs


def _oracle_op(name, family, level, x, y) -> Op:
    cfg = {"command": "oracle", "family": family, "level": level, "x": x, "y": y}
    op = cli_op(name, cfg, items=1)
    base_summarize = op.summarize
    base_check = op.check

    def summarize(manifest, ctx):
        s = base_summarize(manifest, ctx)
        doc = json.loads((ctx.out_root / name / f"oracle_{family}_{level}.json").read_text())
        ex = doc["excursion_visits"]
        s["values"] = {
            "hit_before_return_prob": doc["hit_before_return_prob"],
            "expected_return_time": doc["expected_return_time"],
            "commute_time": doc["commute_time"],
            "p_reach": ex["params"]["p_reach"],
            "p_end": ex["params"]["p_end"],
            "mean_eta": ex["params"]["mean_eta"],
            "second_central_moment_eta": ex["params"]["second_central_moment_eta"],
            "pmf": ex["pmf"],
        }
        return s

    def check(summary, manifest, checker):
        msgs = base_check(summary, manifest, checker)
        v = summary["values"]
        g, R = checker.resistance(family, level, x, y)
        mu_x, mu_y, m = float(g.mu[x]), float(g.mu[y]), float(g.total_mass)
        if abs(v["hit_before_return_prob"] - 1.0 / (mu_x * R)) > 1e-10:
            msgs.append(f"{name}: P_x(tau_y < tau_x+) != 1/(mu_x R) (c01)")
        if abs(v["expected_return_time"] - m / mu_x) > 1e-10 * (m / mu_x):
            msgs.append(f"{name}: E_x tau_x+ != m/mu_x (c02)")
        if abs(v["commute_time"] - m * R) > 1e-8 * (m * R):
            msgs.append(f"{name}: commute time != m R (c02)")
        closed = checker.rw.exact_chain.excursion_visit_law_from_resistance(mu_x, mu_y, R, len(v["pmf"]) - 1)
        if float(np.max(np.abs(np.array(v["pmf"]) - closed.pmf))) > 1e-10:
            msgs.append(f"{name}: excursion law differs from its closed form (c03)")
        return msgs

    op.summarize, op.check, op.rel_tol = summarize, check, 1e-12
    return op


# -- direct API ops ---------------------------------------------------------------


def _corner_resistance_op(name, family, level, analytic=None) -> Op:
    """Generate the graph fresh and solve R between its first two corners
    (the two endpoints of a path)."""
    inputs = {"query": "effective_resistance", "family": family, "level": level, "pair": "corners"}

    def fn(ctx):
        rw = ctx.rw
        g = rw.graphs.generate(rw.graphs.FamilySpec(family, level))
        ends = g.meta["endpoints"] if family == "path" else g.meta["corners"]
        return rw.resistance.effective_resistance(g, int(ends[0]), int(ends[1]))

    def summarize(R, ctx):
        return {"files": {}, "values": {"R": R}, "bytes": 0, "nfiles": 0}

    def check(summary, R, checker):
        if analytic is not None and abs(R - analytic) > 1e-9 * analytic:
            return [f"{name}: R = {R!r}, expected {analytic!r}"]
        return []

    return Op(name=name, inputs=inputs, fn=fn, summarize=summarize, check=check, items=1, rel_tol=1e-12)


def _chain_setup_op(level) -> Op:
    """c04-style context on a gasket: resistance metric, fitted volume gauge,
    sqrt distance gauge and exp|.| psi, with the volume bound verified."""
    inputs = {"chain_setup": "gasket", "level": level}

    def fn(ctx):
        rw = ctx.rw
        g = rw.graphs.generate(rw.graphs.FamilySpec("gasket", level))
        rm = rw.resistance.resistance_matrix(g)
        d = rm.rescaled().matrix
        mctx = rw.garsia.MetricContext(g, d)
        _, v = rw.garsia.fit_power_volume(g.mu, d, GASKET_RESISTANCE_EXPONENT)
        psi, psi_inv = rw.garsia.exp_abs_psi(1.0)
        p = rw.garsia.sqrt_gauge()
        if ctx.tracer is not None:
            p = ctx.tracer.counting(p, "garsia.integrand_points")
        profile = rw.garsia.GarsiaProfile(v=v, p=p, psi=psi, psi_inv=psi_inv)
        worst = mctx.verify_volume(profile)
        ctx.state["chain"] = (g, rm, mctx, profile)
        return worst

    def summarize(worst, ctx):
        return {"files": {}, "values": {"worst_volume_ratio": worst}, "bytes": 0, "nfiles": 0}

    def check(summary, worst, checker):
        return [] if worst >= 1.0 else [f"chain setup: volume ratio {worst} < 1"]

    return Op(name="chain-setup", inputs=inputs, fn=fn, summarize=summarize, check=check, rel_tol=1e-12)


def _garsia_op(name, field_spec, gaussian=None) -> Op:
    """Bound one function: Gamma, the all-pairs chaining matrix and the
    lower=0 integral-bound curve.  The function is a Gaussian field given as
    input, or the local times of a walk snapshot simulated inside the op."""

    def fn(ctx):
        rw = ctx.rw
        g, rm, mctx, profile = ctx.state["chain"]
        if gaussian is not None:
            f = gaussian
        else:
            steps = int(round(g.total_mass * rm.r_diam))  # one natural time unit
            rng = rw.walk_sim.RngStream(field_spec["stream_seed"], field_spec["stream"])
            walk = rw.walk_sim.run_walk(g, int(g.meta["corners"][0]), steps, rng)
            f = walk.local_times() / rm.r_diam
        gam = rw.garsia.gamma_functional(g, mctx, f, profile)
        chain = rw.garsia.garsia_bound_matrix(g, mctx, f, profile, gamma=gam)
        integ = rw.garsia.garsia_integral_bound_curve(g, mctx, f, profile, lower=0.0, gamma=gam)
        return f, gam, chain, integ

    def summarize(result, ctx):
        f, gam, chain, integ = result
        n = len(f)
        probe = [(0, n - 1), (1, n // 2), (n // 3, n - 2)]
        values = {
            "gamma": gam,
            "chain_row_sums": chain.sum(axis=1).tolist(),
            "integral_row_sums": integ.sum(axis=1).tolist(),
            "chain_max": float(chain.max()),
            "integral_max": float(integ.max()),
            "chain_probe": [float(chain[i, j]) for i, j in probe],
            "integral_probe": [float(integ[i, j]) for i, j in probe],
        }
        return {"files": {}, "values": values, "bytes": 0, "nfiles": 0}

    def check(summary, result, checker):
        f, gam, chain, integ = result
        off = ~np.eye(len(f), dtype=bool)
        df = np.abs(f[:, None] - f[None, :])
        msgs = []
        if float((chain - df)[off].min()) < -1e-9:
            msgs.append(f"{name}: chaining bound below |f(x) - f(y)| (c04)")
        if float((integ - chain)[off].min()) < -1e-9:
            msgs.append(f"{name}: integral bound below the chaining sum (c04)")
        return msgs

    return Op(name=name, inputs={"function": field_spec}, fn=fn, summarize=summarize,
              check=check, items=1, rel_tol=1e-6)


# -- workload builders ---------------------------------------------------------------


def _family_n(family, level):
    """Vertex count of a family graph, so that setup need not build it."""
    return {"gasket": (3 ** (level + 1) + 3) // 2, "vicsek": 4 * 5**level + 1,
            "carpet": 8 ** (level + 1)}[family]


def _tail_trials(rw, levels, n_trials):
    """Trials one tail-curve exp run simulates: n_trials per start vertex,
    with every vertex a start on small graphs and the family's start
    representatives otherwise."""
    total = 0
    for level in levels:
        g = rw.graphs.generate(rw.graphs.FamilySpec("gasket", level))
        starts = g.n if g.n <= rw.experiments.SMALL_GRAPH_STARTS else len(g.meta["start_reps"])
        total += starts * n_trials
    return total


def _mc_tails(rw, seed, size):
    """The tail-curve kinds run one level per `exp` run, so that a pass is ten
    ops of 0.1-2 s rather than four of up to 4 s; each op's best time then
    comes from more independent moments of the host."""
    rnd = random.Random(seed)
    levels = [1, 2, 3] if size == "full" else [1]
    cover_levels = [2, 3, 4] if size == "full" else [2, 3]
    n = 100  # the program's minimum trial count
    grid_b = [2.0, 3.0, 4.0]
    grid = [0.5 * k for k in range(13)]  # the CLI default grid
    kinds = [
        ("thm-b", {"L": 1.0, "lambda_grid": grid_b}, _check_tailcurves("thm-b", grid_b, n)),
        ("thm-a", {"T": 1.0}, _check_tailcurves("thm-a", grid, n, statistic_floor=1e-300)),
        ("sup-lt", {"T": 1.0}, _check_tailcurves("sup-lt", grid, n, statistic_floor=1.0)),
    ]
    ops = []
    for kind, params, check in kinds:
        for level in levels:
            cfg = {"command": "exp", "kind": kind, "family": "gasket", "levels": [level],
                   "n_trials": n, "seed": rnd.randrange(2**31), **params}
            ops.append(cli_op(f"{kind}-{level}", cfg, items=_tail_trials(rw, [level], n), check=check))
    ops.append(cli_op("cover", {"command": "exp", "kind": "cover", "levels": cover_levels, "n_trials": n,
                                "seed": rnd.randrange(2**31)},
                      items=n * len(cover_levels), check=_check_cover(cover_levels)))
    return ops


def _exact_solve(rw, seed, size):
    rnd = random.Random(seed)
    top = 7 if size == "full" else 4
    path_len = rw.resistance.DENSE_LIMIT + 1000 if size == "full" else rw.resistance.DENSE_LIMIT + 1
    ops = [
        _corner_resistance_op(f"R-gasket-{top - 1}", "gasket", top - 1, (2 / 3) * (5 / 3) ** (top - 1)),
        _corner_resistance_op(f"R-gasket-{top}", "gasket", top, (2 / 3) * (5 / 3) ** top),
        _corner_resistance_op(f"R-path-{path_len}", "path", path_len, float(path_len)),
        cli_op("exp-carpet", {"command": "exp", "kind": "carpet",
                              "levels": [0, 1, 2, 3] if size == "full" else [0, 1]},
               items=1, check=_check_carpet),
    ]
    graphs = [("gasket", 5), ("gasket", 6), ("vicsek", 3), ("carpet", 2)]
    pairs = 3
    if size == "tiny":
        graphs, pairs = [("gasket", 2), ("vicsek", 1), ("carpet", 1)], 1
    for family, level in graphs:
        for k in range(pairs):
            x, y = rnd.sample(range(_family_n(family, level)), 2)
            ops.append(_oracle_op(f"oracle-{family}-{level}-{k}", family, level, x, y))
    return ops


def _all_pairs(rw, seed, size):
    rnd = random.Random(seed)
    gen = np.random.default_rng(rnd.randrange(2**63))
    chain_level = 3 if size == "full" else 2
    n_gauss, n_walk = (54, 6) if size == "full" else (2, 1)
    n = _family_n("gasket", chain_level)
    ops = [
        cli_op("resist", {"command": "resist", "family": "gasket",
                          "levels": [5, 6] if size == "full" else [2, 3]}),
        cli_op("exp-uvd", {"command": "exp", "kind": "uvd", "family": "gasket",
                           "levels": [3, 4, 5] if size == "full" else [2, 3],
                           "v_exponent": GASKET_RESISTANCE_EXPONENT}, check=_check_uvd),
        _chain_setup_op(chain_level),
    ]
    for k in range(n_gauss):
        values = gen.standard_normal(n)
        spec = {"gaussian": hashlib.sha256(values.tobytes()).hexdigest()[:16], "n": n}
        ops.append(_garsia_op(f"garsia-gauss-{k}", spec, gaussian=values))
    stream_seed = rnd.randrange(2**31)
    for k in range(n_walk):
        ops.append(_garsia_op(f"garsia-walk-{k}", {"stream_seed": stream_seed, "stream": k, "n": n}))
    return ops


_BUILDERS = {"mc-tails": _mc_tails, "exact-solve": _exact_solve, "all-pairs": _all_pairs}


def build(rw, workload, seed, size="full"):
    """The op list of `workload` for `seed`; pure function of its arguments."""
    return _BUILDERS[workload](rw, seed, size)


def cross_checks(workload, results):
    """Checks that relate the results of several ops of one pass."""
    if workload != "exact-solve":
        return []
    rs = {name: r for name, r in results.items() if name.startswith("R-gasket-")}
    if len(rs) != 2:
        return []
    lo, hi = sorted(rs, key=lambda s: int(s.rsplit("-", 1)[1]))
    ratio = rs[hi] / rs[lo]
    if abs(ratio - 5 / 3) > 1e-9:
        return [f"gasket corner ladder ratio {ratio!r} is not 5/3"]
    return []
