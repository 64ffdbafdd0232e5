"""resistwalk benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload mc-tails --seed 3 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The run builds the workload's ops from the seed, runs one untimed
pass of the tiny-size ops at the default seed, whose outputs must match the
goldens recorded at the seed commit, then repeats the op list for --seconds
seconds and checks every output.  With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced passes and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it is a record with the environment, per-op timings and failures.

Timings are the best of the repeated passes, per op, normalized to host
speed: a fixed reference kernel that does not use resistwalk is timed
between ops, and every end-to-end time but setup_s is scaled by
REF_S / (its best time).
On a host shared with other tenants the same pass ran up to twice as long
for minutes at a time; the best repeat and the normalization track the
program, not the neighbours.  The record line keeps the raw figures.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.monotonic()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_PASSES = 3
REF_S = 0.005  # normalized times are seconds on a host where the reference kernel takes this long
PROBE_EVERY_S = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc)) if cur.isdigit() and int(cur) > 0 else str(nproc)
    return nproc


def environment(nproc, seed):
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Checker:
    """Verifies op outputs: analytic checks and goldens on the first sight of
    an op's inputs, byte and value identity with that first result after."""

    def __init__(self, rw, out_root, goldens):
        self.rw = rw
        self.out_root = out_root
        self.goldens = goldens
        self.first = {}
        self._graphs = {}

    def resistance(self, family, level, x, y):
        g = self._graphs.get((family, level))
        if g is None:
            g = self._graphs[(family, level)] = self.rw.graphs.generate(self.rw.graphs.FamilySpec(family, level))
        return g, self.rw.resistance.effective_resistance(g, x, y)

    def verify(self, op, summary, result, must_have_golden):
        prev = self.first.get(op.key)
        if prev is not None:
            if summary["files"] != prev["files"] or summary["values"] != prev["values"]:
                return [f"{op.name}: output differs from the first pass of this run"]
            return []
        self.first[op.key] = summary
        msgs = op.check(summary, result, self)
        golden = self.goldens.get(op.key)
        if golden is None:
            if must_have_golden:
                msgs.append(f"{op.name}: no golden recorded for {op.key}")
            return msgs
        for name, digest in golden["files"].items():
            if summary["files"].get(name) != digest:
                msgs.append(f"{op.name}: {name} sha256 {summary['files'].get(name)} != golden {digest}")
        for name, ref in golden["values"].items():
            got = summary["values"].get(name)
            if not _close(got, ref, op.rel_tol):
                msgs.append(f"{op.name}: value {name} differs from its golden beyond {op.rel_tol:g}")
        return msgs


def _close(got, ref, rel):
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(_close(a, b, rel) for a, b in zip(got, ref))
    if not isinstance(got, (int, float)):
        return False
    return abs(got - ref) <= rel * abs(ref) or got == ref


class HostSpeed:
    """Times a fixed reference kernel (interpreter dispatch with small numpy
    updates, the mix of the walk kernels; no resistwalk code) between ops."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._next = [[(i * 7 + j) % 101 for j in range(4)] for i in range(101)]
        self._u = np.random.default_rng(12345).random(20000)
        self.times = []
        self._last = -PROBE_EVERY_S

    def _kernel(self):
        np, nxt, u = self._np, self._next, self._u
        t0 = time.perf_counter()
        cur, acc = 0, np.zeros(101)
        for k in range(len(u)):
            cur = nxt[cur][int(u[k] * 4)]
            if k % 50 == 0:
                acc[cur] += 1.0
                np.abs(acc - acc[cur], out=acc)
        return time.perf_counter() - t0

    def maybe_probe(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.times.append(self._kernel())
            self._last = time.perf_counter()

    def factor(self):
        return REF_S / min(self.times)


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    def __init__(self, rw, workloads, name, checker, out_root, tracer=None):
        self.rw, self.W, self.name = rw, workloads, name
        self.checker, self.out_root, self.tracer = checker, out_root, tracer
        self.host = None  # a HostSpeed once timed passes start
        self.attempted = 0
        self.failures = []
        self.failed_ops = 0

    def run_pass(self, ops, traced=False, must_have_golden=False):
        """Run the op list once; returns (per-op wall, per-op cpu, pass wall,
        summaries).  Checking happens after the timed loop."""
        ctx = self.W.Ctx(rw=self.rw, out_root=self.out_root, tracer=self.tracer if traced else None)
        if traced:
            self.tracer.clear()
            self.tracer.install()
        walls, cpus, outcomes = [], [], []
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            if self.host is not None:
                self.host.maybe_probe()
            if traced:
                self.tracer.set_op(i)
            c0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                outcomes.append((op.fn(ctx), None))
            except Exception as exc:  # an op failure is a measured outcome
                outcomes.append((None, f"{op.name}: {type(exc).__name__}: {exc}"))
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu_s() - c0)
        pass_wall = time.perf_counter() - t_pass
        if traced:
            self.tracer.uninstall()
        summaries, results = [], {}
        for op, (result, err) in zip(ops, outcomes):
            self.attempted += 1
            msgs = [err] if err else []
            summary = None
            if not err:
                try:
                    summary = op.summarize(result, ctx)
                    msgs += self.checker.verify(op, summary, result, must_have_golden)
                    results[op.name] = result
                except Exception as exc:  # a malformed output is a failed op
                    msgs.append(f"{op.name}: output check raised {type(exc).__name__}: {exc}")
            summaries.append(summary)
            if msgs:
                self.failed_ops += 1
                self.failures.extend(msgs)
        cross = self.W.cross_checks(self.name, results)
        if cross:
            self.failed_ops += 1
            self.failures.extend(cross)
        return walls, cpus, pass_wall, summaries


def setup_probes(args):
    """Median of fresh-process set-ups: process start to first op."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times), times


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at a self-test size")
    ap.add_argument("--goldens", default=str(HERE / "goldens.json"))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "resistwalk" / "__init__.py").is_file():
        print(f"no resistwalk source tree under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("BENCHMARK.json not found at the checkout root", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import resistwalk as rw
    import workloads as W

    if Path(rw.__file__).resolve().parent != (ROOT / "src" / "resistwalk").resolve():
        print(f"imported resistwalk from {rw.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {W.WORKLOADS}", file=sys.stderr)
        return 2
    ops = W.build(rw, args.workload, args.seed, args.size)
    golden_ops = W.build(rw, args.workload, W.DEFAULT_SEED, "tiny")
    if args.setup_probe:
        print(time.monotonic())
        return 0
    setup_main_s = time.monotonic() - T_START

    spec = json.loads(spec_path.read_text())
    goldens = json.loads(Path(args.goldens).read_text())["sizes"]
    goldens = {**goldens["tiny"][args.workload], **goldens[args.size][args.workload]}
    work = HERE / "_work"
    out_root = work / f"run-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(rw)
    checker = Checker(rw, out_root, goldens)
    runner = Runner(rw, W, args.workload, checker, out_root, tracer)
    host = HostSpeed()
    trace_passes = []
    try:
        # default-seed pass at the tiny size: goldens must match (traced when
        # tracing); the full-size goldens are checked when --seed is the default
        runner.run_pass(golden_ops, traced=bool(args.trace), must_have_golden=True)
        if args.trace:
            trace_passes.append(("golden", tracer.snapshot("golden")))
        samples = {False: [], True: []}  # traced? -> [(walls, cpus, pass_wall, summaries, layer)]
        runner.host = host
        t_begin = time.monotonic()
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            walls, cpus, pass_wall, summaries = runner.run_pass(ops, traced=traced,
                                                                must_have_golden=args.seed == W.DEFAULT_SEED)
            layer = None
            if traced:
                layer = tracer.metrics(pass_wall)
                trace_passes.append((k, tracer.snapshot(k)))
            samples[traced].append((walls, cpus, pass_wall, summaries, layer))
            k += 1
            enough = min(len(samples[False]), len(samples[True])) >= 2 if args.trace else k >= MIN_PASSES
            elapsed = time.monotonic() - t_begin
            # stop when the next pass would end nearer past the deadline than before it
            if enough and elapsed + 0.5 * elapsed / k >= args.seconds:
                break
        setup_s, setup_all = (None, []) if args.trace else setup_probes(args)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    def best(traced):
        walls = [min(s[0][i] for s in samples[traced]) for i in range(len(ops))]
        cpus = [min(s[1][i] for s in samples[traced]) for i in range(len(ops))]
        return walls, cpus

    walls, cpus = best(False)
    item_ops = [i for i, op in enumerate(ops) if op.items]
    items = sum(ops[i].items for i in item_ops)
    item_s = sum(walls[i] for i in item_ops)
    op_ms = sorted(w * 1e3 for w in walls)
    raw = {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "items_per_s": items / item_s,
        "op_ms_p50": statistics.median(op_ms),  # record line only: see perfbench/README.md
        "op_ms_p90": quantile(op_ms, 90),
    }
    f = host.factor()
    # set-up is interpreter start and imports, which the reference kernel does
    # not represent, so it stays raw
    e2e = {k: (v / f if k == "items_per_s" else v * f) for k, v in raw.items() if k != "setup_s"}
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    if args.trace:
        twalls, _ = best(True)
        layer = _layer_metrics(samples[True], spec, runner)
        layer["trace.wall_s"] = sum(twalls)
        layer["trace.untraced_wall_s"] = raw["wall_s"]
        layer["trace.overhead_s"] = sum(twalls) - raw["wall_s"]
        first = samples[True][0][3]
        layer["cli_io.bytes_written"] = sum(s["bytes"] for s in first if s)
        layer["cli_io.files_written"] = sum(s["nfiles"] for s in first if s)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        work.mkdir(exist_ok=True)
        tracer.write_jsonl(work / f"trace-{args.workload}.jsonl",
                           [rec for _, spans in trace_passes for rec in spans])
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "env": environment(nproc, args.seed),
        "passes": {"untraced": len(samples[False]), "traced": len(samples[True])},
        "error_rate": runner.failed_ops / runner.attempted,
        W.ITEM[args.workload] + "_per_s": e2e["items_per_s"],
        "op_ms_p50": e2e["op_ms_p50"],
        "op_ms_p90": e2e["op_ms_p90"],
        "raw": raw,
        "host_factor": f,
        "reference_kernel_s": {"best": min(host.times), "median": statistics.median(host.times),
                               "samples": len(host.times)},
        "op_latency_samples": len(op_ms),
        "setup_probe_s": setup_all,
        "setup_main_s": setup_main_s,
        "op_best_ms": {op.name: walls[i] * 1e3 for i, op in enumerate(ops)},
        "failures": runner.failures[:20],
    }
    for msg in runner.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed_ops == 0,
        "attempted": runner.attempted,
        "failed": runner.failed_ops,
        "metrics": metrics,
    }))
    return 0


def _layer_metrics(traced_samples, spec, runner):
    """Counts must repeat exactly across traced passes; times are the best
    pass, the self-time coverage the median pass."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = [s[4] for s in traced_samples]
    out = {}
    for name, value in layers[0].items():
        vals = [lay[name] for lay in layers]
        unit = units.get(name)
        if unit in ("count", "ratio"):
            if len(set(vals)) != 1:
                runner.failed_ops += 1
                runner.failures.append(f"trace: {name} differs between traced passes: {vals}")
            out[name] = vals[0]
        elif unit == "fraction":
            out[name] = statistics.median(vals)
        else:
            out[name] = min(vals)
    return out


if __name__ == "__main__":
    sys.exit(main())
