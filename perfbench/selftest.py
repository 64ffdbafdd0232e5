"""Self-test of the benchmark, at the tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs, prints every metric of BENCHMARK.json with
its unit and a result line of the agreed shape, that traced counts repeat
exactly across two traced runs, that a corrupted golden (an output digest,
or a reference value moved beyond its tolerance) is counted as a failed op,
and that the benchmark refuses to run in a directory holding only itself.
Exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"seed", "nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads"}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def check_shape(workload, trace, result, record):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    tag = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: all ops correct ({result['failed']} of {result['attempted']} failed)")
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in declared], f"{tag}: every declared metric, in order")
    expect(all(metrics[m["name"]]["unit"] == m["unit"] and isinstance(metrics[m["name"]]["value"], (int, float))
               and not isinstance(metrics[m["name"]]["value"], bool) for m in declared if m["name"] in metrics),
           f"{tag}: each metric has a number and its declared unit")
    if not trace:
        expect(all(metrics[m["name"]]["value"] > 0 for m in declared if m["name"] in metrics),
               f"{tag}: end-to-end metrics are nonzero")
    expect(ENV_KEYS <= set(record["env"]) and record["env"]["seed"] == 3, f"{tag}: environment recorded")
    expect(record["error_rate"] == 0.0, f"{tag}: error_rate printed and zero")


def corrupted_goldens(workload, what):
    doc = json.loads((HERE / "goldens.json").read_text())
    ops = doc["sizes"]["tiny"][workload]
    for key, golden in ops.items():
        if what == "file" and golden["files"]:
            name = next(iter(golden["files"]))
            golden["files"][name] = "0" * 64
            break
        if what == "value" and isinstance(golden["values"].get("R"), float):
            golden["values"]["R"] *= 1 + 1e-9
            break
    else:
        raise AssertionError(f"no {what} golden to corrupt in {workload}")
    path = WORK / f"goldens-{workload}-{what}.json"
    path.write_text(json.dumps(doc))
    return path


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        proc = bench(workload, 0)
        expect(proc.returncode == 0, f"{workload}: exit code 0 ({proc.stderr.strip()[-300:]})")
        check_shape(workload, 0, *parse(proc))
        counts = []
        for _ in range(2):
            proc = bench(workload, 1)
            result, record = parse(proc)
            check_shape(workload, 1, result, record)
            counts.append({m["name"]: result["metrics"][m["name"]]["value"]
                           for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")})
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        expect(not differ, f"{workload}: traced counts repeat across two traced runs {differ}")
        cases = [("file", corrupted_goldens(workload, "file"))]
        if workload == "exact-solve":
            cases.append(("value", corrupted_goldens(workload, "value")))
        for what, path in cases:
            result, _ = parse(bench(workload, 0, "--goldens", str(path)))
            expect(result["failed"] >= 1 and result["correct"] is False,
                   f"{workload}: corrupted {what} golden counted as a failed op ({result['failed']} failed)")
    bare = WORK / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = bench(workloads[0], 0, cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "bare directory: nonzero exit and no result printed")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
