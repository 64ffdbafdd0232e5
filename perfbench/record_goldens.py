"""Record the goldens: run every workload once at the default seed, at both
sizes, check the outputs, and write the output digests and reference values
to perfbench/goldens.json.

    python3 perfbench/record_goldens.py

Run this only at a commit whose outputs are the reference (the goldens in
the repository were recorded at the commit that added the benchmark); later
commits must reproduce them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, Checker, Runner, pin_threads


def main():
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import resistwalk as rw
    import workloads as W

    out = {"default_seed": W.DEFAULT_SEED, "sizes": {}}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        out["recorded_at"] = commit
    except (OSError, subprocess.CalledProcessError):
        pass
    out_root = HERE / "_work" / "goldens"
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        for size in W.SIZES:
            out["sizes"][size] = {}
            for name in W.WORKLOADS:
                ops = W.build(rw, name, W.DEFAULT_SEED, size)
                runner = Runner(rw, W, name, Checker(rw, out_root, {}), out_root)
                _, _, _, summaries = runner.run_pass(ops)
                if runner.failures:
                    raise SystemExit(f"{size} {name}: checks fail, no goldens written:\n"
                                     + "\n".join(runner.failures))
                out["sizes"][size][name] = {
                    op.key: {"files": s["files"], "values": s["values"]}
                    for op, s in zip(ops, summaries)
                }
                print(f"{size} {name}: {len(ops)} ops recorded")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    (HERE / "goldens.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
