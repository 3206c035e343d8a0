"""Self-test: two traced runs of one seed must give identical call counts.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Call counts do not depend on machine noise, so this is a deterministic
gate: exit 0 when every ``*.calls`` (and ``*.built``) metric agrees
between the two runs and both runs checked their outputs as correct,
exit 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".built"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok &= not differ
        print(f"{workload}: {len(first)} counts, "
              + ("identical" if not differ else
                 "DIFFER: " + ", ".join(f"{k} {first[k]} != {second[k]}" for k in differ)))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
