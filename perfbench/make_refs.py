"""Regenerate the stored reference outputs under perfbench/refs/.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every input variant of each workload once, exactly as the benchmark
runs an operation, and stores the checked content of its output.  A variant
whose operation fails is stored with its failure reasons and no output, so
the benchmark counts every operation on it as failed; it is reported, not
dropped.  Only regenerate after a change that is meant to alter conesum's
results, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, WORK, Run
from workloads import VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    status = 0
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        refs = {}
        for variant in range(VARIANTS):
            work = WORK / f"refs-{name}-{variant}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            run = Run(workload, variant, work, reference=None)
            op = run.op(trace=False)
            wall = op["result"].get("wall_s", float("nan"))
            print(f"{name} variant {variant}: wall {wall:.2f} s, failures {op['failures']}", flush=True)
            refs[str(variant)] = {"config": run.config, "eps": run.eps, "output": op["output"]}
            if op["failures"]:
                refs[str(variant)].update(output=None, failures=op["failures"])
                status = 1
            shutil.rmtree(work, ignore_errors=True)
        path = HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
