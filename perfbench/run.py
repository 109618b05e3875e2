"""conesum benchmark: one CLI command per operation, each in a fresh interpreter.

    python3 perfbench/run.py --workload {sweep,crosscheck,hodge} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; conesum is imported from ./src.
Operations run one after another (one client, closed loop): each starts a
fresh interpreter that imports ``conesum.cli``, loads the config and calls
``conesum.cli.main(argv)``.  A new operation starts only while the median
operation so far still fits in the remaining ``--seconds``; at least one
always runs.  Every output is checked against the reference stored for the
seed's input variant (``refs/``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians over
the operations after the first, a warm-up that is checked but not timed.
An untimed probe first records the environment and compiles bytecode, so no
operation pays that one-off cost.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics: medians over traced operations of the span and counter
metrics, ``python -X importtime`` package times, and the tracing overhead.

The last stdout line is the JSON result; the line before it records the
environment and every sample.  Exit status is 0 whenever a result is printed
(failed operations are counted in it) and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, argv, inputs, variant_of  # noqa: E402

TIME_LIMIT = 170.0  # seconds; a run must end within 180
IMPORTTIME_PROBES = 3
IMPORT_PACKAGES = {
    "scipy_special": "scipy.special",
    "scipy_sparse_linalg": "scipy.sparse.linalg",
    "scipy_optimize": "scipy.optimize",
    "jsonschema": "jsonschema",
}


class BenchError(Exception):
    """The benchmark itself cannot run (no result is printed)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(spec: dict, timeout: float) -> tuple[dict | None, int | None, str]:
    """Run oprun.py on ``spec``; (result or None, exit code or None on timeout, stderr)."""
    spec_path = Path(spec["result"]).with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "oprun.py"), str(spec_path)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else (exc.stderr or "")
        return None, None, stderr
    result_path = Path(spec["result"])
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return result, proc.returncode, proc.stderr


def op_failures(returncode: int | None, result: dict | None, stderr: str, output_failures: list[str]) -> list[str]:
    """Every reason one operation failed; empty when it succeeded."""
    out: list[str] = []
    if returncode is None:
        out.append("timed out")
    elif returncode != 0:
        out.append(f"operation process exited with {returncode}")
    if result is not None:
        if result.get("exception"):
            out.append("uncaught exception: " + result["exception"].strip().splitlines()[-1])
        elif result.get("rc") != 0:
            out.append(f"conesum exited with {result.get('rc')!r}")
    elif returncode is not None:
        out.append("no result written")
    for record in check.error_records(stderr):
        out.append("error record on stderr: " + json.dumps(record))
    return out + output_failures


class Run:
    """One benchmark invocation: a workload, its seeded inputs and a work directory."""

    def __init__(self, workload: Workload, variant: int, work: Path, reference: dict | None):
        self.workload = workload
        self.variant = variant
        self.work = work
        self.config, self.eps = inputs(workload, variant)
        self.reference = reference
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.start = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return TIME_LIMIT - (time.perf_counter() - self.start)

    def child(self, mode: str, trace: bool = False, argv_: list[str] | None = None):
        self.count += 1
        spec = {
            "mode": mode, "src": str(SRC), "config": str(self.config_path), "argv": argv_ or [],
            "trace": trace, "result": str(self.work / f"{self.count:03d}-{mode}.json"),
        }
        return run_child(spec, self.remaining())

    def op(self, trace: bool) -> dict:
        """One operation, checked against the reference."""
        out_dir = self.work / f"out-{self.count + 1:03d}"
        t0 = time.perf_counter()
        result, code, stderr = self.child("op", trace, argv(self.workload, str(self.config_path), str(out_dir), self.eps))
        duration = time.perf_counter() - t0
        output, output_failures = None, []
        if code == 0 and result is not None and result.get("rc") == 0:
            hodge_n = self.config["n"] if self.workload.hodge_dual else None
            output, output_failures = check.check_output(out_dir, self.workload.outputs, self.reference, hodge_n)
        failures = op_failures(code, result, stderr, output_failures)
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"duration": duration, "failures": failures, "result": result or {}, "output": output}


def load_reference(workload: Workload, variant: int) -> dict:
    """The stored reference output of one variant, after checking its inputs.

    A variant that failed when the references were made has no output; the
    returned ``{"missing": reasons}`` makes every operation on it fail.
    """
    stored = json.loads((HERE / "refs" / f"{workload.name}.json").read_text())[str(variant)]
    config, eps = inputs(workload, variant)
    if stored["config"] != config or stored["eps"] != eps:
        raise BenchError(f"reference of variant {variant} was made from other inputs")
    return stored["output"] if stored["output"] is not None else {"missing": stored["failures"]}


def loop(run: Run, seconds: float, one) -> list:
    """Closed loop: call ``one()`` while the median duration still fits in ``seconds``."""
    samples, durations = [], []
    t0 = time.perf_counter()
    while True:
        sample, duration = one()
        samples.append(sample)
        durations.append(duration)
        typical = statistics.median(durations)
        elapsed = time.perf_counter() - t0
        if elapsed + typical > seconds or typical > run.remaining() - 5.0:
            return samples


def importtime(run: Run) -> dict[str, float]:
    """Cumulative import seconds per package, from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import conesum.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=max(run.remaining(), 1.0),
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr}")
    lines = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        lines.append((int(self_us), int(cum_us), len(name) - len(name.lstrip()), name.strip()))
    out = {}
    for key, package in IMPORT_PACKAGES.items():
        out[key] = _outermost_cumulative(lines, package) / 1e6
    out["conesum_self"] = sum(s for s, _, _, n in lines if n == "conesum" or n.startswith("conesum.")) / 1e6
    return out


def _outermost_cumulative(lines: list, package: str) -> int:
    """Sum of cumulative times of the package's import lines not nested in another of its lines.

    importtime prints children before their parent, one indent level deeper,
    so walking the lines backwards visits every parent before its children.
    """
    total = 0
    stack: list[tuple[int, bool]] = []  # (indent, inside the package)
    for _, cum, indent, name in reversed(lines):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total += cum
        stack.append((indent, inside or mine))
    return total


def environment(run: Run, load_before: tuple) -> dict:
    """Machine and library versions; the probe also compiles bytecode before any timing."""
    result, code, stderr = run.child("env")
    if code != 0 or result is None:
        raise BenchError(f"environment probe failed (exit {code}):\n{stderr}")
    env = result["environment"]
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env.update(cpu_model=cpu_model, nproc=len(os.sched_getaffinity(0)), loadavg_before=list(load_before))
    return env


def end_to_end(run: Run, seconds: float) -> tuple[dict, list, dict]:
    def one():
        op = run.op(trace=False)
        return op, op["duration"]

    ops = loop(run, seconds, one)
    # The first operation of a run is a warm-up: checked and counted, not timed.
    done = [op["result"] for op in (ops[1:] or ops) if "wall_s" in op["result"]]
    setup = [r["setup_s"] for r in done]
    metrics = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in done) if done else float("nan")
    samples = {"setup_s": setup, **{k: [r.get(k) for r in done] for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
    return metrics, ops, samples


def per_layer(run: Run, seconds: float) -> tuple[dict, list, dict]:
    imports = [importtime(run) for _ in range(IMPORTTIME_PROBES)]
    names = [name for _, _, name in tracer.SPANNED] + [tracer.PENCIL, "cli"]

    def pair():
        t0 = time.perf_counter()
        plain = run.op(trace=False)
        traced = run.op(trace=True)
        return (plain, traced), time.perf_counter() - t0

    pairs = loop(run, seconds, pair)
    ops = [op for p in pairs for op in p]
    layers = []
    overhead = []
    for plain, traced in pairs:
        if "trace" not in traced["result"]:
            continue
        m = tracer.layer_metrics(traced["result"]["trace"], names)
        computed = m.get(tracer.PENCIL + ".eigs_computed", 0)
        m["radial.fem.useful_ratio"] = m.get(tracer.FEM + ".eigs_returned", 0) / computed if computed else 0.0
        layers.append(m)
        if "wall_s" in plain["result"]:
            overhead.append(traced["result"]["wall_s"] / plain["result"]["wall_s"] - 1.0)
    metrics = {}
    for key in sorted({k for m in layers for k in m}):
        metrics[key] = statistics.median(m.get(key, 0) for m in layers)
    for key in imports[0]:
        metrics[f"setup.import.{key}_s"] = statistics.median(i[key] for i in imports)
    metrics["trace.overhead_ratio"] = statistics.median(overhead) if overhead else float("nan")
    samples = {"overhead_ratio": overhead, "importtime": imports}
    return metrics, ops, samples


def declared_metrics(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(args)
    if not (SRC / "conesum" / "cli.py").is_file():
        print(f"perfbench: no conesum sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    work = WORK / f"{opts.workload}-{opts.seed}-{opts.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload, variant = WORKLOADS[opts.workload], variant_of(opts.seed)
        run = Run(workload, variant, work, load_reference(workload, variant))
        env = environment(run, load_before)
        if opts.trace:
            metrics, ops, samples = per_layer(run, opts.seconds)
        else:
            metrics, ops, samples = end_to_end(run, opts.seconds)
        units = declared_metrics(bool(opts.trace))
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise BenchError(f"metrics of BENCHMARK.json not measured: {missing}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    env["loadavg_after"] = list(os.getloadavg())
    failed = [op["failures"] for op in ops if op["failures"]]
    for reasons in failed:
        print("perfbench: failed operation: " + "; ".join(reasons[:5]), file=sys.stderr)
    detail = {
        "workload": opts.workload, "seed": opts.seed, "variant": run.variant, "trace": opts.trace,
        "operations": len(ops), "environment": env, "samples": samples,
        "config": run.config, "eps": run.eps,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
