"""Self-test of the benchmark's checker, failure accounting and span arithmetic.

    python3 perfbench/selftest.py

Runs the sweep and hodge workloads once each (variant 0, about 20 s), checks
that their clean outputs pass, then corrupts copies of the outputs and checks
that every corruption is counted as a failure: a dropped eigenvalue row, a
value perturbed by 1e-5 relative, a flipped report.json check, a broken
Hodge duality.  Also feeds the failure accounting a nonzero exit, a JSON
error record on stderr and an uncaught exception.  Exits 1 if any case
comes out wrong.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import check
import tracer
from run import WORK, Run, load_reference, op_failures
from workloads import WORKLOADS, argv

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, failures: list[str], should_fail: bool):
    ok = bool(failures) == should_fail
    RESULTS.append((label, ok))
    detail = f" ({failures[0]})" if failures else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{detail}")


def real_output(name: str, work: Path) -> tuple[Run, Path]:
    workload = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, 0, work, load_reference(workload, 0))
    out = work / "clean"
    result, code, stderr = run.child("op", False, argv(workload, str(run.config_path), str(out), run.eps))
    if code != 0 or result is None or result.get("rc") != 0:
        raise SystemExit(f"{name} operation failed (exit {code}):\n{stderr}")
    return run, out


def corrupted(clean: Path, dest: Path, filename: str, edit) -> Path:
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(clean, dest)
    path = dest / filename
    path.write_text(edit(path.read_text()))
    return dest


def edit_csv_row(row_index: int, column: str, fn):
    """Apply ``fn`` to one data row (None drops it) or to one value of it."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
        header, target = lines[data[0]].split(","), data[1 + row_index]
        if column is None:
            del lines[target]
        else:
            cells = lines[target].split(",")
            col = header.index(column)
            cells[col] = repr(fn(float(cells[col])))
            lines[target] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def flip_check(name: str):
    def edit(text: str) -> str:
        report = json.loads(text)
        report["checks"][name] = not report["checks"][name]
        return json.dumps(report)
    return edit


def checker_cases(work: Path):
    run, clean = real_output("hodge", work / "hodge")
    wl, ref, n = run.workload, run.reference, run.config["n"]

    def verdict(out_dir: Path) -> list[str]:
        return check.check_output(out_dir, wl.outputs, ref, n)[1]

    expect("hodge: clean output passes", verdict(clean), False)
    rows = check.extract(clean, wl.outputs)["spectrum"]
    last_p4 = max(i for i, r in enumerate(rows) if r[0] == 4 and r[3] > 0)
    first_pos = next(i for i, r in enumerate(rows) if r[3] > 0)
    cases = [
        ("hodge: dropped eigenvalue row", edit_csv_row(first_pos, None, None), True),
        ("hodge: lambda perturbed by 1e-5 relative", edit_csv_row(first_pos, "lambda", lambda v: v * (1 + 1e-5)), True),
        ("hodge: lambda perturbed by 1e-8 relative (within tolerance)",
         edit_csv_row(first_pos, "lambda", lambda v: v * (1 + 1e-8)), False),
    ]
    for label, edit, should_fail in cases:
        expect(label, verdict(corrupted(clean, work / "bad", "spectrum.csv", edit)), should_fail)
    # a changed degree-4 value must also break duality against degree 0
    bad = corrupted(clean, work / "bad", "spectrum.csv", edit_csv_row(last_p4, "lambda", lambda v: v * (1 + 1e-5)))
    expect("hodge: duality catches a perturbed degree-4 value",
           check.hodge_duality(check.extract(bad, wl.outputs)["spectrum"], n), True)

    run, clean = real_output("sweep", work / "sweep")
    wl, ref = run.workload, run.reference

    def verdict(out_dir: Path) -> list[str]:  # noqa: F811
        return check.check_output(out_dir, wl.outputs, ref, None)[1]

    expect("sweep: clean output passes", verdict(clean), False)
    cases = [
        ("sweep: dropped row", "sweep.csv", edit_csv_row(3, None, None)),
        ("sweep: lambda_eps perturbed by 1e-5 relative", "sweep.csv",
         edit_csv_row(7, "lambda_eps", lambda v: v * (1 + 1e-5))),
        ("sweep: mcgowan perturbed by 1e-5 relative", "sweep.csv",
         edit_csv_row(7, "mcgowan", lambda v: v * (1 + 1e-5))),
        ("sweep: bord_ratio perturbed by 1e-5 relative", "sweep.csv",
         edit_csv_row(7, "bord_ratio", lambda v: v * (1 + 1e-5))),
        ("sweep: flipped report.json check", "report.json", flip_check("errors_decreasing")),
    ]
    for label, filename, edit in cases:
        expect(label, verdict(corrupted(clean, work / "bad", filename, edit)), True)
    shutil.rmtree(work / "bad", ignore_errors=True)
    expect("missing output directory", verdict(work / "absent"), True)


def accounting_cases():
    ok = {"rc": 0, "exception": None}
    expect("accounting: clean operation", op_failures(0, ok, "", []), False)
    expect("accounting: nonzero conesum exit", op_failures(0, {"rc": 1, "exception": None}, "", []), True)
    expect("accounting: JSON error record on stderr",
           op_failures(0, ok, '{"error": "SolverDisagreementError", "message": "x"}\n', []), True)
    expect("accounting: failed_checks record on stderr", op_failures(0, ok, '{"failed_checks": ["taka_ok"]}', []), True)
    expect("accounting: uncaught exception",
           op_failures(0, {"rc": None, "exception": "Traceback ...\nValueError: boom\n"}, "", []), True)
    expect("accounting: operation process crashed", op_failures(-11, None, "", []), True)
    expect("accounting: timed out", op_failures(None, None, "", []), True)
    expect("accounting: output mismatch", op_failures(0, ok, "", ["spectrum p=1 minus_half: 3 rows vs reference 4"]), True)


def span_cases():
    # cli [0, 10] > assemble [1, 4] > fem [2, 3]; cli > fem [5, 6]; a failed nested assemble
    dump = {
        "spans": [
            (-1, "cli", 0.0, 10.0, False, False),
            (0, "a", 1.0, 4.0, False, False),
            (1, "f", 2.0, 3.0, False, False),
            (0, "f", 5.0, 6.0, False, False),
            (1, "a", 3.25, 3.5, True, True),
        ],
        "counters": {"x.calls": 3},
    }
    m = tracer.layer_metrics(dump, ["cli", "a", "f"])
    want = {"cli.self_s": 6.0, "a.self_s": 2.0, "a.busy_s": 3.0, "a.calls": 2, "a.errors": 1,
            "f.busy_s": 2.0, "x.calls": 3}
    bad = [f"{k}={m.get(k)} (want {v})" for k, v in want.items() if abs(m.get(k, -1) - v) > 1e-12]
    expect("spans: self and busy time arithmetic", bad, False)


def main() -> int:
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    accounting_cases()
    span_cases()
    checker_cases(work)
    shutil.rmtree(work, ignore_errors=True)
    failed = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-test cases behave as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
