"""Output checker: conesum CLI outputs against the stored reference of a variant.

``extract`` reduces an output directory to the values the benchmark checks,
in the form stored under ``refs/``; ``compare`` lists every difference from
the reference.  A difference is a different row count in any (p, family) row
set of ``spectrum.csv`` (any p row set of ``sweep.csv``), a ``lambda``,
``lambda_eps``, ``lambda_m1``, ``mcgowan`` or ``bord_ratio`` value off by more
than RTOL relative, or a different ``report.json`` check or zero-mode count.
``hodge_duality`` checks that degrees p and n+1-p of ``spectrum.csv`` carry
the same eigenvalue multiset.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

RTOL = 1e-6  # conesum.analysis.CROSS_RTOL
ATOL = 1e-12  # floor for values that are zero up to rounding (zero modes, bord_ratio)

SWEEP_VALUES = ("lambda_eps", "lambda_m1", "bord_ratio", "mcgowan")


def _rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _num(text: str) -> float:
    return float(text)  # "nan" parses to nan


def extract(out_dir: Path, outputs: tuple[str, ...]) -> dict:
    """The checked content of an output directory (raises OSError/ValueError/KeyError)."""
    data: dict = {}
    if "spectrum.csv" in outputs:
        data["spectrum"] = [
            [int(r["p"]), r["family"], int(r["mult"]), _num(r["lambda"])]
            for r in _rows(out_dir / "spectrum.csv")
        ]
    if "sweep.csv" in outputs:
        data["sweep"] = [
            [_num(r["epsilon"]), int(r["p"]), int(r["k"]), int(r["zero_count"])]
            + [_num(r[c]) for c in SWEEP_VALUES]
            for r in _rows(out_dir / "sweep.csv")
        ]
    if "report.json" in outputs:
        report = json.loads((out_dir / "report.json").read_text())
        data["report"] = {
            "checks": report["checks"],
            "zero_counts": report["zero_counts"],
            "mcgowan_bounds": {k: v["bound"] for k, v in report["mcgowan"].items()},
        }
    return data


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _compare_values(label: str, got: list[float], ref: list[float], out: list[str], other: str = "reference"):
    for i, (a, b) in enumerate(zip(got, ref)):
        if not close(a, b):
            out.append(f"{label}[{i}]: {a!r} vs {other} {b!r}")


def _compare_spectrum(got: list, ref: list, out: list[str]):
    def groups(rows):
        g = defaultdict(list)
        for p, family, mult, lam in rows:
            g[(p, family)].append((lam, mult))
        return g

    g_got, g_ref = groups(got), groups(ref)
    for key in sorted(set(g_got) | set(g_ref)):
        a, b = sorted(g_got.get(key, [])), sorted(g_ref.get(key, []))
        label = f"spectrum p={key[0]} {key[1]}"
        if len(a) != len(b):
            out.append(f"{label}: {len(a)} rows vs reference {len(b)}")
            continue
        if sum(m for _, m in a) != sum(m for _, m in b):
            out.append(f"{label}: multiplicities differ from the reference")
        _compare_values(f"{label} lambda", [v for v, _ in a], [v for v, _ in b], out)


def _compare_sweep(got: list, ref: list, out: list[str]):
    def count(rows):
        c = defaultdict(int)
        for row in rows:
            c[row[1]] += 1
        return c

    c_got, c_ref = count(got), count(ref)
    if c_got != c_ref:
        out.append(f"sweep rows per p {dict(c_got)} vs reference {dict(c_ref)}")
        return
    for i, (a, b) in enumerate(zip(got, ref)):
        label = f"sweep row {i} (eps={b[0]}, p={b[1]}, k={b[2]})"
        if a[1:4] != b[1:4] or not close(a[0], b[0]):
            out.append(f"{label}: key/zero_count {a[:4]} vs reference {b[:4]}")
        for name, x, y in zip(SWEEP_VALUES, a[4:], b[4:]):
            if not close(x, y):
                out.append(f"{label} {name}: {x!r} vs reference {y!r}")


def _compare_report(got: dict, ref: dict, out: list[str]):
    for name, want in ref["checks"].items():
        have = got["checks"].get(name)
        if isinstance(want, bool) or not isinstance(have, (int, float)):
            if have != want:
                out.append(f"report check {name}: {have!r} vs reference {want!r}")
        elif not close(float(have), float(want)):
            out.append(f"report check {name}: {have!r} vs reference {want!r}")
    if got["zero_counts"] != ref["zero_counts"]:
        out.append(f"report zero_counts {got['zero_counts']} vs reference {ref['zero_counts']}")
    if sorted(got["mcgowan_bounds"]) != sorted(ref["mcgowan_bounds"]):
        out.append("report mcgowan keys differ from the reference")
    else:
        for key, want in ref["mcgowan_bounds"].items():
            if not close(got["mcgowan_bounds"][key], want):
                out.append(f"report mcgowan {key}: {got['mcgowan_bounds'][key]!r} vs reference {want!r}")


def compare(got: dict, ref: dict) -> list[str]:
    if "missing" in ref:
        return ["no reference output for this variant; it failed when the references were made: "
                + "; ".join(ref["missing"])]
    out: list[str] = []
    if "spectrum" in ref:
        _compare_spectrum(got["spectrum"], ref["spectrum"], out)
    if "sweep" in ref:
        _compare_sweep(got["sweep"], ref["sweep"], out)
    if "report" in ref:
        _compare_report(got["report"], ref["report"], out)
    return out


def hodge_duality(spectrum: list, n: int) -> list[str]:
    """Degree p and degree n+1-p must have the same eigenvalue multiset."""
    by_p: dict[int, list[float]] = defaultdict(list)
    for p, _, mult, lam in spectrum:
        by_p[p].extend([lam] * mult)
    out: list[str] = []
    for p in range(0, (n + 1) // 2 + 1):
        a, b = sorted(by_p.get(p, [])), sorted(by_p.get(n + 1 - p, []))
        if len(a) != len(b):
            out.append(f"hodge duality p={p}/{n + 1 - p}: {len(a)} vs {len(b)} eigenvalues")
            continue
        _compare_values(f"hodge duality p={p}/{n + 1 - p}", a, b, out, other=f"degree {n + 1 - p}")
    return out


def check_output(
    out_dir: Path, outputs: tuple[str, ...], ref: dict | None, hodge_n: int | None
) -> tuple[dict | None, list[str]]:
    """(extracted output, every reason it fails); without ``ref`` only duality is checked."""
    try:
        got = extract(out_dir, outputs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable output: {type(exc).__name__}: {exc}"]
    failures = compare(got, ref) if ref is not None else []
    if hodge_n is not None:
        failures += hodge_duality(got["spectrum"], hodge_n)
    return got, failures


def error_records(stderr: str) -> list[dict]:
    """JSON error records (``error`` or ``failed_checks``) a CLI run printed on stderr."""
    records = []
    for line in stderr.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and ("error" in obj or "failed_checks" in obj):
            records.append(obj)
    return records
