"""Command-line front end: configuration-driven runs emitting CSV/JSON tables.

Subcommands: modes, spectrum, sweep, aps-kernel, mcgowan, dodziuk.  Outputs
are deterministic for a fixed configuration (12 significant digits, stable
ordering); every table carries '#' provenance lines with the package version
and the config hash, plus one timestamp line that is excluded from
byte-comparisons by its prefix.  Exit status is 0 only if the subcommand's
embedded property checks pass; failures emit a machine-readable JSON error
record on stderr.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import assemble_spectrum, mcgowan_report, sweep_epsilon
from .aps_limit import ApsProblem, aps_kernel
from .cone_operator import gamma_channels
from .config import RunConfig, load_config
from .errors import ConesumError, DomainError
from .geometry import BCKind, connected_sum_profile, dodziuk_interval

FMT = "%.12g"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return FMT % x


def _provenance(cfg: RunConfig) -> list[str]:
    return [
        f"# conesum {__version__} config_sha256={cfg.hash()}",
        f"# generated {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
    ]


def _strict_json(obj) -> str:
    """obj as JSON with every non-finite float written as null: strict parsers
    reject NaN and Infinity, which json.dumps writes by default."""

    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x

    return json.dumps(finite(obj), indent=1, sort_keys=True, allow_nan=False) + "\n"


def _write_table(path: Path, header: list[str], rows: list[list], cfg: RunConfig, fmt: str):
    if fmt == "json":
        rows = [[float(_fmt(r)) if isinstance(r, float) else r for r in row] for row in rows]
        _write_json(path.with_suffix(".json"), {"columns": header, "rows": rows}, cfg)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = _provenance(cfg)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict, cfg: RunConfig):
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "provenance": {"version": __version__, "config_sha256": cfg.hash()},
        **payload,
    }
    path.write_text(_strict_json(payload))


def _svg_error_plot(path: Path, series: dict[str, list[tuple[float, float]]]):
    """Log-log polylines of error vs eps; no plotting dependency."""
    width, height, margin = 480, 360, 48
    pts_all = [pt for s in series.values() for pt in s if pt[1] > 0]
    if not pts_all:
        return
    xs = [math.log10(x) for x, _ in pts_all]
    ys = [math.log10(y) for _, y in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    spanx, spany = max(x1 - x0, 1e-9), max(y1 - y0, 1e-9)

    def to_px(x, y):
        px = margin + (math.log10(x) - x0) / spanx * (width - 2 * margin)
        py = height - margin - (math.log10(y) - y0) / spany * (height - 2 * margin)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2}" y="{height-8}" text-anchor="middle" font-size="12">log10 eps</text>',
        f'<text x="12" y="{height/2}" font-size="12" transform="rotate(-90 12 {height/2})" text-anchor="middle">log10 |error|</text>',
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]
    for i, (label, pts) in enumerate(sorted(series.items())):
        good = [(x, y) for x, y in pts if y > 0]
        if not good:
            continue
        poly = " ".join("%.2f,%.2f" % to_px(x, y) for x, y in good)
        col = colors[i % len(colors)]
        parts.append(f'<polyline points="{poly}" fill="none" stroke="{col}" stroke-width="1.5"/>')
        px, py = to_px(*good[-1])
        parts.append(f'<text x="{px+4}" y="{py}" font-size="10" fill="{col}">{label}</text>')
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_modes(cfg: RunConfig, out: Path, fmt: str, **_):
    rows = []
    failures = []
    n = cfg.n
    for p in cfg.degrees:
        channels = gamma_channels(n, p, cfg.mu_sq_max)
        for ch in channels:
            mode = ch.block.mode
            rows.append(
                [
                    n,
                    mode.q,
                    mode.k if isinstance(mode.k, int) else "harmonic",
                    mode.mu_sq,
                    ch.multiplicity,
                    ch.block.family.value,
                    ch.gamma,
                    p,
                ]
            )
            if abs(ch.gamma) < n / 2.0 - 1e-12:
                failures.append(f"|gamma| < n/2 at {ch.block.label}")
            ev = sorted(np.linalg.eigvalsh(ch.block.matrix))
            ref = sorted(ch.block.gammas)
            if max(abs(a - b) for a, b in zip(ev, ref)) > 1e-12 * max(1.0, abs(ref[-1])):
                failures.append(f"block eigenvalues off closed form at {ch.block.label}")
        # each block's eigenvectors are orthonormal and diagonalise it: V^T V = I, V diag(gamma) V^T = A
        for block in {id(ch.block): ch.block for ch in channels}.values():
            v, tol = block.eigvecs, 1e-12 * max(1.0, max(abs(g) for g in block.gammas))
            orthonormal = np.allclose(v.T @ v, np.eye(block.size), rtol=0.0, atol=tol)
            if not orthonormal or not np.allclose((v * block.gammas) @ v.T, block.matrix, rtol=0.0, atol=tol):
                failures.append(f"eigendecomposition off the block at {block.label}")
    _write_table(out / "modes.csv", ["n", "q", "k", "mu_sq", "mult", "family", "gamma", "degree"], rows, cfg, fmt)
    return failures


def _cmd_spectrum(cfg: RunConfig, out: Path, fmt: str, eps: float | None = None, **_):
    profile = cfg.m1() if eps is None else connected_sum_profile(cfg.m1(), cfg.m2(), eps)
    label = "m1" if eps is None else f"m_eps={_fmt(eps)}"
    rows = []
    slot_cache: dict = {}
    for p in cfg.degrees:
        res = assemble_spectrum(
            profile,
            cfg.n,
            p,
            cfg.lam_max,
            cfg.method,
            cfg.mesh(),
            _slot_cache=slot_cache,
        )
        for i, e in enumerate(res.entries):
            mode = e.problem.block.mode
            rows.append(
                [
                    label,
                    p,
                    i,
                    e.value,
                    e.multiplicity,
                    mode.q,
                    mode.k if isinstance(mode.k, int) else "harmonic",
                    e.problem.block.family.value,
                    e.method,
                    e.error if e.error is not None else 0.0,
                ]
            )
    _write_table(
        out / "spectrum.csv",
        ["profile", "p", "idx", "lambda", "mult", "q", "k", "family", "method", "estimate"],
        rows,
        cfg,
        fmt,
    )
    return []


def _cmd_sweep(cfg: RunConfig, out: Path, fmt: str, jobs: int = 1, svg: bool = False, **_):
    # --jobs is accepted for existing callers and has no effect: the sweep runs in one process
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    rep = sweep_epsilon(
        m1=cfg.m1(),
        m2=cfg.m2(),
        n=cfg.n,
        degrees=cfg.degrees,
        epsilons=cfg.epsilons,
        lam_max=cfg.lam_max,
        k_track=cfg.k_track,
        mesh=cfg.mesh(),
        method=cfg.method,
    )
    rows = [
        [r.eps, r.degree, r.k, r.lam_eps, r.lam_m1, r.abs_err, r.rel_err, r.bord_ratio, r.mcgowan, r.zero_count]
        for r in rep.rows
    ]
    _write_table(
        out / "sweep.csv",
        ["epsilon", "p", "k", "lambda_eps", "lambda_m1", "abs_err", "rel_err", "bord_ratio", "mcgowan", "zero_count"],
        rows,
        cfg,
        fmt,
    )
    diag_payload = {}
    for (eps, p), diags in sorted(rep.diagnostics.items()):
        diag_payload[f"eps={_fmt(eps)},p={p}"] = [
            None
            if d is None
            else {
                "lambda": d.lam,
                "neg_trace_sq": d.neg_trace_sq,
                "bord_ratio": d.ratio,
                "phi_minus_tail_sq": d.phi_minus_tail_sq,
                "cutoff_energy": d.cutoff_energy,
                "cutoff_energy_bound": d.cutoff_energy_bound,
                "psi_overlap": d.psi_overlap,
            }
            for d in diags
        ]
    mcg_payload = {
        f"eps={_fmt(eps)},p={p}": {
            "mu_p_u1": m.mu_p_u1,
            "mu_p_u2": m.mu_p_u2,
            "mu_pm1_u12": m.mu_pm1_u12,
            "omega": m.omega,
            "c_rho": m.c_rho,
            "bound": m.bound,
        }
        for (eps, p), m in sorted(rep.mcgowan.items())
    }
    _write_json(
        out / "report.json",
        {
            "checks": rep.checks,
            "diagnostics": diag_payload,
            "mcgowan": mcg_payload,
            "zero_counts": {f"eps={_fmt(e)},p={p}": c for (e, p), c in sorted(rep.zero_counts.items())},
            "meta": rep.meta,
        },
        cfg,
    )
    if svg:
        series: dict[str, list[tuple[float, float]]] = {}
        for r in rep.rows:
            series.setdefault(f"p={r.degree},k={r.k}", []).append((r.eps, r.abs_err))
        _svg_error_plot(out / "plots" / "error_vs_eps.svg", series)
    return [name for name, ok in rep.checks.items() if isinstance(ok, bool) and not ok]


def _cmd_aps_kernel(cfg: RunConfig, out: Path, fmt: str, **_):
    problem = ApsProblem(profile=cfg.m2(bc=BCKind.APS), n=cfg.n, mu_sq_max=cfg.mu_sq_max)
    rep = aps_kernel(problem)
    payload = {
        "dims": {str(p): d for p, d in sorted(rep.dims.items())},
        "mixed": [c.label for c in rep.mixed],
        "near_singular": [c.label for c in rep.contributions if c.near_singular],
        "rank_tol": rep.rank_tol,
        "total": rep.total,
    }
    _write_json(out / "aps_kernel.json", payload, cfg)
    # Hodge duality pairs degrees p and n+1-p only if M2's far end is a tip:
    # the star turns an absolute far end into a relative one
    m = cfg.n + 1
    pairs = range(m + 1) if problem.profile.end_bc is BCKind.REGULAR_TIP else ()
    failures = [f"kernel degree symmetry broken at p={p}" for p in pairs if rep.dims.get(p, 0) != rep.dims.get(m - p, 0)]
    if rep.mixed:
        failures.append("mixed-degree kernel contributions present")
    return failures


def _cmd_mcgowan(cfg: RunConfig, out: Path, fmt: str, **_):
    rows = []
    failures = []
    cache: dict = {}
    m1, m2 = cfg.m1(), cfg.m2()
    for eps in cfg.epsilons:
        for p in range(1, cfg.n + 1):
            rep = mcgowan_report(m1, m2, cfg.n, p, eps, cfg.mesh(), _slot_cache=cache)
            rows.append([eps, p, rep.mu_p_u1, rep.mu_p_u2, rep.mu_pm1_u12, rep.omega, rep.c_rho, rep.bound])
            if rep.bound <= 0:
                failures.append(f"nonpositive bound at eps={eps}, p={p}")
    _write_table(
        out / "mcgowan.csv",
        ["epsilon", "p", "mu_p_u1", "mu_p_u2", "mu_pm1_u12", "omega", "c_rho", "bound"],
        rows,
        cfg,
        fmt,
    )
    return failures


def _cmd_dodziuk(cfg: RunConfig, out: Path, fmt: str, lam: float = 0.0, eta: float = 0.0, **_):
    lo, hi = dodziuk_interval(lam, eta, cfg.n, cfg.degrees[0])
    print(f"[{_fmt(lo)}, {_fmt(hi)}]")
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="conesum", description="Hodge-de Rham spectra of collapsing connected sums")
    parser.add_argument("command", choices=["modes", "spectrum", "sweep", "aps-kernel", "mcgowan", "dodziuk"])
    parser.add_argument("--config", type=str, default=None, help="JSON config path (defaults apply otherwise)")
    parser.add_argument("--out", type=str, default=None, help="output directory override")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--svg", action="store_true", help="emit SVG plots (sweep)")
    parser.add_argument("--jobs", type=int, default=1, help="accepted and ignored: the sweep runs in one process")
    parser.add_argument("--eps", type=float, default=None, help="build the connected sum at this eps (spectrum)")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0, help="eigenvalue input (dodziuk)")
    parser.add_argument("--eta", type=float, default=0.0, help="metric pinching parameter (dodziuk)")
    parser.add_argument("--n", dest="n_override", type=int, default=None)
    parser.add_argument("--p", dest="p_override", type=int, default=None)
    args = parser.parse_args(argv)

    overrides: dict = {}
    if args.n_override is not None:
        overrides["n"] = args.n_override
    if args.p_override is not None:
        overrides["degrees"] = [args.p_override]
    try:
        cfg = load_config(args.config, overrides)
        out = Path(args.out if args.out is not None else cfg.output["directory"])
        fmt = args.format if args.format is not None else cfg.output["format"]
        svg = args.svg or cfg.output["svg"]
        handler = {
            "modes": _cmd_modes,
            "spectrum": _cmd_spectrum,
            "sweep": _cmd_sweep,
            "aps-kernel": _cmd_aps_kernel,
            "mcgowan": _cmd_mcgowan,
            "dodziuk": _cmd_dodziuk,
        }[args.command]
        failures = handler(cfg, out, fmt, eps=args.eps, jobs=args.jobs, svg=svg, lam=args.lam, eta=args.eta)
    except ConesumError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    if failures:
        print(json.dumps({"failed_checks": failures}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
