import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conesum.cli import main
from conesum.config import DEFAULTS, SCHEMA, load_config
from conesum.errors import ConfigError


def strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("# generated"))


def write_cfg(tmp_path, **overrides):
    cfg = json.loads(json.dumps(DEFAULTS))
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.n == 2
    assert cfg.degrees == [0, 1]
    assert cfg.m1().r_max == 1.0
    assert cfg.m2().start_radius == 1.0
    assert len(cfg.hash()) == 16


def test_schema_rejections(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1}))
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text(json.dumps({"epsilons": [0.1, 0.2]}))
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text(json.dumps({"epsilons": [0.1, 0.1]}))
    with pytest.raises(ConfigError):
        load_config(bad)
    for solver in ({"fem_order": 3}, {"grading": False}, {"zero_threshold_rel": 1e-8}):
        bad.write_text(json.dumps({"solver": solver}))
        with pytest.raises(ConfigError):
            load_config(bad)


def test_hash_stable_under_key_order(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"n": 2, "lam_max": 40.0}')
    b.write_text('{"lam_max": 40.0, "n": 2}')
    assert load_config(a).hash() == load_config(b).hash()


def test_dodziuk_identity(capsys):
    assert main(["dodziuk", "--lambda", "2", "--eta", "0", "--n", "2", "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "[2, 2]"


def test_dodziuk_substitution(capsys):
    assert main(["dodziuk", "--lambda", "1", "--eta", "0.1", "--n", "2", "--p", "1"]) == 0
    out = capsys.readouterr().out.strip()
    lo, hi = json.loads(out)
    import math

    assert lo == pytest.approx(math.exp(-0.4), rel=1e-11)
    assert hi == pytest.approx(math.exp(0.4), rel=1e-11)


def test_modes_output_contract(tmp_path):
    assert main(["modes", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "modes.csv").read_text().splitlines()
    assert lines[0].startswith("# conesum")
    assert lines[1].startswith("# generated")
    assert lines[2] == "n,q,k,mu_sq,mult,family,gamma,degree"
    assert any(",harmonic," in l for l in lines[3:])


def test_modes_fails_on_a_broken_projector(tmp_path, monkeypatch):
    # the completeness check compares both projected parts with the data
    from conesum.cone_operator import ApsProjector

    monkeypatch.setattr(ApsProjector, "negative_matrix", lambda self, block: np.zeros((block.size, block.size)))
    assert main(["modes", "--out", str(tmp_path)]) == 1


def test_modes_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["modes", "--out", str(out1)]) == 0
    assert main(["modes", "--out", str(out2)]) == 0
    a = strip_timestamp((out1 / "modes.csv").read_text())
    b = strip_timestamp((out2 / "modes.csv").read_text())
    assert a == b


def test_aps_kernel_output(tmp_path):
    assert main(["aps-kernel", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "aps_kernel.json").read_text())
    assert payload["dims"] == {"0": 0, "1": 0, "2": 0, "3": 0}
    assert payload["total"] == 0
    assert "config_sha256" in payload["provenance"]


def test_spectrum_command(tmp_path):
    cfg = write_cfg(tmp_path, degrees=[0], lam_max=15.0)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    header = lines[2].split(",")
    assert header == ["profile", "p", "idx", "lambda", "mult", "q", "k", "family", "method", "estimate"]
    assert len(lines) > 3


def test_spectrum_json_format(tmp_path):
    cfg = write_cfg(tmp_path, degrees=[0], lam_max=10.0)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["columns"][0] == "profile"


def test_sweep_command_small(tmp_path):
    cfg = write_cfg(
        tmp_path,
        degrees=[0],
        epsilons=[0.2, 0.1],
        k_track=2,
        lam_max=15.0,
    )
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--svg"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[2] == "epsilon,p,k,lambda_eps,lambda_m1,abs_err,rel_err,bord_ratio,mcgowan,zero_count"
    assert len(lines) == 3 + 2 * 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"]["errors_decreasing"] is True
    assert (tmp_path / "plots" / "error_vs_eps.svg").exists()


def test_sweep_honours_solver_fields(tmp_path, capsys):
    # a cross-solver tolerance below FEM's accuracy must fail the sweep as
    # it fails `spectrum`, not be dropped
    solver = {**DEFAULTS["solver"], "method": "both", "cross_rtol": 1e-14}
    cfg = write_cfg(tmp_path, degrees=[0], epsilons=[0.2], k_track=1, lam_max=15.0, solver=solver)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SolverDisagreementError"


def test_spectrum_connected_sum_flag(tmp_path):
    cfg = write_cfg(tmp_path, degrees=[0], lam_max=12.0)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path), "--eps", "0.1"]) == 0
    body = (tmp_path / "spectrum.csv").read_text()
    assert "m_eps=0.1" in body


def test_mcgowan_command(tmp_path):
    cfg = write_cfg(tmp_path, epsilons=[0.1], degrees=[0])
    assert main(["mcgowan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mcgowan.csv").read_text().splitlines()
    assert lines[2] == "epsilon,p,mu_p_u1,mu_p_u2,mu_pm1_u12,omega,c_rho,bound"
    assert len(lines) == 3 + 2  # p = 1, 2 at one epsilon


def test_cli_error_record(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 0}))
    rc = main(["modes", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


def test_benchmark_tracer_binds_every_traced_name():
    # perfbench's tracer wraps conesum functions by module and name, and
    # rewrites module attributes, so it must run in its own interpreter;
    # -B keeps it from writing bytecode into perfbench/.  One secular solve
    # must then show up in the secular spans and the Bessel counters.
    root = Path(__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import conesum.cli\nfrom tracer import Tracer, layer_metrics\n"
        "tracer = Tracer(); tracer.install()\n"
        "from conesum import geometry\nfrom conesum.radial import problems, transfer\n"
        "probs = problems.degree_problems(geometry.cone(1.0), 2, 0, 40.0)[0]\n"
        "assert len(transfer.transfer_spectrum(probs[0], 40.0).entries) > 0\n"
        "m = layer_metrics(tracer.dump(), ['radial.transfer.secular_value'])\n"
        "print(m['radial.transfer.secular_value.calls'], m['radial.bessel.jy_arrays.calls'],"
        " m['radial.bessel.jy_arrays.points'])\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans, calls, points = map(int, proc.stdout.split())
    assert spans > 0 and calls > 0 and points > 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no command needs scipy.optimize, and importing it would cost every
    # command about 0.09 s of start-up; run in a fresh interpreter, since
    # other tests may have imported it into this one
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r})\nimport conesum.cli\nprint('scipy.optimize' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conesum.cli", "dodziuk", "--lambda", "3", "--eta", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[3, 3]"
