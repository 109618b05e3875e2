import json
import subprocess
import sys
from pathlib import Path

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
    bad.write_text(json.dumps({"solver": {"fem_order": 3}}))
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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conesum.cli", "dodziuk", "--lambda", "3", "--eta", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[3, 3]"
