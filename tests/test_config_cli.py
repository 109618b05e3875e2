import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conesum.cli import main
from conesum.config import DEFAULTS, SCHEMA, _violation, load_config
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


def test_schema_is_a_valid_draft_2020_12_schema():
    # load_config interprets SCHEMA without checking it against the metaschema
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


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
    for removed in (
        {"solver": {"fem_order": 3}},
        {"solver": {"grading": False}},
        {"solver": {"zero_threshold_rel": 1e-8}},
        {"solver": {"cross_rtol": 1e-6}},
        {"solver": {"cap_factor": 1.0}},
        {"mcgowan": {"omega": 1.0}},
        {"mcgowan": {"c_rho": 1.0}},
        {"checks": {"taka_margin": 1.05}},
        {"checks": {"final_rel_tol": 0.02}},
    ):
        bad.write_text(json.dumps(removed))
        with pytest.raises(ConfigError):
            load_config(bad)


@pytest.mark.parametrize("text", ["[1]", '"x"', "null"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError" and record["message"].endswith("is not of type 'object'")


def test_schema_violations_name_their_path():
    cases = {
        "config.solver.method: 'q' is not one of ['fem', 'secular', 'both']": {"solver": {"method": "q"}},
        "config.degrees[1]: -1 is less than the minimum of 0": {"degrees": [0, -1]},
        "config.n: True is not of type 'integer'": {"n": True},
        "config.m1: additional properties are not allowed ('depth')": {"m1": {"depth": 1.0}},
    }
    for message, override in cases.items():
        with pytest.raises(ConfigError) as info:
            load_config(None, override)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"lam_max": NaN}', "config.lam_max"),
        ('{"lam_max": Infinity}', "config.lam_max"),
        ('{"m2": {"type": "truncated_spindle", "radius": Infinity, "cut": 1.0}}', "config.m2.radius"),
        ('{"solver": {"mesh_h": NaN}}', "config.solver.mesh_h"),
        ('{"epsilons": [Infinity, 0.1]}', "config.epsilons[0]"),
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, capsys, text, path):
    # json reads NaN and Infinity and the schema's bounds let them through;
    # the enumeration and the mesher would then never end
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path), "--eps", "0.1"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{path}: ") and record["message"].endswith(" is not a finite number")


SCHEMA_KEYS = sorted({key for schema in (SCHEMA, SCHEMA["properties"]["m1"]) for key in schema["properties"]})
LEAVES = st.one_of(
    st.sampled_from([None, True, False, "", "q", "fem", "both", "json", "cone", "annulus", "out"]),
    st.integers(min_value=-2, max_value=4),
    st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(SCHEMA_KEYS + ["extra"]), inner, max_size=2)
    ),
    max_leaves=4,
)
DRAFT_2020_12 = jsonschema.Draft202012Validator(SCHEMA)


def near(schema):
    """Values of a field's own type, at and around its bound, or any value."""
    kind = schema.get("type")
    if "enum" in schema:
        fitting = st.sampled_from(schema["enum"] + ["q"])
    elif kind in ("number", "integer"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum"))
        fitting = st.sampled_from([lo - 1, lo, float(lo), lo + 0.5, lo + 1, float(lo + 1), True])
    elif kind == "array":
        fitting = st.lists(near(schema["items"]), max_size=3)
    elif kind == "boolean":
        fitting = st.booleans()
    elif kind == "string":
        fitting = st.text(max_size=3)
    else:
        return VALUES
    return st.one_of(fitting, fitting, VALUES)


def containers(value, schema):
    """Every object and array in ``value``, each with the schema it must meet."""
    yield value, schema
    if isinstance(value, dict):
        children = [(child, schema.get("properties", {}).get(key, {})) for key, child in value.items()]
    else:
        children = [(child, schema.get("items", {})) for child in value]
    for child, sub in children:
        if isinstance(child, (dict, list)):
            yield from containers(child, sub)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_schema_interpreter_agrees_with_jsonschema(data):
    # mutate the defaults anywhere: replace, add or delete a key of any
    # object, or replace, append or clear the items of any array
    cfg = copy.deepcopy(DEFAULTS)
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        target, schema = data.draw(st.sampled_from(list(containers(cfg, SCHEMA))))
        if isinstance(target, dict):
            key = data.draw(st.sampled_from(sorted(set(target) | set(schema.get("properties", {})) | {"extra"})))
            if key in target and data.draw(st.booleans()):
                del target[key]
            else:
                target[key] = data.draw(near(schema.get("properties", {}).get(key, {})))
        else:
            items = near(schema.get("items", {}))
            action = data.draw(st.sampled_from(["set", "set", "append", "clear"] if target else ["append", "clear"]))
            if action == "set":
                target[data.draw(st.integers(min_value=0, max_value=len(target) - 1))] = data.draw(items)
            elif action == "append":
                target.append(data.draw(items))
            else:
                target.clear()
    assert (_violation(SCHEMA, cfg) is None) == DRAFT_2020_12.is_valid(cfg)


def test_integral_floats_read_as_integers(tmp_path):
    # JSON Schema's "integer" admits 3.0; the config reads it as 3, and the
    # raw config keeps what was given
    cfg = load_config(None, {"n": 3.0, "degrees": [0.0, 2]})
    assert (cfg.n, cfg.degrees) == (3, [0, 2])
    assert type(cfg.n) is int and all(type(p) is int for p in cfg.degrees)
    assert repr(cfg.raw["n"]) == "3.0"
    rows = []
    for n in (3, 3.0):
        out = tmp_path / repr(n)
        cfg_path = write_cfg(tmp_path, n=n, degrees=[0], lam_max=10.0)
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows.append([ln for ln in (out / "spectrum.csv").read_text().splitlines() if not ln.startswith("#")])
    assert len(rows[0]) > 1 and rows[0] == rows[1]


def test_repeated_degree_is_rejected(tmp_path, capsys):
    # a repeated degree would write every sweep row twice
    with pytest.raises(ConfigError, match="degree 0 is repeated"):
        load_config(None, {"degrees": [0, 1, 0]})
    cfg = write_cfg(tmp_path, degrees=[0, 0], epsilons=[0.2, 0.1], k_track=2, lam_max=20.0)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError" and "degree 0" in record["message"]
    assert not (tmp_path / "sweep.csv").exists()


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


@pytest.mark.parametrize("args", [["--lambda", "nan"], ["--lambda", "inf"], ["--eta", "inf"], ["--eta", "1e300"]])
def test_dodziuk_rejects_nonfinite_inputs(args, capsys):
    assert main(["dodziuk", *args]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_modes_output_contract(tmp_path):
    assert main(["modes", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "modes.csv").read_text().splitlines()
    assert lines[0].startswith("# conesum")
    assert lines[1].startswith("# generated")
    assert lines[2] == "n,q,k,mu_sq,mult,family,gamma,degree"
    assert any(",harmonic," in l for l in lines[3:])


def test_modes_fails_on_swapped_eigenvector_columns(tmp_path, monkeypatch, capsys):
    # swapped columns stay orthonormal and keep the eigenvalues, so only
    # V diag(gamma) V^T = A can see that each gamma has the other's eigenvector
    from dataclasses import replace

    from conesum import cone_operator

    build = cone_operator._symmetric_block
    swapped = lambda mode, family: replace(build(mode, family), eigvecs=build(mode, family).eigvecs[:, ::-1])
    monkeypatch.setattr(cone_operator, "_symmetric_block", swapped)
    assert main(["modes", "--out", str(tmp_path)]) == 1
    failed = json.loads(capsys.readouterr().err)["failed_checks"]
    assert failed and all(f.startswith("eigendecomposition off the block at") for f in failed)


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


@pytest.mark.parametrize("n", [2, 3])
def test_aps_kernel_of_an_annulus_has_no_duality_check(tmp_path, n):
    # Hodge duality pairs degrees p and n+1-p only when M2's far end is a
    # tip; an annulus's absolute far end becomes relative under the star, and
    # its kernel sits in degree n alone
    cfg = write_cfg(tmp_path, n=n, m2={"type": "annulus", "r_lo": 1.0, "r_hi": 2.0})
    assert main(["aps-kernel", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    dims = json.loads((tmp_path / "aps_kernel.json").read_text())["dims"]
    assert {p: d for p, d in dims.items() if d} == {str(n): 1}


def test_aps_kernel_checks_duality_when_m2_ends_at_a_tip(tmp_path, capsys, monkeypatch):
    from conesum import cli
    from conesum.aps_limit import KernelReport

    monkeypatch.setattr(cli, "aps_kernel", lambda problem: KernelReport(dims={0: 0, 1: 1, 2: 0, 3: 0}))
    assert main(["aps-kernel", "--out", str(tmp_path)]) == 1
    assert "kernel degree symmetry broken at p=1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["spindle", "cone"])
def test_aps_kernel_rejects_an_m2_that_starts_at_a_tip(tmp_path, capsys, kind):
    cfg = write_cfg(tmp_path, m2={"type": kind, "radius": 2.0})
    assert main(["aps-kernel", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert err["message"] == "the APS condition needs m2 to start with a boundary, not at a tip"


def test_a_model_of_another_type_replaces_the_default_model():
    # the default m2's cut would be a parameter an annulus does not take
    annulus = {"type": "annulus", "r_lo": 1.0, "r_hi": 2.0}
    assert load_config(None, {"m2": annulus}).raw["m2"] == annulus
    amended = {"type": "truncated_spindle", "radius": 3.0, "cut": 1.0}
    assert load_config(None, {"m2": {"radius": 3.0}}).raw["m2"] == amended


def test_a_model_parameter_its_model_does_not_take_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, m1={"type": "spindle", "radius": 1.0, "cut": 0.5})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path), "--eps", "0.1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert err["message"] == "model 'spindle' takes no parameter 'cut'"


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


def test_sweep_honours_solver_fields(tmp_path, capsys, monkeypatch):
    # with method "both" the sweep cross-checks FEM against the secular
    # solver as `spectrum` does: a tolerance below FEM's accuracy must fail it
    from conesum import analysis

    monkeypatch.setattr(analysis, "CROSS_RTOL", 1e-14)
    solver = {**DEFAULTS["solver"], "method": "both"}
    cfg = write_cfg(tmp_path, degrees=[0], epsilons=[0.2], k_track=1, lam_max=15.0, solver=solver)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SolverDisagreementError"


def test_secular_sweep_with_caps_on_eigenvalues_of_later_channels(tmp_path):
    # the k-lowest search caps each channel at an eigenvalue it found; on the
    # symmetric spindle that value, 59.67951594410944, is also one of a slot
    # whose eigenform has a node at the matching breakpoint, which the count
    # once took twice, so the secular solver never isolated it
    solver = {**DEFAULTS["solver"], "method": "secular"}
    cfg = write_cfg(tmp_path, lam_max=60.0, k_track=4, solver=solver)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_sweep_with_both_methods_at_a_cap_that_is_a_fem_value(tmp_path):
    # the k-lowest search's cap 59.67951594571888 is a FEM value; the slot
    # p2:n2:q0:k1:minus_half has its secular root 1.6e-9 below it and its FEM
    # value 2.5e-13 above it, so the exact counts at the cap read 4 and 3,
    # and the cross-check once failed the run there
    rows = {}
    for method in ("both", "fem"):
        out = tmp_path / method
        out.mkdir()
        solver = {**DEFAULTS["solver"], "method": method}
        cfg = write_cfg(out, lam_max=60.0, k_track=4, solver=solver)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0, method
        rows[method] = [line for line in (out / "sweep.csv").read_text().splitlines() if not line.startswith("#")]
    assert len(rows["both"]) > 1
    assert rows["both"] == rows["fem"]


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sweep_json_outputs_are_strict(tmp_path):
    # McGowan covers p >= 1, so the p = 0 rows have no bound: null, not NaN
    cfg = write_cfg(tmp_path, degrees=[0], epsilons=[0.2, 0.1], k_track=2, lam_max=15.0)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
    table = json.loads((tmp_path / "sweep.json").read_text(), parse_constant=reject_constant)
    mcgowan = table["columns"].index("mcgowan")
    assert table["rows"] and all(row[mcgowan] is None for row in table["rows"])
    json.loads((tmp_path / "report.json").read_text(), parse_constant=reject_constant)


def test_json_writers_write_null_for_non_finite_floats(tmp_path):
    from conesum.cli import _write_json, _write_table

    cfg = load_config(None)
    _write_table(tmp_path / "t.csv", ["a", "b"], [[1.5, float("nan")], [float("inf"), 2]], cfg, "json")
    table = json.loads((tmp_path / "t.json").read_text(), parse_constant=reject_constant)
    assert table["rows"] == [[1.5, None], [None, 2]]
    _write_json(tmp_path / "r.json", {"checks": {"bord_ratio_max": float("nan")}, "x": [-float("inf"), 0.5]}, cfg)
    report = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject_constant)
    assert report["checks"] == {"bord_ratio_max": None} and report["x"] == [None, 0.5]


def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys):
    cfg = write_cfg(tmp_path, degrees=[0], epsilons=[0.2], k_track=1, lam_max=15.0)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--jobs", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_sweep_jobs_has_no_effect(tmp_path):
    # --jobs is accepted for existing callers; the sweep runs in one process
    cfg = write_cfg(tmp_path, degrees=[0, 1], epsilons=[0.2, 0.1], k_track=1, lam_max=15.0)
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / jobs
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
        outs.append([strip_timestamp((out / name).read_text()) for name in ("sweep.csv", "report.json")])
    assert outs[0] == outs[1]


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
    # -B keeps it from writing bytecode into perfbench/.  One secular_value
    # reading, sin of the walk's angle sum (which the solver does not call),
    # must then show up in the secular spans and the Bessel counters, and
    # one FEM solve in the hooks that read its entries and eigsh's sparse K.
    root = Path(__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import conesum.cli\nfrom tracer import Tracer, layer_metrics\n"
        "tracer = Tracer(); tracer.install()\n"
        "from conesum import geometry\nfrom conesum.radial import fem, problems, transfer\n"
        "probs = problems.degree_problems(geometry.cone(1.0), 2, 0, 40.0)[0]\n"
        "assert len(transfer.transfer_spectrum(probs[0], 40.0).entries) > 0\n"
        "assert transfer.secular_value(probs[0], [1.0, 20.0, 40.0]).shape == (3,)\n"
        "assert len(fem.fem_spectrum(probs[0], fem.MeshSpec(h=0.1), 40.0).entries) > 0\n"
        "m = layer_metrics(tracer.dump(), ['radial.transfer.secular_value'])\n"
        "print(m['radial.transfer.secular_value.calls'], m['radial.bessel.jy_arrays.calls'],"
        " m['radial.bessel.jy_arrays.points'], m['radial.fem.fem_spectrum.eigs_returned'],"
        " m['radial.fem.pencil.nnz'])\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans, calls, points, eigs_returned, nnz = map(int, proc.stdout.split())
    assert spans > 0 and calls > 0 and points > 0
    assert eigs_returned > 0 and nnz > 0


BENCHMARK_GUARD = """
import json, sys
from pathlib import Path
root, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import check, workloads
from conesum.cli import main
for name in ("sweep", "crosscheck", "hodge"):
    workload = workloads.WORKLOADS[name]
    refs = json.loads((root / "perfbench" / "refs" / f"{name}.json").read_text())
    for variant in range(workloads.VARIANTS):
        cfg, eps = workloads.inputs(workload, variant)
        stored = refs[str(variant)]
        assert (stored["config"], stored["eps"]) == (cfg, eps), (name, variant)
        path, out = work / f"{name}{variant}.json", work / f"{name}{variant}"
        path.write_text(json.dumps(cfg))
        assert main(workloads.argv(workload, str(path), str(out), eps)) == 0, (name, variant)
        hodge_n = cfg["n"] if workload.hodge_dual else None
        _, failures = check.check_output(out, workload.outputs, stored["output"], hodge_n)
        print(f"{name}:{variant}", json.dumps(failures))
"""


def test_benchmark_workloads_match_their_references(tmp_path):
    # every stored input variant of every benchmark workload, run as the
    # benchmark runs it and checked by its checker against its stored
    # reference; in one fresh interpreter, with -B so nothing is written
    # into perfbench/
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", BENCHMARK_GUARD, str(root), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    failures = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    expected = [f"{name}:{variant}" for name in ("sweep", "crosscheck", "hodge") for variant in range(16)]
    assert failures == dict.fromkeys(expected, "[]")


def test_cli_import_leaves_jsonschema_and_scipy_optimize_unloaded():
    # no command needs either, and importing them would cost every command
    # start-up time and memory (scipy.optimize about 0.09 s, jsonschema about
    # 0.1 s and 4 MB); run in a fresh interpreter, since the tests import both.
    # Only the tests use the Sturm-Liouville oracle, and scipy.linalg must load
    # before scipy.sparse (see the comment on that import in radial/fem.py)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = (
        "import conesum.cli, sys; m = list(sys.modules)\n"
        "print(sorted({'jsonschema', 'scipy.optimize', 'conesum.radial.sturm'} & set(m)))\n"
        "print(m.index('scipy.linalg') < m.index('scipy.sparse'))"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conesum.cli", "dodziuk", "--lambda", "3", "--eta", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[3, 3]"
