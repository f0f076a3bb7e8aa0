import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import edgehodge
from edgehodge import verify
from edgehodge.cli import main
from edgehodge.report import RunConfig, run
from edgehodge.stratified import builtin_space, model_to_dict


def test_list_names_and_count(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("cone-circle", "cone-torus", "cone-sphere2", "susp-torus",
                 "edge-circle-over-circle", "edge-torus-over-circle"):
        assert name in out
    assert "(3,0,2)" in out and "(4,1,2)" in out


def test_ih_table_cone_torus(capsys):
    assert main(["ih", "--space", "cone-torus", "--perversity", "mbar"]) == 0
    out = capsys.readouterr().out
    assert "1 2 0 0" in out


def test_weights_table_cone_torus(capsys):
    assert main(["weights", "--space", "cone-torus", "--a", "0"]) == 0
    out = capsys.readouterr().out
    assert "1 2 0 0" in out      # max
    assert "1 0 0 0" in out      # min and minimal-hodge


def test_verify_all_cone_circle_exit_zero(capsys):
    assert main(["verify", "--all", "--space", "cone-circle"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_unknown_space_exit_code(capsys):
    assert main(["ih", "--space", "cone-klein", "--perversity", "0"]) == 2


def test_bad_rational_exit_code(capsys):
    assert main(["weights", "--space", "cone-torus", "--a", "0.5x"]) == 2


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == 2


def test_model_invariant_exit_code(tmp_path, capsys):
    data = model_to_dict(builtin_space("cone-torus"))
    data["n"] = 7
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 3


def test_verification_failure_exit_code(monkeypatch, capsys):
    def failing(_names=None):
        return [verify.CheckResult("demo", "always-fails", False, "")]

    monkeypatch.setitem(verify.SUITES, "demo", failing)
    assert main(["verify", "--suites", "demo"]) == 4


def test_spectral_command_discrete_torus(capsys):
    assert main(["spectral", "--f", "2", "--a", "0", "--fibre-kind", "torus",
                 "--sizes", "8,8"]) == 0
    out = capsys.readouterr().out
    assert "essentially self-adjoint: no" in out
    assert "degree 1, lambda^2=0" in out


def test_spectral_command_sphere(capsys):
    assert main(["spectral", "--f", "2", "--a", "0",
                 "--fibre-kind", "sphere2"]) == 0
    out = capsys.readouterr().out
    assert "essentially self-adjoint: yes" in out


def test_cone_lab_command(capsys):
    assert main(["cone-lab", "--a", "0", "--betti", "1,2,1",
                 "--mode", "0,0"]) == 0
    out = capsys.readouterr().out
    assert "local cohomology max: 1 2 0" in out
    assert "pass" in out


def test_complete_command(capsys):
    assert main(["complete", "--space", "edge-torus-over-circle"]) == 0
    out = capsys.readouterr().out
    assert "Infinite" in out and "5/2" in out


def test_fibre_spec_csv(tmp_path, capsys):
    csv_path = tmp_path / "s.csv"
    assert main(["fibre-spec", "--kind", "circle", "--sizes", "8",
                 "--count", "3", "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("degree,index,eigenvalue")


def test_run_report_deterministic(tmp_path):
    cfg = {
        "spaces": ["cone-torus"],
        "weights": ["0", "1/2"],
        "fibre_grid": [8, 8],
        "suites": ["cochain"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["ok"] is True
    cell = report["spaces"][0]["weights"][0]
    assert cell["max"]["dims"]["provenance"] == "exact"
    assert cell["max"]["dims"]["value"] == [1, 2, 0, 0]


def test_run_config_validation():
    with pytest.raises(Exception):
        RunConfig({"spaces": [], "weights": ["0"]})
    with pytest.raises(Exception):
        RunConfig({"weights": ["1/0"]})
    with pytest.raises(Exception):
        RunConfig({"fibre_grid": [2]})
    with pytest.raises(Exception):
        RunConfig({"suites": ["nonexistent"]})


def test_run_function_direct():
    config = RunConfig({
        "spaces": ["cone-circle"],
        "weights": ["0"],
        "fibre_grid": [8],
        "suites": [],
    })
    report = run(config)
    entry = report["spaces"][0]
    assert entry["middle_perversities"] == [0, 0]
    assert entry["weights"][0]["essentially_selfadjoint"]["value"] is True
    assert all(c["verdict"].startswith("Finite") for c in entry["complete_l2"])


def test_json_output_mode(capsys):
    assert main(["ih", "--space", "cone-torus", "--perversity", "1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"]["value"] == [1, 0, 0, 0]
    assert payload["dims"]["provenance"] == "exact"


def test_spectral_from_spectrum_file(tmp_path, capsys):
    from edgehodge.spectral import sphere2_spectrum

    path = tmp_path / "s2.json"
    path.write_text(json.dumps(sphere2_spectrum().to_dict()))
    assert main(["spectral", "--f", "2", "--a", "0",
                 "--spectrum", str(path)]) == 0
    out = capsys.readouterr().out
    assert "essentially self-adjoint: yes" in out


def test_run_config_degree_range(tmp_path):
    cfg = {
        "spaces": ["susp-torus"],
        "weights": ["0"],
        "degrees": [1, 2],
        "fibre_grid": [8, 8],
        "suites": [],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    ks = [c["k"] for c in report["spaces"][0]["complete_l2"]]
    assert ks == [1, 2]


REPORT_CONFIG = {
    "spaces": ["cone-torus", "edge-circle-over-circle",
               "edge-torus-over-circle", "susp-torus"],
    "weights": ["-5/4", "1/2", "0", "3/4", "-1/2", "5/4"],
    "fibre_grid": [16, 16],
    "suites": False,
}


def test_run_computes_each_spectrum_and_mode_once_per_run(monkeypatch):
    from edgehodge import fibredec, radial

    calls = {"mode_exponent": 0, "spectrum_for_predicates": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(radial, "mode_exponent")
    counting(fibredec, "spectrum_for_predicates")
    config = RunConfig(REPORT_CONFIG)
    # two torus links and one circle link; at a = -5/4 no mode is a
    # double root, so (k, f) in {0, 1} x {1, 2} gives four radial solves
    first = run(config)
    assert calls == {"mode_exponent": 4, "spectrum_for_predicates": 2}
    # a second run repeats the work: no cache outlives a run
    second = run(config)
    assert calls == {"mode_exponent": 8, "spectrum_for_predicates": 4}
    assert first == second


@pytest.mark.parametrize("change, message", [
    ({"fibre_grid": 16}, "fibre grid must be a list"),
    ({"fibre_grid": "ab"}, "fibre grid must be a list"),
    ({"fibre_grid": []}, "fibre grid must be a list"),
    ({"weights": 5}, "weights must be a list"),
    ({"suites": 5}, "suites must be"),
    ({"radial": "x"}, "radial must be"),
    ({"radial": {"x0": "abc"}}, "radial x0 is not a number"),
    ({"radial": {"points_per_decade": 0}}, "points_per_decade must be"),
    ({"degrees": "ab"}, "degrees must be"),
    ({"degrees": [0]}, "degrees must be"),
    ({"spaces": "cone-torus"}, "spaces must be a list"),
    ({"spaces": [{"file": 5}]}, "bad space entry"),
], ids=["grid-int", "grid-string", "grid-empty", "weights-int", "suites-int",
        "radial-string", "x0-string", "ppd-zero", "degrees-string",
        "degrees-short", "spaces-string", "file-not-path"])
def test_malformed_run_config_exit_code(tmp_path, capsys, change, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spaces": ["cone-circle"], "weights": ["0"],
                                "fibre_grid": [8], "suites": False, **change}))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _malformed_cone_circle(mutate):
    data = model_to_dict(builtin_space("cone-circle"))
    mutate(data)
    return data


def _set_first_entry(data, text):
    data["F"]["differentials"][0][0][0] = text


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(F=[1, 2]), "F: a complex must be an object"),
    (lambda d: _set_first_entry(d, "1/0"), "F: not an exact rational: '1/0'"),
    (lambda d: d["restriction"].update(maps="oops"), "restriction: a map must be"),
    (lambda d: d["restriction"].update(maps=[]), "restriction: a map needs 2 matrices"),
], ids=["complex-not-object", "zero-denominator", "maps-string", "maps-empty"])
def test_malformed_model_file_exit_code(tmp_path, capsys, mutate, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed_cone_circle(mutate)))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _json_paths(node, prefix=()):
    if prefix:
        yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


_CONE_CIRCLE = model_to_dict(builtin_space("cone-circle"))
_JUNK = st.sampled_from([None, True, 1.5, -1, 7, "x", "2", "1/0", "oops",
                         [], {}, [1, 2], [["1"]], {"a": 1}])


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(list(_json_paths(_CONE_CIRCLE))), junk=_JUNK,
       delete=st.booleans())
def test_mutated_model_file_never_crashes(tmp_path_factory, path, junk, delete):
    data = json.loads(json.dumps(_CONE_CIRCLE))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    file = tmp_path_factory.mktemp("fuzz") / "model.json"
    file.write_text(json.dumps(data))
    assert main(["ih", "--file", str(file), "--perversity", "0"]) in (0, 2, 3)


def _twisted_y_cone_circle():
    # change Y's basis by negating its degree-0 vector (column 0 of Y.d0)
    # and compose the restriction with that change (negate row 0 of its
    # degree-0 matrix): a consistent model whose Y is not tensor(B, F)
    data = model_to_dict(builtin_space("cone-circle"))
    for row in data["Y"]["differentials"][0]:
        row[0] = str(-int(row[0]))
    maps0 = data["restriction"]["maps"][0]
    maps0[0] = [str(-int(x)) for x in maps0[0]]
    return data


@pytest.mark.parametrize("perversity", ["0", "1"])
def test_non_product_y_rejected_at_load(tmp_path, capsys, perversity):
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(_twisted_y_cone_circle()))
    assert main(["ih", "--file", str(path), "--perversity", perversity]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("model invariant violated: cone-circle: "
                            "Y is not the product complex tensor(B, F)\n")


def test_restriction_not_a_chain_map_rejected_at_load(tmp_path, capsys):
    # zero the degree-0 restriction of cone-circle and keep the identity in
    # degree 1: d ρ_0 = 0 but ρ_1 d = d, which is not zero
    data = model_to_dict(builtin_space("cone-circle"))
    data["restriction"]["maps"][0] = [["0", "0"], ["0", "0"]]
    path = tmp_path / "not-chain.json"
    path.write_text(json.dumps(data))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("model invariant violated: cone-circle: "
                            "restriction is not a chain map\n")


def test_y_failing_d_squared_rejected_at_load(tmp_path, capsys):
    # zero one entry of Y's d_0: d_1 d_0 no longer vanishes, and Y is no
    # longer tensor(B, F), so the load checks d∘d on Y itself
    data = model_to_dict(builtin_space("cone-torus"))
    data["Y"]["differentials"][0][0][0] = "0"
    path = tmp_path / "bad-y.json"
    path.write_text(json.dumps(data))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "model invariant violated: cone-torus: a complex fails d∘d = 0\n"


@pytest.mark.parametrize("argv, message", [
    (["fibre-spec", "--kind", "torus", "--sizes", "ab"], "sizes must be"),
    (["fibre-spec", "--kind", "circle", "--sizes", "2"], "at least 3 segments"),
    (["fibre-spec", "--kind", "torus", "--sizes", "4,4", "--scale", "1,z"],
     "not an exact rational"),
    (["spectral", "--f", "2", "--a", "0", "--spectrum", "/nonexistent.csv"],
     "cannot read spectrum file"),
    (["spectral", "--f", "2", "--a", "0", "--fibre-kind", "circle", "--sizes", "2"],
     "at least 3 segments"),
    (["cone-lab", "--a", "0", "--mode", "x"], "mode must be k,lambda2"),
    (["cone-lab", "--a", "0", "--mode", "0,-5"], "must be nonnegative"),
    (["cone-lab", "--a", "0", "--mode", "7,0"], "mode degrees must lie in 0..2"),
    (["cone-lab", "--a", "0", "--betti", "1,x"], "betti must be"),
    (["cone-lab", "--a", "0", "--mode", "0,0", "--x0", "0.5"], "x0 must lie"),
    (["cone-lab", "--a", "0", "--mode", "0,0", "--ppd", "0"], "ppd must be"),
    (["spectral", "--f=-1", "--a", "0"], "f must be nonnegative"),
    (["fibre-spec", "--kind", "torus", "--sizes", "4,4", "--count=-1"],
     "count must be"),
], ids=["sizes-not-int", "circle-too-small", "scale-not-rational",
        "spectrum-missing", "spectral-circle-too-small", "mode-not-pair",
        "mode-negative-lambda2", "mode-degree", "betti-not-int", "x0-range",
        "ppd-zero", "spectral-negative-f", "count-negative"])
def test_bad_cli_argument_exit_code(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cone_lab_x0_not_a_power_of_ten(capsys):
    assert main(["cone-lab", "--a", "0", "--mode", "0,0", "--x0", "0.05", "--json"]) == 0
    (mode,) = json.loads(capsys.readouterr().out)["modes"]
    assert mode["pass"] is True


def test_run_with_x0_not_a_power_of_ten_has_no_error_modes():
    rep = run(RunConfig({"spaces": ["cone-torus", "edge-circle-over-circle"],
                         "weights": ["-1", "0", "1/2"], "fibre_grid": [8],
                         "suites": False, "radial": {"x0": 0.05}}))
    modes = [m for s in rep["spaces"] for m in s["radial"]["mode_exponents"]]
    assert modes and not any("error" in m for m in modes)
    assert all(m.get("double_root") or m["pass"] for m in modes)


def _cli_subprocess(*argv):
    """Run ``python -m edgehodge.cli`` in a fresh interpreter, so numpy
    warnings written to stderr are seen as a user sees them."""
    src = str(Path(edgehodge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "edgehodge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("mode", ["0,400", "0,100"])
def test_cone_lab_unrecoverable_exponent_is_an_error(mode):
    # the deflated residual of these modes is lost to rounding; a NaN
    # exponent used to print and pass
    proc = _cli_subprocess("cone-lab", "--a", "0", "--mode", mode)
    assert proc.returncode == 3
    assert "nan" not in proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_cone_lab_large_finite_trajectory_recovers_without_warnings():
    # the trajectory reaches ~1e162 at x0 = 1e-100: finite, though its
    # squared norm is not
    proc = _cli_subprocess("cone-lab", "--a", "0", "--x0", "1e-100", "--mode", "0,1")
    assert proc.returncode == 0, proc.stderr
    assert "[pass]" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr and proc.stderr == ""


def test_cone_lab_unrepresentable_propagator_is_a_stiffness_error(capsys):
    # h * delta = ln(10)/2 * sqrt(1e6) ~ 1151: cosh overflows a float
    assert main(["cone-lab", "--a", "0", "--mode", "0,1000000", "--ppd", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: one-step propagator") and err.count("\n") == 1


def test_run_reports_unrepresentable_propagator_as_mode_error():
    rep = run(RunConfig({"spaces": ["cone-torus"], "weights": ["1000"],
                         "fibre_grid": [4, 4], "suites": False,
                         "radial": {"points_per_decade": 2}}))
    modes = rep["spaces"][0]["radial"]["mode_exponents"]
    assert modes and all("one-step propagator" in m["error"] for m in modes)
