import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import edgehodge
from edgehodge import fibredec, radial, spectral, verify
from edgehodge.cli import main
from edgehodge.report import RunConfig, render_report, report_to_json, run
from edgehodge.spectral import FibreSpectrum
from edgehodge.stratified import builtin_space, model_to_dict

from oracles import dense_model_dict


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


def test_fibre_spec_seven_circle_product(capsys):
    # 3^7 cells in degree 0: answered from the closed form and Künneth,
    # with no product complex built and reduced
    assert main(["fibre-spec", "--kind", "product", "--sizes", "3,3,3,3,3,3,3",
                 "--count", "1", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    binomials = [math.comb(7, q) for q in range(8)]
    assert out["betti"] == binomials
    spec = FibreSpectrum.from_dict(out["spectrum"])
    assert list(spec.zero_multiplicities()) == binomials


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


@pytest.mark.parametrize("text, message", [
    ('{"degrees": [[["1/0", 1]]]}', "zero denominator"),
    ('{"degrees": [[["0", 1e400]]]}', "multiplicity inf"),
    ('{"degrees": [[["0", 1], ["1", 0.5]]]}', "multiplicity 0.5"),
], ids=["zero-denominator", "infinite-multiplicity", "fractional-multiplicity"])
def test_malformed_spectrum_file_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "s.json"
    path.write_text(text)
    assert main(["spectral", "--f", "1", "--a", "0", "--spectrum", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed spectrum file") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


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

    calls = {"mode_exponent": 0, "system_has_roots": 0, "spectrum_for_predicates": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(radial, "mode_exponent")
    counting(radial, "system_has_roots")
    counting(fibredec, "spectrum_for_predicates")
    config = RunConfig(REPORT_CONFIG)
    # three spaces share the torus link and one has the circle link; at
    # a = -5/4 no mode is a double root, so each link's modes in degrees
    # 0 and 1 are checked exactly, once each, and none is fitted
    # numerically
    first = run(config)
    assert calls == {"mode_exponent": 0, "system_has_roots": 4,
                     "spectrum_for_predicates": 2}
    # a second run repeats the work: no cache outlives a run
    second = run(config)
    assert calls == {"mode_exponent": 0, "system_has_roots": 8,
                     "spectrum_for_predicates": 4}
    assert first == second


def test_run_needs_no_numeric_recovery(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("run reports read no numeric recovery")
    monkeypatch.setattr(radial, "mode_exponent", broken)
    rep = run(RunConfig(REPORT_CONFIG))
    modes = [m for s in rep["spaces"] for m in s["radial"]["mode_exponents"]]
    assert len(modes) == 8 and all(m["pass"] for m in modes)
    assert all(m["exponents"]["provenance"] == "exact" for m in modes)


def _count_window_scans(monkeypatch) -> list:
    calls = []
    inner = spectral._window_modes

    def counting(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(spectral, "_window_modes", counting)
    return calls


def test_run_scans_each_critical_window_once(monkeypatch):
    calls = _count_window_scans(monkeypatch)
    run(RunConfig(REPORT_CONFIG))
    # one scan per (link, weight): the torus and circle links x 6 weights,
    # where there are 4 spaces x 6 weights = 24 cells
    assert len(calls) == 12
    assert len({(f, a) for f, a, _spec in calls}) == 12


def test_run_report_shares_no_mutable_object():
    # the per-run memo hands out values, never a dict or list that two
    # places of the report would then share
    seen = set()

    def walk(node):
        if isinstance(node, (dict, list)):
            assert id(node) not in seen
            seen.add(id(node))
            for child in (node.values() if isinstance(node, dict) else node):
                walk(child)
    report = run(RunConfig(REPORT_CONFIG))
    walk(report)
    assert len(seen) > 400


def test_spectral_command_scans_the_window_once(monkeypatch, capsys):
    calls = _count_window_scans(monkeypatch)
    assert main(["spectral", "--f", "2", "--a", "0", "--fibre-kind", "sphere2"]) == 0
    assert len(calls) == 1
    assert "essentially self-adjoint: yes" in capsys.readouterr().out


def test_run_reduces_three_complexes_per_space(monkeypatch):
    # M, B and F once each for each of the four spaces: one reduction per
    # complex gives its Betti numbers, its inclusion and its projection
    from edgehodge import cochain

    reduced = []
    inner = cochain.reduce_complex

    def counting(c):
        reduced.append(c)
        return inner(c)
    monkeypatch.setattr(cochain, "reduce_complex", counting)
    run(RunConfig(REPORT_CONFIG))
    assert len(reduced) == 12


def test_verify_all_bytes_are_frozen(capsys):
    # the text table of every check; a refactor leaves it byte-identical
    want = (Path(__file__).parent / "data" / "verify_all.txt").read_text()
    assert main(["verify", "--all"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("render, name", [(render_report, "report_config.txt"),
                                          (report_to_json, "report_config.json")])
def test_run_report_bytes_are_frozen(render, name):
    # the text and JSON renderings of REPORT_CONFIG, byte for byte; a change
    # that moves any digit regenerates the file on purpose
    want = (Path(__file__).parent / "data" / name).read_text()
    assert render(run(RunConfig(REPORT_CONFIG))) == want


@pytest.mark.parametrize("change, message", [
    ({"fibre_grid": 16}, "fibre grid must be a list"),
    ({"fibre_grid": "ab"}, "fibre grid must be a list"),
    ({"fibre_grid": []}, "fibre grid must be a list"),
    ({"weights": 5}, "weights must be a list"),
    ({"suites": 5}, "suites must be"),
    ({"radial": {"x0": 1e-4}}, "unknown config key 'radial' (known keys: spaces, "
                               "weights, degrees, fibre_grid, suites)"),
    ({"weight": ["0"]}, "unknown config key 'weight'"),
    ({"degrees": "ab"}, "degrees must be"),
    ({"degrees": [0]}, "degrees must be"),
    ({"spaces": "cone-torus"}, "spaces must be a list"),
    ({"spaces": [{"file": 5}]}, "bad space entry"),
    ({"weights": ["1e5000"]}, "rational out of range: '1e5000'"),
    ({"weights": ["1/10000000000000000000000000000000000000000000000000000000000000000"
                  "0000000000000000000000000000000000000"]}, "rational out of range"),
], ids=["grid-int", "grid-string", "grid-empty", "weights-int", "suites-int",
        "radial-key", "weight-misspelt", "degrees-string",
        "degrees-short", "spaces-string", "file-not-path", "weight-huge",
        "weight-denominator-past-bound"])
def test_malformed_run_config_exit_code(tmp_path, capsys, change, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spaces": ["cone-circle"], "weights": ["0"],
                                "fibre_grid": [8], "suites": False, **change}))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["list", "--out", "{missing}"],
    ["list", "--out", "{directory}"],
    ["ih", "--space", "cone-circle", "--perversity", "0", "--out", "{missing}"],
    ["weights", "--space", "cone-circle", "--a", "0", "--out", "{missing}"],
    ["fibre-spec", "--kind", "circle", "--sizes", "6", "--csv", "{missing}"],
], ids=["list-missing-dir", "list-directory", "ih-missing-dir", "weights-missing-dir",
        "csv-missing-dir"])
def test_unwritable_output_path_exit_code(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "absent" / "out"), "directory": str(tmp_path)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("key", ["degrees", "fibre_grid"])
def test_config_integer_past_digit_limit_exit_code(tmp_path, capsys, key):
    # json reads a 5000-digit integer only up to str()'s digit limit
    path = tmp_path / "cfg.json"
    path.write_text('{"spaces": ["cone-circle"], "suites": false, '
                    f'"{key}": [0, {"9" * 5000}]}}')
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed config: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _malformed_cone_circle(mutate):
    data = dense_model_dict(builtin_space("cone-circle"))
    mutate(data)
    return data


def _set_first_entry(data, text):
    data["F"]["differentials"][0][0][0] = text


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(F=[1, 2]), "F: a complex must be an object"),
    (lambda d: _set_first_entry(d, "1/0"), "F: not an exact rational: '1/0'"),
    (lambda d: _set_first_entry(d, "1e5000"), "F: rational out of range: '1e5000'"),
    (lambda d: d["restriction"].update(maps="oops"), "restriction: a map must be"),
    (lambda d: d["restriction"].update(maps=[]), "restriction: a map needs 2 matrices"),
    (lambda d: d.update(bigrading="prodcut"),
     'bigrading must be "product" or "none", not \'prodcut\''),
    (lambda d: (d.pop("Y"), d.update(bigrading="prodcut")),
     'bigrading must be "product" or "none", not \'prodcut\''),
    (lambda d: d.update(bigrading=None), 'bigrading must be "product" or "none", not None'),
    (lambda d: d.update(name=["x"]), "name must be a string, not ['x']"),
    (lambda d: d.update(description=5), "description must be a string, not 5"),
], ids=["complex-not-object", "zero-denominator", "entry-huge", "maps-string", "maps-empty",
        "bigrading-misspelt", "bigrading-misspelt-no-y", "bigrading-null",
        "name-not-string", "description-not-string"])
def test_malformed_model_file_exit_code(tmp_path, capsys, mutate, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed_cone_circle(mutate)))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _set_nonzeros(data, key, change):
    # edit the first matrix of a field of a sparse model record: a dict
    # replaces its keys, a function edits its nonzero entries in place
    record = data[key]["maps" if key == "restriction" else "differentials"][0]
    if isinstance(change, dict):
        record.update(change)
    else:
        change(record["nz"])


@pytest.mark.parametrize("key, change, message", [
    ("F", lambda nz: nz.append([2, 0, "1"]), "index outside a 2x2 matrix"),
    ("F", lambda nz: nz.append([0, 2, "1"]), "index outside a 2x2 matrix"),
    ("F", lambda nz: nz[0].__setitem__(0, -1), "index outside a 2x2 matrix"),
    ("F", lambda nz: nz[0].__setitem__(1, True), "indices must be integers"),
    ("F", lambda nz: nz[0].__setitem__(0, 0.0), "indices must be integers"),
    ("F", lambda nz: nz[0].__setitem__(1, "0"), "indices must be integers"),
    ("F", lambda nz: nz.append(nz[0][:2] + ["1"]), "index repeated"),
    ("F", lambda nz: nz[0].__setitem__(2, "0"), "explicit zero"),
    ("F", lambda nz: nz[0].__setitem__(2, "0/5"), "explicit zero"),
    ("F", lambda nz: nz[0].__setitem__(2, "x"), "not an exact rational: 'x'"),
    ("F", lambda nz: nz[0].__setitem__(2, "1/0"), "not an exact rational: '1/0'"),
    ("F", lambda nz: nz[0].__setitem__(2, 0.5), "not an exact rational: 0.5"),
    ("F", lambda nz: nz[0].__setitem__(2, True), "not an exact rational: True"),
    ("F", lambda nz: [e.__setitem__(2, "0") for e in nz], "explicit zero"),
    ("F", {"rows": 3}, "must have rows 2 and cols 2, not 3 and 2"),
    ("F", {"cols": "2"}, "must have rows 2 and cols 2, not 2 and '2'"),
    ("F", lambda nz: nz.append([0, 1]), "a sparse entry must be [row, col, value]"),
    ("F", lambda nz: nz.append("0,1"), "a sparse entry must be [row, col, value]"),
    ("F", {"nz": {"0": "1"}}, "nz must be a list"),
    ("restriction", lambda nz: nz[0].__setitem__(2, "0"), "explicit zero"),
], ids=["row-out-of-range", "col-out-of-range", "negative-index", "bool-index",
        "float-index", "string-index", "duplicate-index", "explicit-zero",
        "explicit-zero-fraction", "value-not-rational", "zero-denominator",
        "value-float", "value-bool", "repeated-zero", "rows-disagree", "cols-not-int",
        "entry-not-triple", "entry-string", "nz-not-list", "restriction-explicit-zero"])
def test_malformed_sparse_matrix_exit_code(tmp_path, capsys, key, change, message):
    data = model_to_dict(builtin_space("cone-circle"))
    _set_nonzeros(data, key, change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["1e999999999", "1e5000", "1/" + "9" * 101])
def test_model_entry_out_of_range_exit_code(tmp_path, capsys, value):
    # refused before Fraction builds 10 ** 999999999 (a ~415 MB integer)
    data = model_to_dict(builtin_space("cone-circle"))
    _set_nonzeros(data, "F", lambda nz: nz[0].__setitem__(2, value))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 2
    assert time.perf_counter() - t0 < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    brief = repr(value) if len(repr(value)) <= 60 else repr(value)[:57] + "..."
    assert captured.err == (f"error: F: rational out of range: {brief} "
                            "(numerator and denominator must be at most 10^100)\n")


def _bare_complex(dims):
    return {"dims": dims, "differentials": [{"rows": 0, "cols": 0, "nz": []}] * (len(dims) - 1)}


@pytest.mark.parametrize("f_dims, b_dims, message", [
    ([10 ** 12], [1], "error: F: a complex of 1000000000000 cells is more than the "
                      "1000000 allowed\n"),
    ([1000], [1001], "error: Y = B ⊗ F of 1001000 cells is more than the "
                     "1000000 allowed\n"),
], ids=["huge-F", "huge-product"])
def test_model_too_many_cells_exit_code(tmp_path, capsys, f_dims, b_dims, message):
    # refused from the declared dimensions, before any row of F, of Y or of
    # the restriction is allocated; each factor of the product passes alone
    import tracemalloc

    data = {"name": "huge", "n": 1, "b": 0, "f": 0,
            "F": _bare_complex(f_dims), "B": _bare_complex(b_dims),
            "M": _bare_complex([1]), "restriction": {"maps": []}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        assert main(["ih", "--file", str(path), "--perversity", "0"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert tracemalloc.get_traced_memory()[1] < 2_000_000
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


_UNKNOWN_SPACE = ("error: unknown space 'nope'; known: cone-circle, cone-torus, "
                  "cone-sphere2, susp-torus, edge-circle-over-circle, "
                  "edge-torus-over-circle\n")


@pytest.mark.parametrize("argv, line", [
    (["ih", "--space", "nope", "--perversity", "0"], _UNKNOWN_SPACE),
    (["complete", "--space", "nope"], _UNKNOWN_SPACE),
    (["verify", "--all", "--space", "nope"], _UNKNOWN_SPACE),
    (["verify", "--suites", "nope"],
     "error: unknown suite 'nope'; known: cochain, stratified, weights, "
     "spectral, fibredec, radial, cli\n"),
], ids=["ih", "complete", "verify-space", "verify-suite"])
def test_unknown_name_error_line(capsys, argv, line):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


@pytest.mark.parametrize("command, rest", [
    ("ih", ["--perversity", "0"]),
    ("weights", ["--a", "0"]),
    ("complete", []),
])
@pytest.mark.parametrize("source, message", [
    ([], "one of the arguments --space --file is required"),
    (["--space", "cone-circle", "--file", "model.json"],
     "argument --file: not allowed with argument --space"),
], ids=["neither", "both"])
def test_space_and_file_are_one_required_choice(capsys, command, rest, source, message):
    # exactly one of --space and --file; argparse refuses anything else
    with pytest.raises(SystemExit) as exc:
        main([command, *source, *rest])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_run_config_unknown_space_error_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spaces": ["nope"], "suites": False}))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _UNKNOWN_SPACE


def _json_paths(node, prefix=()):
    if prefix:
        yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


_CONE_CIRCLE = model_to_dict(builtin_space("cone-circle"))
_DENSE_CONE_CIRCLE = dense_model_dict(builtin_space("cone-circle"))
_JUNK = st.sampled_from([None, True, 1.5, -1, 7, "x", "2", "1/0", "oops",
                         [], {}, [1, 2], [["1"]], {"a": 1}])


def _mutate_and_load(tmp_path_factory, model, path, junk, delete):
    data = json.loads(json.dumps(model))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    file = tmp_path_factory.mktemp("fuzz") / "model.json"
    file.write_text(json.dumps(data))
    return main(["ih", "--file", str(file), "--perversity", "0"])


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(list(_json_paths(_CONE_CIRCLE))), junk=_JUNK,
       delete=st.booleans())
def test_mutated_model_file_never_crashes(tmp_path_factory, path, junk, delete):
    # the sparse record model_to_dict writes, without Y
    assert _mutate_and_load(tmp_path_factory, _CONE_CIRCLE, path, junk, delete) in (0, 2, 3)


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(list(_json_paths(_DENSE_CONE_CIRCLE))), junk=_JUNK,
       delete=st.booleans())
def test_mutated_dense_model_file_never_crashes(tmp_path_factory, path, junk, delete):
    # the older dense record, with Y
    assert _mutate_and_load(tmp_path_factory, _DENSE_CONE_CIRCLE, path, junk,
                            delete) in (0, 2, 3)


def _twisted_y_cone_circle():
    # change Y's basis by negating its degree-0 vector (column 0 of Y.d0)
    # and compose the restriction with that change (negate row 0 of its
    # degree-0 matrix): a consistent model whose Y is not tensor(B, F)
    data = dense_model_dict(builtin_space("cone-circle"))
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


@pytest.mark.parametrize("argv", [["ih", "--perversity", "0"], ["weights", "--a", "0"],
                                  ["complete"]], ids=["ih", "weights", "complete"])
@pytest.mark.parametrize("with_y", [True, False], ids=["dense-with-y", "sparse"])
def test_unbigraded_model_rejected_at_load(tmp_path, capsys, argv, with_y):
    # a model without the product bigrading has no tube to truncate, so
    # every query on it ends at load, whether or not the record carries Y
    space = builtin_space("cone-torus")
    data = dense_model_dict(space) if with_y else model_to_dict(space)
    data["bigrading"] = "none"
    path = tmp_path / "none.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], "--file", str(path), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("model invariant violated: cone-torus: "
                            "missing bigrading; cannot truncate the tube\n")


def test_restriction_not_a_chain_map_rejected_at_load(tmp_path, capsys):
    # zero the degree-0 restriction of cone-circle and keep the identity in
    # degree 1: d ρ_0 = 0 but ρ_1 d = d, which is not zero
    data = dense_model_dict(builtin_space("cone-circle"))
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
    data = dense_model_dict(builtin_space("cone-torus"))
    data["Y"]["differentials"][0][0][0] = "0"
    path = tmp_path / "bad-y.json"
    path.write_text(json.dumps(data))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "model invariant violated: cone-torus: a complex fails d∘d = 0\n"


def test_fibre_failing_d_squared_rejected_before_y_is_built(tmp_path, capsys):
    # drop one nonzero of F's d_0 in a record without Y: d_1 d_0 no longer
    # vanishes, so Y = tensor(B, F) cannot be built and the load says why
    data = model_to_dict(builtin_space("cone-torus"))
    assert "Y" not in data
    data["F"]["differentials"][0]["nz"].pop(0)
    path = tmp_path / "bad-f.json"
    path.write_text(json.dumps(data))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "model invariant violated: cone-torus: a complex fails d∘d = 0\n"


@pytest.mark.parametrize("argv", [["ih", "--perversity", "0"], ["weights", "--a", "0"],
                                  ["complete"]], ids=["ih", "weights", "complete"])
def test_m_with_cells_above_degree_n_rejected_at_load(tmp_path, capsys, argv):
    # cone-circle has n = 2; an M with cells in degree 3 (zero
    # differentials) has a class no table reaches, so the load refuses it
    data = model_to_dict(builtin_space("cone-circle"))
    data["M"]["dims"] = [2, 2, 1, 1]
    data["M"]["differentials"] += [{"rows": 1, "cols": 2, "nz": []},
                                   {"rows": 1, "cols": 1, "nz": []}]
    path = tmp_path / "m-above-n.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], "--file", str(path), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("model invariant violated: cone-circle: "
                            "M has cells above degree n\n")


def test_sparse_restriction_not_a_chain_map_rejected_at_load(tmp_path, capsys):
    # the chain-map check of a record without Y: drop the degree-0
    # restriction of cone-circle and keep the identity in degree 1
    data = model_to_dict(builtin_space("cone-circle"))
    data["restriction"]["maps"][0]["nz"] = []
    path = tmp_path / "not-chain.json"
    path.write_text(json.dumps(data))
    assert main(["ih", "--file", str(path), "--perversity", "0"]) == 3
    assert capsys.readouterr().err == ("model invariant violated: cone-circle: "
                                       "restriction is not a chain map\n")


@pytest.mark.parametrize("argv", [
    ["fibre-spec", "--kind", "circle", "--sizes", "100000000"],
    ["spectral", "--f", "2", "--a", "0", "--fibre-kind", "torus", "--sizes", "100000,100000"],
    ["run", "--config", "{config}"],
], ids=["fibre-spec", "spectral", "run"])
def test_oversized_fibre_grid_refused_before_any_sum(tmp_path, monkeypatch, capsys, argv):
    # refused before any of its 10^8 or more mode sums, or any eigenvalue, is formed
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fibre_grid": [100000000]}))

    def no_eigenvalues(*args):
        raise AssertionError("an eigenvalue was formed")
    monkeypatch.setattr(fibredec, "circle_mode_eigenvalue", no_eigenvalues)
    start = time.perf_counter()
    assert main([arg.format(config=config) for arg in argv]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mode tuples, more than the 1000000 allowed" in err


@pytest.mark.parametrize("argv, message", [
    (["fibre-spec", "--kind", "torus", "--sizes", "ab"], "sizes must be"),
    (["fibre-spec", "--kind", "circle", "--sizes", "2"], "at least 3 segments"),
    (["fibre-spec", "--kind", "torus", "--sizes", "4,4", "--scale", "1,z"],
     "not an exact rational"),
    (["spectral", "--f", "2", "--a", "0", "--spectrum", "/nonexistent.csv"],
     "cannot read spectrum file"),
    (["spectral", "--f", "2", "--a", "0", "--fibre-kind", "circle", "--sizes", "2"],
     "at least 3 segments"),
    (["spectral", "--f", "1", "--a", "0", "--fibre-kind", "circle", "--sizes", "6,7"],
     "circle takes one grid size"),
    (["spectral", "--f", "1", "--a", "0", "--fibre-kind", "circle", "--sizes", "6",
      "--scale", "1,2"], "one length per circle factor"),
    (["cone-lab", "--a", "0", "--mode", "x"], "mode must be k,lambda2"),
    (["cone-lab", "--a", "0", "--mode", "0,-5"], "must be nonnegative"),
    (["cone-lab", "--a", "0", "--mode", "7,0"], "mode degrees must lie in 0..2"),
    (["cone-lab", "--a", "0", "--betti", "1,x"], "betti must be"),
    (["cone-lab", "--a", "0", "--mode", "0,0", "--x0", "0.5"], "x0 must lie"),
    (["cone-lab", "--a", "0", "--mode", "0,0", "--ppd", "0"], "ppd must be"),
    (["spectral", "--f=-1", "--a", "0"], "f must be nonnegative"),
    (["fibre-spec", "--kind", "torus", "--sizes", "4,4", "--count=-1"],
     "count must be"),
    (["spectral", "--f", "2", "--a", "0", "--fibre-kind", "sphere2", "--sizes", "x"],
     "--sizes does not apply to --fibre-kind sphere2"),
    (["spectral", "--f", "2", "--a", "0", "--fibre-kind", "sphere2", "--scale", "1,z"],
     "--scale does not apply to --fibre-kind sphere2"),
    (["spectral", "--f", "2", "--a", "0", "--spectrum", "s.json", "--sizes", "8,8"],
     "--sizes does not apply to --spectrum"),
    (["spectral", "--f", "2", "--a", "0", "--spectrum", "s.json", "--scale", "1"],
     "--scale does not apply to --spectrum"),
    (["weights", "--space", "cone-circle", "--a", "1e5000"], "rational out of range"),
    (["weights", "--space", "cone-circle", "--a", "1e-5000"], "rational out of range"),
    (["ih", "--space", "cone-circle", "--perversity", "1e5000"], "rational out of range"),
    (["cone-lab", "--a", "1e5000"], "rational out of range"),
    (["spectral", "--f", "1", "--a", "1e5000", "--fibre-kind", "circle"],
     "rational out of range"),
    (["spectral", "--f", "1", "--a", "1e101", "--fibre-kind", "circle"],
     "at most 10^100"),
    # refused from its exponent alone, before 10 ** 1000000 is built
    (["weights", "--space", "cone-circle", "--a", "1e1000000"], "rational out of range"),
], ids=["sizes-not-int", "circle-too-small", "scale-not-rational",
        "spectrum-missing", "spectral-circle-too-small", "spectral-circle-two-sizes",
        "spectral-circle-two-scales", "mode-not-pair",
        "mode-negative-lambda2", "mode-degree", "betti-not-int", "x0-range",
        "ppd-zero", "spectral-negative-f", "count-negative", "sphere2-sizes",
        "sphere2-scale", "spectrum-file-sizes", "spectrum-file-scale",
        "weight-huge", "weight-tiny", "perversity-huge", "cone-lab-weight-huge",
        "spectral-weight-huge", "spectral-weight-past-bound", "weight-exponent-huge"])

def test_bad_cli_argument_exit_code(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_zero_with_a_huge_exponent_is_zero(capsys):
    assert main(["weights", "--space", "cone-circle", "--a", "0e5000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["weights"][0]["a"] == "0"


def test_cone_lab_x0_not_a_power_of_ten(capsys):
    assert main(["cone-lab", "--a", "0", "--mode", "0,0", "--x0", "0.05", "--json"]) == 0
    (mode,) = json.loads(capsys.readouterr().out)["modes"]
    assert mode["pass"] is True


def _cli_subprocess(*argv, module="edgehodge.cli"):
    """Run ``python -m edgehodge.cli`` in a fresh interpreter, so
    warnings written to stderr are seen as a user sees them."""
    src = str(Path(edgehodge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_package_runs_as_module():
    proc = _cli_subprocess("list", module="edgehodge")
    assert proc.returncode == 0, proc.stderr
    assert "cone-circle" in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize("mode", ["0,400", "0,100"])
def test_cone_lab_unrecoverable_exponent_is_an_error(mode):
    # at a = -160, gamma- < -321: the dominant solution grows past the
    # float range across the last decade, which must end in one error
    # line, not a printed NaN exponent
    proc = _cli_subprocess("cone-lab", "--a", "-160", "--mode", mode)
    assert proc.returncode == 3
    assert "nan" not in proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ["0,49", "0,100", "0,400"])
def test_cone_lab_large_gap_mode_recovers(mode, capsys):
    # indicial gaps of 14 to 40: gamma+ is fitted stepping up from x0,
    # where it dominates
    assert main(["cone-lab", "--a", "0", "--mode", mode]) == 0
    assert "[pass]" in capsys.readouterr().out


def test_cone_lab_large_finite_trajectory_recovers_without_warnings():
    # x^(-1 - sqrt 2) is ~1e241 at x0 = 1e-100; the jump to each decade
    # is renormalised, so no state comes near the float range
    proc = _cli_subprocess("cone-lab", "--a", "0", "--x0", "1e-100", "--mode", "0,1")
    assert proc.returncode == 0, proc.stderr
    assert "[pass]" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr and proc.stderr == ""


def test_cone_lab_large_fractional_weight_has_zero_slice_constants(capsys):
    # e = 1 - 2k - 200000/3: 2^(-(e + 1)) overflows a float, K underflows to 0
    assert main(["cone-lab", "--a", "100000/3", "--betti", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out.count("slice constant 0.0;") == 2


def test_cone_lab_huge_integer_weight_is_rejected_with_the_bound(capsys):
    # the exact slice constant would have ~2e40 bits; it is refused, not computed
    assert main(["cone-lab", "--a", "1e40", "--betti", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: slice constant")
    assert f"exceeds {radial.SLICE_EXPONENT_BOUND}" in captured.err
    assert captured.err.count("\n") == 1


def test_cone_lab_unrepresentable_propagator_is_a_stiffness_error(capsys):
    # h * delta = ln(10)/2 * sqrt(1e6) ~ 1151: cosh overflows a float
    assert main(["cone-lab", "--a", "0", "--mode", "0,1000000", "--ppd", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: one-step propagator") and err.count("\n") == 1
