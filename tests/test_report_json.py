"""``report.report_to_json`` writes the bytes of ``json.dumps(indent=2)``."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgehodge.cli import main
from edgehodge.report import report_to_json
from edgehodge.spectral import FibreSpectrum

TRICKY_STRINGS = ["", "\x00", "\x1f\x7f", "tab\there\nnewline", '"quoted" \\ /',
                  "é ü ß", "  ", "😀 \U0010ffff", "\ud800"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-10 ** 60, max_value=10 ** 60)
    | st.sampled_from([0, 1, -1, 2 ** 63, -2 ** 64, 10 ** 100])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324])
    | st.text()
    | st.sampled_from(TRICKY_STRINGS)
)

keys = st.text() | st.sampled_from(TRICKY_STRINGS)

json_values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(value):
    assert report_to_json(value) == json.dumps(value, indent=2) + "\n"


def test_writer_lays_out_nested_empty_containers():
    value = {"a": [], "b": {}, "c": [[], {}, ()], "d": [True, 1, False, 0, None]}
    assert report_to_json(value) == json.dumps(value, indent=2) + "\n"
    assert report_to_json([]) == "[]\n" and report_to_json({}) == "{}\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, {1: "int key"},
                                   {"nested": [Fraction(1)]}],
                         ids=["fraction", "set", "int-key", "nested-fraction"])
def test_writer_refuses_what_is_not_json(value):
    with pytest.raises(TypeError):
        report_to_json(value)


def _commands(tmp_path):
    spectrum = tmp_path / "float_spectrum.json"
    # lambda^2 = 0.25 lands on the window boundary of f = 1, a = 1/2
    spectrum.write_text(json.dumps(FibreSpectrum(
        [[(0, 1), (0.25, 2)], [(0.25, 1), (1.0, 1)]], "numeric").to_dict()))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"spaces": ["cone-circle", "cone-torus"],
                                  "weights": ["0", "1/2"], "fibre_grid": [6, 6],
                                  "suites": ["cochain"]}))
    return {
        "list": ["list"],
        "ih": ["ih", "--space", "edge-torus-over-circle", "--perversity", "mbar"],
        "weights": ["weights", "--space", "cone-torus", "--a", "0", "--a=-3/4"],
        "complete": ["complete", "--space", "susp-torus"],
        "spectral": ["spectral", "--f", "2", "--a", "0", "--sizes", "6,6"],
        "spectral-exact-contact": ["spectral", "--f", "2", "--a", "1/2",
                                   "--fibre-kind", "sphere2"],
        "spectral-float-contact": ["spectral", "--f", "1", "--a", "1/2",
                                   "--spectrum", str(spectrum)],
        "fibre-spec": ["fibre-spec", "--kind", "torus", "--sizes", "4,5", "--count", "3"],
        "cone-lab": ["cone-lab", "--a", "0", "--mode", "0,1", "--mode", "1,2"],
        "verify": ["verify", "--all"],
        "run": ["run", "--config", str(config)],
    }


@pytest.mark.parametrize("name", ["list", "ih", "weights", "complete", "spectral",
                                  "spectral-exact-contact", "spectral-float-contact",
                                  "fibre-spec", "cone-lab", "verify", "run"])
def test_cli_json_equals_json_dumps(tmp_path, capsys, name):
    assert main(_commands(tmp_path)[name] + ["--json"]) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("name, contact", [
    ("spectral-exact-contact", {"degree": 0, "lambda2": "0", "provenance": "exact"}),
    ("spectral-float-contact", {"degree": 0, "lambda2": "0.25",
                                "provenance": "numeric(1ulp)"}),
])
def test_boundary_contacts_carry_provenance(tmp_path, capsys, name, contact):
    assert main(_commands(tmp_path)[name] + ["--json"]) == 0
    assert contact in json.loads(capsys.readouterr().out)["boundary_contacts"]
