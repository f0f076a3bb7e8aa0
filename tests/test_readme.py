"""The README's command-line examples and its run configuration run as
written, so the documentation cannot drift from the program."""

import json
import re
import shlex
import time
from pathlib import Path

from edgehodge.cli import main
from edgehodge.stratified import builtin_space, model_to_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _first_block_after(marker: str, lang: str = "") -> str:
    """The first fenced block of the given language after ``marker``."""
    section = README.split(marker, 1)[1]
    return re.search(r"^```" + lang + r"\n(.*?)^```", section, re.M | re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    commands = [shlex.split(line)
                for line in _first_block_after("## Command line").splitlines()
                if line.strip()]
    assert len(commands) >= 9 and all(argv[0] == "edgehodge" for argv in commands)
    config = _first_block_after("A run configuration is a JSON object", "json")
    assert {"file": "mymodel.json"} in json.loads(config)["spaces"]
    (tmp_path / "run.json").write_text(config)
    (tmp_path / "mymodel.json").write_text(
        json.dumps(model_to_dict(builtin_space("edge-circle-over-circle"))))
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
    assert time.perf_counter() - start < 2.0
