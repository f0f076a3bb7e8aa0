"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/test_perfbench.py -q

They take about half a minute, as a few jobs are run.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import program

program.load()

import inputs  # noqa: E402
import jobs  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
from run import WORKLOADS  # noqa: E402
from edgehodge import cochain, stratified  # noqa: E402

HERE = Path(__file__).resolve().parent
ORACLE = oracle.Oracle.load()


def _count(workload, inp, orc=ORACLE):
    out = jobs.JOBS[workload](inp)
    answers, _ = jobs.collect(workload, inp, orc, out)
    checker = jobs.Checker(orc, inp.get("config", {}).get("fibre_grid"))
    return checker.count(answers)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = json.dumps(inputs.make_inputs(workload, 7), sort_keys=True)
    b = json.dumps(inputs.make_inputs(workload, 7), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    a = json.dumps(inputs.make_inputs(workload, 1), sort_keys=True)
    b = json.dumps(inputs.make_inputs(workload, 2), sort_keys=True)
    assert a != b


def test_relabelled_models_give_the_oracle_answers():
    for seed in (1, 2):
        inp = inputs.make_inputs("subdivided-edge", seed)
        answers, firsts = [], []
        keys = [("ih", inp["oracle_space"], p) for p in inp["perversities"]]
        jobs.ask_model(answers, firsts, inp["oracle_space"], inp["model"], keys)
        assert jobs.Checker(ORACLE).count(answers)[:2] == (len(keys), 0)
        assert len(firsts) == 1


def test_catalogue_seeds_share_the_oracle_answers():
    for seed in (1, 2):
        attempted, failed, messages = _count(
            "catalogue-sweep", inputs.make_inputs("catalogue-sweep", seed))
        assert attempted > 0 and failed == 0, messages


def test_catalogue_pass_work_does_not_depend_on_seed():
    def cutoffs(seed):
        inp = inputs.make_inputs("catalogue-sweep", seed)
        return [[sorted(oracle.cutoff(m["f"], p) for p in q["perversities"])
                 for m, q in zip(inp["models"], queries)] for queries in inp["passes"]]

    assert cutoffs(1) == cutoffs(2)


def test_planted_wrong_oracle_entry_is_caught():
    inp = inputs.make_inputs("catalogue-sweep", 3)
    tables = copy.deepcopy(ORACLE.tables)
    tables["cone-torus"]["ih"]["1"][1] += 1
    attempted, failed, _ = _count("catalogue-sweep", inp, oracle.Oracle(tables))
    assert 0 < failed < attempted


def test_report_checks_pass_and_catch_a_wrong_spectrum_verdict():
    inp = inputs.make_inputs("run-report", 1)
    out = jobs.report_job(inp)
    answers, _ = jobs.collect("run-report", inp, ORACLE, out)
    checker = jobs.Checker(ORACLE, inp["config"]["fibre_grid"])
    attempted, failed, messages = checker.count(answers)
    assert attempted > 0 and failed == 0, messages
    flipped = [(k, (not v) if k[0] == "esa" else v) for k, v in answers]
    assert checker.count(flipped)[1] == len(inp["config"]["weights"]) * len(
        inp["config"]["spaces"])


def test_self_times_sum_to_traced_job_time():
    inp = inputs.make_inputs("catalogue-sweep", 1)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        t0 = layertrace.time.perf_counter()
        jobs.catalogue_job(inp)
        job_s = layertrace.time.perf_counter() - t0
    finally:
        tracer.uninstall()
    m = tracer.metrics(job_s)
    layers = sum(m[f"{mod}.self_s"] for mod in layertrace.MODULES)
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s") and k != "unattributed.self_s")
    # everything but the benchmark's own loop is inside some wrapped function
    assert abs(layers + tracer.count_s + m["unattributed.self_s"] - job_s) < 1e-6
    assert -0.01 * job_s <= m["unattributed.self_s"] <= 0.05 * job_s
    assert m["stratified.total_complex.built"] <= m["stratified.total_complex.calls"]
    assert m["fibredec.spectrum_for_predicates.calls"] == 0


def test_wrappers_follow_names_imported_elsewhere_and_are_removed():
    original = cochain.tensor
    assert stratified.tensor is original
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cochain.tensor is not original
        assert stratified.tensor is cochain.tensor
    finally:
        tracer.uninstall()
    assert cochain.tensor is original and stratified.tensor is original


def test_vanished_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(layertrace.NAMED, "elim.bareiss", ("elim:no_such_function",))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        stratified.ih_dims(stratified.builtin_space("cone-circle"), 0)
    finally:
        tracer.uninstall()
    m = tracer.metrics(1.0)
    assert tracer.absent == ["elim.bareiss"]
    assert "elim.bareiss.calls" not in m and m["elim.rank.calls"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalogue-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
