"""The fixed job of each workload, and the check of its answers.

A job is one closed-loop unit of work: the next job starts only when the
previous one has returned.  Every answer is recorded under a query key,
``(kind, space, argument)``, and compared with the oracle afterwards,
outside the timed region.  A query that raises is recorded with its
exception and counts as failed; the job carries on with the next one.

The program is called through module attributes (``stratified.ih_dims``,
not a name imported from it) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from edgehodge import report, stratified, weights

import oracle as oracle_mod

MODEL_KINDS_SUBDIVIDED = ("mh",)
MODEL_KINDS_CATALOGUE = ("max", "min", "mh")
REPORT_CELL_KINDS = ("max", "min", "mh", "esa", "crit")
# the configured spaces are small, so their first answers are timed this
# many times per job to give the run enough samples
FIRST_ANSWER_ROUNDS = 4


def _weighted(ext):
    def answer(model, a):
        r = weights.weighted_derham_dims(model, Fraction(a), ext)
        return str(r.perversity.value), tuple(r.dims)
    return answer


MODEL_ANSWERS = {
    "ih": lambda model, p: tuple(stratified.ih_dims(model, Fraction(p))),
    "max": _weighted("max"),
    "min": _weighted("min"),
    "mh": lambda model, a: tuple(weights.minimal_hodge_dims(model, Fraction(a)).dims),
    "l2": lambda model, k: weights.complete_l2(model, k).verdict,
}


def model_keys(name: str, n: int, perversities, weight_list, kinds) -> list[tuple]:
    keys = [("ih", name, p) for p in perversities]
    keys += [(kind, name, a) for a in weight_list for kind in kinds]
    keys += [("l2", name, k) for k in range(n + 1)]
    return keys


def ask_model(answers: list, firsts: list, name: str, model_dict: dict, keys) -> None:
    """Load one model from its dict and answer ``keys`` on it; the time to
    the first answer (load, validate, first IH table) goes to ``firsts``
    as ``(name, seconds)``."""
    t0 = time.perf_counter()
    try:
        model = stratified.model_from_dict(model_dict)
    except Exception as exc:  # a failed load fails every query on the model
        answers.extend((key, exc) for key in keys)
        return
    for i, key in enumerate(keys):
        try:
            value = MODEL_ANSWERS[key[0]](model, key[2])
        except Exception as exc:
            value = exc
        if i == 0:
            firsts.append((name, time.perf_counter() - t0))
        answers.append((key, value))


# -- the three jobs ---------------------------------------------------------
# Each is timed as a whole; ``n`` counts the jobs run before it.


def subdivided_job(inp: dict, n: int = 0):
    answers, firsts = [], []
    model = inp["model"]
    keys = model_keys(inp["oracle_space"], model["n"], inp["perversities"],
                      inp["weights"], MODEL_KINDS_SUBDIVIDED)
    ask_model(answers, firsts, inp["oracle_space"], model, keys)
    return answers, firsts


def catalogue_job(inp: dict, n: int = 0):
    """One pass over the six spaces; job n asks the queries of pass n
    modulo the number of seeded passes (all passes do the same work)."""
    answers, firsts = [], []
    queries = inp["passes"][n % len(inp["passes"])]
    for model, q in zip(inp["models"], queries):
        keys = model_keys(model["name"], model["n"], q["perversities"],
                          q["weights"], MODEL_KINDS_CATALOGUE)
        ask_model(answers, firsts, model["name"], model, keys)
    return answers, firsts


def report_job(inp: dict, n: int = 0):
    """report.run on the config, then both renderings; the answers are
    read off the report after the job, by ``report_answers``."""
    try:
        rep = report.run(report.RunConfig(inp["config"]))
        return rep, report.report_to_json(rep), report.render_report(rep)
    except Exception as exc:
        return exc


JOBS = {
    "subdivided-edge": subdivided_job,
    "catalogue-sweep": catalogue_job,
    "run-report": report_job,
}


def collect(workload: str, inp: dict, orc: oracle_mod.Oracle, out):
    """(answers, first-answer latencies) of one job, given its output.
    For run-report this reads the report and then times the configured
    spaces' first answers, both outside the job's own timing."""
    if workload != "run-report":
        return out
    answers, firsts = report_first_answers(inp)
    return report_answers(inp, orc, out) + answers, firsts


def report_first_answers(inp: dict):
    """First-answer latency of each configured space: load its model dict
    and return its IH table at the middle perversity mbar, as
    ``edgehodge ih --perversity mbar`` does.  The perversity does not
    depend on the seeded weights, so neither does the work."""
    answers, firsts = [], []
    for _ in range(FIRST_ANSWER_ROUNDS):
        for model in inp["models"]:
            mbar = str(oracle_mod.middle(model["f"])[1])
            ask_model(answers, firsts, model["name"], model, [("ih", model["name"], mbar)])
    return answers, firsts


def report_keys(inp: dict, orc: oracle_mod.Oracle) -> list[tuple]:
    cfg = inp["config"]
    keys = []
    for name in cfg["spaces"]:
        t = orc.tables[name]
        keys += [(kind, name, a) for a in cfg["weights"] for kind in REPORT_CELL_KINDS]
        keys += [("l2", name, k) for k in range(t["n"] + 1)]
        keys += [("radial", name, k) for k in (0, 1) if k <= t["f"]]
    return keys + [("json", "report", None), ("render", "report", None)]


def _report_value(out, key):
    rep, as_json, text = out
    kind, name, arg = key
    if kind == "json":
        return json.loads(as_json) == rep
    if kind == "render":
        return text.endswith("overall: ok\n") and all(
            f"space {s['name']}" in text for s in rep["spaces"])
    entry = next(s for s in rep["spaces"] if s["name"] == name)
    if kind == "l2":
        return entry["complete_l2"][arg]["verdict"]
    if kind == "radial":
        mode = next(m for m in entry["radial"]["mode_exponents"] if m["degree"] == arg)
        return bool(mode.get("double_root") or mode.get("pass"))
    cell = next(c for c in entry["weights"] if Fraction(c["a"]) == Fraction(arg))
    if kind in ("max", "min"):
        return cell[kind]["perversity"], tuple(cell[kind]["dims"]["value"])
    if kind == "mh":
        return tuple(cell["minimal_hodge"]["dims"]["value"])
    if kind == "esa":
        return cell["essentially_selfadjoint"]["value"]
    return [(r["degree"], r["lambda2"], r["gamma_minus"], r["gamma_plus"])
            for r in cell["critical_roots"]]


def report_answers(inp: dict, orc: oracle_mod.Oracle, out) -> list:
    answers = []
    for key in report_keys(inp, orc):
        if isinstance(out, Exception):
            answers.append((key, out))
            continue
        try:
            answers.append((key, _report_value(out, key)))
        except (KeyError, IndexError, StopIteration, TypeError, ValueError) as exc:
            answers.append((key, exc))
    return answers


# -- checking ---------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _same_number(text: str, want) -> bool:
    if isinstance(want, Fraction):
        return Fraction(text) == want
    return _close(float(text), want)


class Checker:
    """Compares answers with the oracle.  Closed-form spectra of the
    report's fibres are computed once, on first use."""

    def __init__(self, orc: oracle_mod.Oracle, fibre_grid=None):
        self.oracle = orc
        self.fibre_grid = tuple(fibre_grid) if fibre_grid else None
        self._spectra: dict = {}

    def _spectrum(self, betti):
        if tuple(betti) == (1, 1):
            sizes = self.fibre_grid[:1]
        elif tuple(betti) == (1, 2, 1):
            sizes = self.fibre_grid[:1] + self.fibre_grid[-1:]
        else:
            raise ValueError(f"no closed-form spectrum for fibre Betti numbers {betti}")
        if sizes not in self._spectra:
            self._spectra[sizes] = oracle_mod.product_spectrum(sizes)
        return self._spectra[sizes]

    def _critical(self, name: str, a):
        t = self.oracle.tables[name]
        betti = t["fibre_betti"]
        modes = oracle_mod.critical_modes(t["f"], a, self._spectrum(betti), betti)
        return [(q, lam2) + oracle_mod.root_pair(t["f"], a, q, lam2) for q, lam2 in modes]

    def ok(self, key, value) -> bool:
        kind, name, arg = key
        orc = self.oracle
        if kind == "ih":
            return value == orc.ih(name, arg)
        if kind in ("max", "min"):
            return value == orc.weighted(name, arg, kind)
        if kind == "mh":
            return value == orc.minimal_hodge(name, arg)
        if kind == "l2":
            return value == orc.complete_l2(name)[arg]
        if kind in ("radial", "json", "render"):
            return value is True
        if kind == "esa":
            return value == (not self._critical(name, arg))
        if kind == "crit":
            want = self._critical(name, arg)
            return len(value) == len(want) and all(
                q == wq and all(_same_number(s, w) for s, w in zip(rest, wrest))
                for (q, *rest), (wq, *wrest) in zip(value, want))
        raise ValueError(f"unknown query kind {kind!r}")

    def count(self, answers) -> tuple[int, int, list[str]]:
        """(attempted, failed, a few failure messages)."""
        failed, messages = 0, []
        for key, value in answers:
            if isinstance(value, Exception):
                good, why = False, f"raised {type(value).__name__}: {value}"
            else:
                try:
                    good, why = self.ok(key, value), f"got {value!r}"
                except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                    good, why = False, f"unreadable answer {value!r}: {exc}"
            if not good:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"{key}: {why}")
        return len(answers), failed, messages
