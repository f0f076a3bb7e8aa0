"""Config-driven runs and report assembly.

A run configuration names spaces (built-in names or model files),
weights, the degree range, the fibre grid and which verification
suites to execute.  ``run`` produces a deterministic report structure;
``render_report`` lays it out as aligned text tables and the same
structure serializes to JSON for machine consumption
(``report_to_json``, whose bytes equal ``json.dumps(indent=2)``).
Every numeric entry carries its provenance: engine dimensions,
predicates and the radial mode exponents (closed-form roots, checked
exactly) are exact; critical roots and window boundary contacts at a
float eigenvalue of a discretized link are numeric(1ulp).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from edgehodge import fibredec, radial, spectral, weights
from edgehodge.cochain import RATIONAL_DIGITS, parse_rational
from edgehodge.errors import ConfigError, ModelInvariantError
from edgehodge.stratified import (
    BUILTIN_NAMES,
    EdgeSpaceModel,
    builtin_space,
    middle_perversities,
    model_from_dict,
)


def _parse_fraction(raw) -> Fraction:
    """A rational from a command line or a config, bounded as model-file
    entries are (``cochain.parse_rational``)."""
    try:
        return Fraction(parse_rational(str(raw)))
    except OverflowError:
        raise ConfigError(f"rational out of range: {raw!r} (numerator and "
                          f"denominator must be at most 10^{RATIONAL_DIGITS})") from None
    except ValueError as exc:
        raise ConfigError(f"not an exact rational: {raw!r}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_space_entry(entry) -> bool:
    return isinstance(entry, str) or (
        isinstance(entry, dict) and isinstance(entry.get("file"), str))


CONFIG_KEYS = ("spaces", "weights", "degrees", "fibre_grid", "suites")


class RunConfig:
    """Validated run configuration."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a key/value object")
        for key in data:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} (known keys: "
                                  f"{', '.join(CONFIG_KEYS)})")
        self.spaces = data.get("spaces", list(BUILTIN_NAMES))
        if not isinstance(self.spaces, list):
            raise ConfigError("spaces must be a list of names or {\"file\": path} objects")
        if not self.spaces:
            raise ConfigError("no spaces configured")
        for entry in self.spaces:
            if not _is_space_entry(entry):
                raise ConfigError(f"bad space entry: {entry!r}")
        weights = data.get("weights", ["0"])
        if not isinstance(weights, list):
            raise ConfigError("weights must be a list of exact rationals")
        self.weights = [_parse_fraction(w) for w in weights]
        if not self.weights:
            raise ConfigError("weight list must be nonempty")
        self.degrees = data.get("degrees")  # None = 0..n per space
        if self.degrees is not None and not (
                isinstance(self.degrees, list) and len(self.degrees) == 2
                and all(_is_int(k) for k in self.degrees)
                and 0 <= self.degrees[0] <= self.degrees[1]):
            raise ConfigError("degrees must be [lo, hi], integers with 0 <= lo <= hi")
        grid = data.get("fibre_grid", [16, 16])
        if not (isinstance(grid, list) and len(grid) in (1, 2)
                and all(_is_int(g) for g in grid)):
            raise ConfigError("fibre grid must be a list of one or two integers")
        self.fibre_grid = tuple(grid)
        if any(g < 3 for g in self.fibre_grid):
            raise ConfigError("fibre grid sizes must be >= 3")
        suites = data.get("suites", True)
        # a run without suites never imports verify (or what verify imports)
        if suites is True:
            from edgehodge.verify import SUITES
            self.suites = list(SUITES)
        elif suites in (False, None):
            self.suites = []
        elif isinstance(suites, dict):
            self.suites = [k for k, v in suites.items() if v]
        elif isinstance(suites, list) and all(isinstance(x, str) for x in suites):
            self.suites = list(suites)
        else:
            raise ConfigError("suites must be true, false, a list of suite names "
                              "or an object")
        if self.suites:
            from edgehodge.verify import SUITES
            for s in self.suites:
                if s not in SUITES:
                    raise ConfigError(f"unknown verification suite {s!r}")
        self.data = data

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # bad JSON, or an integer past str()'s digit limit
            raise ConfigError(f"malformed config: {exc}") from exc
        return RunConfig(data)


def load_space(entry) -> EdgeSpaceModel:
    """Resolve a space entry: builtin name or {"file": path}."""
    if isinstance(entry, dict) and isinstance(entry.get("file"), str):
        try:
            with open(entry["file"]) as fh:
                return model_from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read model file: {exc}") from exc
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed model file: {exc}") from exc
    if isinstance(entry, str):
        try:
            return builtin_space(entry)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
    raise ConfigError(f"bad space entry: {entry!r}")


def link_spectrum(link_betti, grid) -> spectral.FibreSpectrum:
    """Fibre spectrum for a link with the given Betti numbers.

    Circle and torus links are discretized on the configured grid;
    the round 2-sphere link uses its closed-form spectrum (curved
    fibres are never meshed).
    """
    fb = tuple(link_betti)
    if fb == (1, 0, 1):
        return spectral.sphere2_spectrum()
    if fb == (1, 1):
        kind, sizes = "circle", grid[0]
    elif fb == (1, 2, 1):
        kind, sizes = "torus", (grid[0], grid[-1])
    else:
        raise ModelInvariantError(
            f"no spectrum source for link with Betti numbers {fb}"
        )
    try:
        fib = fibredec.build_fibre(kind, sizes)
    except ValueError as exc:
        raise ConfigError(f"bad fibre grid: {exc}") from exc
    return fibredec.spectrum_for_predicates(fib)


def _prov_exact(value):
    return {"value": value, "provenance": "exact"}


def weight_dims_fields(space: EdgeSpaceModel, a: Fraction) -> dict:
    """JSON fields of one weight: the max and min weighted de Rham
    extensions (perversity and dims) and the minimal Hodge dims."""
    rmax, rmin, rmh = weights._weight_reports(space, a)
    return {
        "a": str(a),
        "max": {
            "perversity": str(rmax.perversity),
            "dims": _prov_exact(list(rmax.dims)),
        },
        "min": {
            "perversity": str(rmin.perversity),
            "dims": _prov_exact(list(rmin.dims)),
        },
        "minimal_hodge": {"dims": _prov_exact(list(rmh.dims))},
    }


def complete_l2_fields(space: EdgeSpaceModel, k: int) -> dict:
    """JSON fields of the degree-k complete-metric verdict
    (``weights.complete_l2``)."""
    ans = weights.complete_l2(space, k)
    return {
        "k": k,
        "verdict": ans.verdict,
        "perversity": str(ans.perversity) if ans.perversity is not None else None,
        "provenance": "exact",
    }


def root_fields(critical, contacts) -> dict:
    """JSON fields of one window scan (``spectral.window_roots``): the
    critical root pairs and the window boundary contacts, each exact at a
    rational lambda^2 and numeric(1ulp) at a float one."""
    return {
        "critical_roots": [
            {
                "degree": p.degree,
                "lambda2": str(p.lam2),
                "gamma_minus": str(p.gamma_minus),
                "gamma_plus": str(p.gamma_plus),
                "double_root": p.double_root,
                "provenance": "exact" if p.exact else "numeric(1ulp)",
            }
            for p in critical
        ],
        "boundary_contacts": [
            {"degree": q, "lambda2": str(v),
             "provenance": "exact" if isinstance(v, Fraction) else "numeric(1ulp)"}
            for q, v in contacts
        ],
    }


def _link_window(fb: tuple, a: Fraction, spec_obj) -> tuple:
    """The parts of a weight cell that depend only on the link (its Betti
    numbers, hence f) and a: one window scan and the unique-closed-
    extension test."""
    f = len(fb) - 1
    critical, contacts = spectral.window_roots(f, a, spec_obj)
    return critical, contacts, spectral.unique_closed_extension_d(f, a, fb)


def _weight_cell(space: EdgeSpaceModel, a: Fraction, window: tuple) -> dict:
    critical, contacts, uce = window
    return {
        **weight_dims_fields(space, a),
        "unique_closed_extension": _prov_exact(uce),
        "essentially_selfadjoint": _prov_exact(not critical),
        **root_fields(critical, contacts),
    }


def _radial_values(fb: tuple, a: Fraction) -> tuple:
    """The radial lab's answers for a link with Betti numbers fb at
    weight a: local cohomology, pullback thresholds and the exactly
    checked zero-mode roots in degrees 0 and 1, as (degree, exponent
    strings, pass) with pass None at a double root."""
    f = len(fb) - 1
    # degrees 0 and 1, as far as f goes
    modes = [(k, *radial.mode_exponent(k, 0, f, a)) for k in range(min(f, 1) + 1)]
    return (radial.local_cohomology(fb, f, a),
            [radial.pullback_norm(k, f, a) for k in range(f + 1)], modes)


def _radial_section(values: tuple) -> dict:
    """Radial lab entries of one space, built fresh from ``_radial_values``."""
    table, pullbacks, modes = values
    return {
        "local_cohomology": {
            "max": _prov_exact(list(table.max_dims)),
            "min": _prov_exact(list(table.min_dims)),
        },
        "pullback_thresholds": [
            {
                "degree": k,
                "finite": pb.finite,
                "weight_integral": str(pb.value) if pb.finite else None,
            }
            for k, pb in enumerate(pullbacks)
        ],
        "mode_exponents": [
            {"degree": k, "lambda2": "0", "double_root": True} if ok is None else
            {"degree": k, "lambda2": "0", "exponents": _prov_exact(list(exponents)),
             "pass": ok}
            for k, exponents, ok in modes
        ],
    }


def run(config: RunConfig) -> dict:
    """Execute a configured run; deterministic output ordering.

    What depends only on a space's link is computed once per run: the
    link spectrum (keyed by the link's Betti numbers, the grid being
    fixed per config), and, keyed by (Betti numbers, a), each weight's
    window scan and closed-extension test and the radial section's
    values.  Every report entry gets dicts of its own, and nothing is
    kept between runs.
    """
    spaces = [load_space(e) for e in config.spaces]
    report: dict = {"config": config.data, "spaces": [], "suites": []}
    spectra: dict = {}
    windows: dict = {}  # (link Betti numbers, a) -> _link_window
    radials: dict = {}  # (link Betti numbers, a) -> _radial_values
    a0 = config.weights[0]

    for space in spaces:
        fb = space.F.cohomology_dims()
        if fb not in spectra:
            spectra[fb] = link_spectrum(fb, config.fibre_grid)
        if (fb, a0) not in radials:
            radials[fb, a0] = _radial_values(fb, a0)
        cells = []
        for a in config.weights:
            if (fb, a) not in windows:
                windows[fb, a] = _link_window(fb, a, spectra[fb])
            cells.append(_weight_cell(space, a, windows[fb, a]))
        lo, hi = (config.degrees or (0, space.n))
        report["spaces"].append({
            "name": space.name,
            "n": space.n,
            "b": space.b,
            "f": space.f,
            "middle_perversities": list(middle_perversities(space.f)),
            "weights": cells,
            "complete_l2": [complete_l2_fields(space, k)
                            for k in range(lo, min(hi, space.n) + 1)],
            "radial": _radial_section(radials[fb, a0]),
        })

    if config.suites:
        from edgehodge.verify import run_suites

        names = [s for s in config.spaces if isinstance(s, str)]
        results = run_suites(config.suites, names or None)
        report["suites"] = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
    report["ok"] = all(s["passed"] for s in report["suites"])
    return report


_INF = float("inf")


def _float_json(x: float) -> str:
    """A float as json writes it: its repr, or NaN and +-Infinity."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _write_json(value, pad: str, out: list) -> None:
    """Append the ``indent=2`` JSON text of value, nested at pad, to out."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_json(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_to_json(report: dict) -> str:
    """The JSON text of a report or payload and a final newline.  Its
    bytes equal ``json.dumps(report, indent=2)``'s and the newline; a key
    that is not a str, or a value json cannot write, raises TypeError."""
    out: list = []
    _write_json(report, "", out)
    out.append("\n")
    return "".join(out)


def _fmt_table(headers, rows) -> str:
    cols = [len(h) for h in headers]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        for i, c in enumerate(row):
            cols[i] = max(cols[i], len(c))
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, cols)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in cols])]
    lines.extend(fmt(r) for r in srows)
    return "\n".join(lines)


def render_report(report: dict) -> str:
    out = []
    for entry in report["spaces"]:
        out.append(f"space {entry['name']}  (n={entry['n']}, b={entry['b']}, f={entry['f']})")
        rows = []
        for cell in entry["weights"]:
            rows.append([
                cell["a"],
                cell["max"]["perversity"],
                " ".join(map(str, cell["max"]["dims"]["value"])),
                cell["min"]["perversity"],
                " ".join(map(str, cell["min"]["dims"]["value"])),
                " ".join(map(str, cell["minimal_hodge"]["dims"]["value"])),
                "yes" if cell["unique_closed_extension"]["value"] else "no",
                "yes" if cell["essentially_selfadjoint"]["value"] else "no",
            ])
        out.append(_fmt_table(
            ["a", "p(max)", "max dims", "p(min)", "min dims",
             "minimal-hodge", "uce", "ess-sa"], rows))
        rows = [[c["k"], c["verdict"], c["perversity"] or "-"]
                for c in entry["complete_l2"]]
        out.append("complete metric:")
        out.append(_fmt_table(["k", "L2-cohomology", "perversity"], rows))
        out.append("")
    if report["suites"]:
        rows = [[s["suite"], s["name"], "pass" if s["passed"] else "FAIL", s["detail"]]
                for s in report["suites"]]
        out.append(_fmt_table(["suite", "check", "status", "detail"], rows))
        out.append("")
    out.append("overall: " + ("ok" if report.get("ok") else "FAILURES"))
    return "\n".join(out) + "\n"
