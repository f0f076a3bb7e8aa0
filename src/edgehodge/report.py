"""Config-driven runs and report assembly.

A run configuration names spaces (built-in names or model files),
weights, the fibre grid, radial parameters, and which verification
suites to execute.  ``run`` produces a deterministic report structure;
``render_report`` lays it out as aligned text tables and the same
structure serializes to JSON for machine consumption.  Every numeric
entry carries its provenance: engine dimensions and predicates are
exact, eigenvalues and recovered exponents are numeric with their
tolerance.
"""

from __future__ import annotations

import json
from fractions import Fraction

from edgehodge import fibredec, radial, spectral, verify, weights
from edgehodge.errors import ConfigError, ModelInvariantError
from edgehodge.stratified import (
    BUILTIN_NAMES,
    EdgeSpaceModel,
    builtin_space,
    middle_perversities,
    model_from_dict,
)


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not an exact rational: {text!r}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_space_entry(entry) -> bool:
    return isinstance(entry, str) or (
        isinstance(entry, dict) and isinstance(entry.get("file"), str))


class RunConfig:
    """Validated run configuration."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a key/value object")
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
        rad = data.get("radial", {})
        if not isinstance(rad, dict):
            raise ConfigError("radial must be a key/value object")
        x0 = rad.get("x0", radial.DEFAULT_X0)
        try:
            self.x0 = float(x0)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"radial x0 is not a number: {x0!r}") from exc
        if not (0 < self.x0 <= 0.1):
            raise ConfigError("radial x0 must lie in (0, 1/10]")
        self.points_per_decade = rad.get("points_per_decade", radial.POINTS_PER_DECADE)
        # the slope fit needs two grid points in the last decade
        if not (_is_int(self.points_per_decade) and self.points_per_decade >= 2):
            raise ConfigError("radial points_per_decade must be an integer >= 2")
        suites = data.get("suites", True)
        if suites is True:
            self.suites = list(verify.SUITES)
        elif suites in (False, None):
            self.suites = []
        elif isinstance(suites, dict):
            self.suites = [k for k, v in suites.items() if v]
        elif isinstance(suites, list) and all(isinstance(x, str) for x in suites):
            self.suites = list(suites)
        else:
            raise ConfigError("suites must be true, false, a list of suite names "
                              "or an object")
        for s in self.suites:
            if s not in verify.SUITES:
                raise ConfigError(f"unknown verification suite {s!r}")
        self.data = data

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                return RunConfig(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc


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
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"bad space entry: {entry!r}")


def link_spectrum(link_betti, grid) -> spectral.FibreSpectrum:
    """Fibre spectrum for a link with the given Betti numbers.

    Circle and torus links are discretized on the configured grid;
    the round 2-sphere link uses its closed-form spectrum (curved
    fibres are never meshed).
    """
    fb = tuple(link_betti)
    if fb == (1, 1):
        fib = fibredec.build_fibre("circle", grid[0])
        return fibredec.spectrum_for_predicates(fib)
    if fb == (1, 2, 1):
        fib = fibredec.build_fibre("torus", (grid[0], grid[-1]))
        return fibredec.spectrum_for_predicates(fib)
    if fb == (1, 0, 1):
        return spectral.sphere2_spectrum()
    raise ModelInvariantError(
        f"no spectrum source for link with Betti numbers {fb}"
    )


def _prov_exact(value):
    return {"value": value, "provenance": "exact"}


def _prov_numeric(value, tol: str):
    return {"value": value, "provenance": f"numeric({tol})"}


def weight_dims_fields(space: EdgeSpaceModel, a: Fraction) -> dict:
    """JSON fields of one weight: the max and min weighted de Rham
    extensions (perversity and dims) and the minimal Hodge dims."""
    rmax = weights.weighted_derham_dims(space, a, "max")
    rmin = weights.weighted_derham_dims(space, a, "min")
    rmh = weights.minimal_hodge_dims(space, a)
    return {
        "a": str(a),
        "max": {
            "perversity": str(rmax.perversity.value),
            "dims": _prov_exact(list(rmax.dims)),
        },
        "min": {
            "perversity": str(rmin.perversity.value),
            "dims": _prov_exact(list(rmin.dims)),
        },
        "minimal_hodge": {"dims": _prov_exact(list(rmh.dims))},
    }


def root_fields(f: int, a: Fraction, spec_obj) -> dict:
    """JSON fields of the indicial roots at weight a: the critical root
    pairs and the window boundary contacts."""
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
            for p in spectral.critical_roots(f, a, spec_obj)
        ],
        "boundary_contacts": [
            {"degree": q, "lambda2": str(v)}
            for q, v in spectral.boundary_contacts(f, a, spec_obj)
        ],
    }


def _weight_cell(space: EdgeSpaceModel, a: Fraction, spec_obj) -> dict:
    return {
        **weight_dims_fields(space, a),
        "unique_closed_extension": _prov_exact(
            spectral.unique_closed_extension_d(space.f, a, space.F.cohomology_dims())
        ),
        "essentially_selfadjoint": _prov_exact(
            spectral.essentially_selfadjoint(space.f, a, spec_obj)
        ),
        **root_fields(space.f, a, spec_obj),
    }


def _radial_section(space: EdgeSpaceModel, a: Fraction, config: RunConfig,
                    exponents: dict) -> dict:
    """Radial lab entries of one space.  ``exponents`` holds the
    recovered exponents (or the recovery error) per (k, f, a), so a run
    solves each distinct mode once."""
    fb = space.F.cohomology_dims()
    table = radial.local_cohomology(fb, space.f, a)
    modes = []
    for k in (0, 1):
        if k > space.f:
            continue
        pair = spectral.indicial_roots(space.f, a, k, 0)
        if pair.double_root:
            modes.append({"degree": k, "lambda2": "0", "double_root": True})
            continue
        key = (k, space.f, a)
        if key not in exponents:
            try:
                exponents[key] = radial.mode_exponent(
                    k, 0, space.f, a, x0=config.x0,
                    points_per_decade=config.points_per_decade)
            except Exception as exc:  # stiffness: report, do not fail the run
                exponents[key] = exc
        me = exponents[key]
        if isinstance(me, Exception):
            modes.append({"degree": k, "lambda2": "0", "error": str(me)})
            continue
        err, ok = radial.recovery_error(me, pair)
        modes.append({
            "degree": k,
            "lambda2": "0",
            "exponents": _prov_numeric(
                [me.gamma_minus_hat, me.gamma_plus_hat], "tol=1e-3"),
            "closed_form": [str(pair.gamma_minus), str(pair.gamma_plus)],
            "max_error": repr(err),
            "pass": ok,
        })
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
            for k, pb in ((k, radial.pullback_norm(k, space.f, a))
                          for k in range(space.f + 1))
        ],
        "mode_exponents": modes,
    }


def run(config: RunConfig) -> dict:
    """Execute a configured run; deterministic output ordering.

    Link spectra (keyed by the link's Betti numbers, the grid being
    fixed per config) and radial exponents (keyed by (k, f, a)) are
    computed once per run; nothing is kept between runs.
    """
    spaces = [load_space(e) for e in config.spaces]
    report: dict = {"config": config.data, "spaces": [], "suites": []}
    spectra: dict = {}
    exponents: dict = {}

    for space in spaces:
        fb = space.F.cohomology_dims()
        if fb not in spectra:
            spectra[fb] = link_spectrum(fb, config.fibre_grid)
        spec_obj = spectra[fb]
        entry = {
            "name": space.name,
            "n": space.n,
            "b": space.b,
            "f": space.f,
            "middle_perversities": list(middle_perversities(space.f)),
            "weights": [],
            "complete_l2": [],
            "radial": _radial_section(space, config.weights[0], config, exponents),
        }
        entry["weights"] = [_weight_cell(space, a, spec_obj) for a in config.weights]
        lo, hi = (config.degrees or (0, space.n))
        for k in range(lo, min(hi, space.n) + 1):
            ans = weights.complete_l2(space, k)
            entry["complete_l2"].append({
                "k": k,
                "verdict": ans.verdict,
                "perversity": str(ans.perversity.value) if ans.perversity else None,
                "provenance": "exact",
            })
        report["spaces"].append(entry)

    if config.suites:
        names = [s for s in config.spaces if isinstance(s, str)]
        results = verify.run_suites(config.suites, names or None)
        report["suites"] = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
    report["ok"] = all(s["passed"] for s in report["suites"])
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


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
