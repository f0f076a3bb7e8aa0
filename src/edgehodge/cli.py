"""Command line front end.

Subcommands: ih, weights, spectral, fibre-spec, cone-lab, complete,
verify, list, run.  Exit codes: 0 success, 2 configuration problems
(unknown space, malformed config or model file), 3 model invariant
violations, 4 verification failures.  ``--out`` writes the machine-readable JSON
report next to the human-readable tables on stdout.  ``cone-lab``
prints each mode's closed-form exponents with the exact check of
``radial.mode_exponent``, as run reports do, so no command takes a grid
or a tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from edgehodge import fibredec, radial, report as report_mod, spectral, verify
from edgehodge.errors import (
    ConfigError,
    EdgeHodgeError,
    ModelInvariantError,
    PerversityRangeError,
    VerificationFailure,
)
from edgehodge.report import (
    RunConfig,
    _parse_fraction as _parse_rational,
    load_space,
    render_report,
    report_to_json,
)
from edgehodge.stratified import (
    Perversity,
    catalogue,
    ih_dims,
    middle_perversities,
    tube_ih,
)

EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_VERIFY = 4


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma separated integers, not {text!r}") from exc


def _parse_scale(text: str | None) -> list[float] | None:
    return [float(_parse_rational(s)) for s in text.split(",")] if text else None


def _parse_mode(text: str) -> tuple[int, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"mode must be k,lambda2, not {text!r}")
    (k,) = _parse_ints(parts[0], "mode degree k")
    lam2 = _parse_rational(parts[1])
    if lam2 < 0:
        raise ConfigError(f"mode eigenvalue lambda2 must be nonnegative, not {text!r}")
    return k, lam2


def _build_fibre(kind: str, sizes, scale) -> fibredec.DiscreteFibre:
    try:
        return fibredec.build_fibre(kind, sizes, scale)
    except ValueError as exc:
        raise ConfigError(f"bad fibre: {exc}") from exc


def _parse_perversity(text: str, f: int) -> Perversity:
    low, bar = middle_perversities(f)
    if text == "mbar":
        return Perversity(bar)
    if text in ("mlow", "munder"):
        return Perversity(low)
    return Perversity(_parse_rational(text))


def _space_from_args(args):
    return load_space({"file": args.file} if args.file is not None else args.space)


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(report_to_json(payload))
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    if getattr(args, "json", False):
        sys.stdout.write(report_to_json(payload))
    else:
        sys.stdout.write(human)


def _cmd_list(args) -> int:
    rows = [[c["name"], f"({c['n']},{c['b']},{c['f']})", c["description"]]
            for c in catalogue()]
    human = report_mod._fmt_table(["name", "(n,b,f)", "description"], rows) + "\n"
    _emit(args, {"spaces": catalogue()}, human)
    return 0


def _cmd_ih(args) -> int:
    space = _space_from_args(args)
    p = _parse_perversity(args.perversity, space.f)
    dims = ih_dims(space, p)
    payload = {
        "space": space.name,
        "perversity": str(p),
        "dims": {"value": list(dims), "provenance": "exact"},
        "tube_dims": {"value": list(tube_ih(space, p)), "provenance": "exact"},
    }
    human = (f"IH_p with p = {p} on {space.name}:\n  "
             + " ".join(map(str, dims)) + "\n")
    _emit(args, payload, human)
    return 0


def _cmd_weights(args) -> int:
    space = _space_from_args(args)
    rows = []
    payload = {"space": space.name, "weights": []}
    for a_text in args.a:
        cell = report_mod.weight_dims_fields(space, _parse_rational(a_text))
        payload["weights"].append(cell)
        for ext in ("max", "min"):
            rows.append([cell["a"], ext, cell[ext]["perversity"],
                         " ".join(map(str, cell[ext]["dims"]["value"]))])
        rows.append([cell["a"], "minimal-hodge", "-",
                     " ".join(map(str, cell["minimal_hodge"]["dims"]["value"]))])
    human = (f"weighted cohomology on {space.name}:\n"
             + report_mod._fmt_table(["a", "extension", "perversity", "dims"], rows)
             + "\n")
    _emit(args, payload, human)
    return 0


def _spectrum_from_args(args) -> spectral.FibreSpectrum:
    source = ("--spectrum" if args.spectrum else
              "--fibre-kind sphere2" if args.fibre_kind == "sphere2" else None)
    if source:
        for flag, value in (("--sizes", args.sizes), ("--scale", args.scale)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to {source}")
    if args.spectrum:
        try:
            with open(args.spectrum) as fh:
                return spectral.FibreSpectrum.from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read spectrum file: {exc}") from exc
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed spectrum file: {exc!r}") from exc
    kind = args.fibre_kind
    if kind == "sphere2":
        return spectral.sphere2_spectrum()
    if args.sizes:
        sizes = _parse_ints(args.sizes, "sizes")
    else:
        sizes = (16,) if kind == "circle" else (16, 16)
    fib = _build_fibre(kind, sizes, _parse_scale(args.scale))
    return fibredec.spectrum_for_predicates(fib)


def _cmd_spectral(args) -> int:
    a = _parse_rational(args.a)
    if args.f < 0:
        raise ConfigError(f"link dimension f must be nonnegative, not {args.f}")
    spec_obj = _spectrum_from_args(args)
    critical, contacts = spectral.window_roots(args.f, a, spec_obj)
    esa = not critical
    uce = spectral.unique_closed_extension_d(args.f, a, spec_obj.betti)
    roots = report_mod.root_fields(critical, contacts)
    payload = {
        "f": args.f,
        "a": str(a),
        "essentially_selfadjoint": {"value": esa, "provenance": "exact"},
        "unique_closed_extension": {"value": uce, "provenance": "exact"},
        **roots,
    }
    lines = [f"f={args.f}, a={a}:"]
    lines.append(f"  essentially self-adjoint: {'yes' if esa else 'no'}")
    lines.append(f"  unique closed extension of d: {'yes' if uce else 'no'}")
    if roots["critical_roots"]:
        lines.append("  critical indicial roots:")
        for p in roots["critical_roots"]:
            tag = " (double)" if p["double_root"] else ""
            lines.append(f"    degree {p['degree']}, lambda^2={p['lambda2']}: "
                         f"({p['gamma_minus']}, {p['gamma_plus']}){tag}")
    else:
        lines.append("  critical indicial roots: none")
    for c in roots["boundary_contacts"]:
        lines.append(f"  warning: window boundary contact at degree {c['degree']}, "
                     f"lambda^2={c['lambda2']}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_fibre_spec(args) -> int:
    if args.count < 0:
        raise ConfigError(f"count must be a nonnegative integer, not {args.count}")
    sizes = _parse_ints(args.sizes, "sizes")
    scale = _parse_scale(args.scale)
    fib = _build_fibre(args.kind, sizes if len(sizes) > 1 else sizes[0], scale)
    spec_obj = fibredec.spectrum_for_predicates(fib, count=args.count)
    if args.csv:
        try:
            fibredec.export_spectrum_csv(args.csv, spec_obj)
        except OSError as exc:
            raise ConfigError(f"cannot write CSV: {exc}") from exc
    payload = {"fibre": {"kind": args.kind, "sizes": list(sizes)},
               "betti": list(spec_obj.betti),
               "spectrum": spec_obj.to_dict()}
    lines = [f"{args.kind} fibre, sizes {sizes}: Betti {list(spec_obj.betti)}"]
    for q in spec_obj.degrees():
        vals = ", ".join(f"{v}(x{m})" if m > 1 else str(v)
                         for v, m in spec_obj.eigenvalues(q))
        lines.append(f"  degree {q}: {vals}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_cone_lab(args) -> int:
    a = _parse_rational(args.a)
    betti = _parse_ints(args.betti, "betti")
    if min(betti) < 0:
        raise ConfigError(f"betti numbers must be nonnegative, not {args.betti!r}")
    f = len(betti) - 1
    modes = [_parse_mode(m) for m in args.mode]
    if any(not 0 <= k <= f for k, _ in modes):
        raise ConfigError(f"mode degrees must lie in 0..{f}")
    table = radial.local_cohomology(betti, f, a)
    payload = {
        "f": f, "a": str(a),
        "local_cohomology": {
            "max": {"value": list(table.max_dims), "provenance": "exact"},
            "min": {"value": list(table.min_dims), "provenance": "exact"},
        },
        "pullback": [], "slice_constants": [], "modes": [],
    }
    lines = [f"cone lab, f={f}, a={a}, link Betti {list(betti)}:"]
    lines.append("  local cohomology max: " + " ".join(map(str, table.max_dims)))
    lines.append("  local cohomology min: " + " ".join(map(str, table.min_dims)))
    for k in range(f + 1):
        pb = radial.pullback_norm(k, f, a)
        kc = radial.slice_constant(k, f, a)
        payload["pullback"].append({
            "degree": k, "finite": pb.finite,
            "weight_integral": str(pb.value) if pb.finite else None})
        payload["slice_constants"].append({"degree": k, "K": str(kc)})
        state = f"finite ({pb.value})" if pb.finite else "divergent"
        lines.append(f"  degree {k}: pullback norm {state}; slice constant {kc}; "
                     f"window {radial.window_position(k, f, a)}")
    for k, lam2 in modes:
        exponents, ok = radial.mode_exponent(k, lam2, f, a)
        if ok is None:
            payload["modes"].append({"degree": k, "lambda2": str(lam2),
                                     "double_root": True})
            lines.append(f"  mode k={k}, lambda^2={lam2}: double root at {exponents[0]}")
            continue
        payload["modes"].append({
            "degree": k, "lambda2": str(lam2),
            "exponents": {"value": list(exponents), "provenance": "exact"},
            "pass": ok,
        })
        lines.append(f"  mode k={k}, lambda^2={lam2}: exponents "
                     f"({exponents[0]}, {exponents[1]}) [{'pass' if ok else 'FAIL'}]")
    _emit(args, payload, "\n".join(lines) + "\n")
    if any(m.get("pass") is False for m in payload["modes"]):
        raise VerificationFailure("a mode's exponents are not the eigenvalues of its "
                                  "radial system")
    return 0


def _cmd_complete(args) -> int:
    space = _space_from_args(args)
    cells = [report_mod.complete_l2_fields(space, k) for k in range(space.n + 1)]
    payload = {"space": space.name, "complete_l2": cells}
    rows = [[c["k"], c["verdict"], c["perversity"] or "-"] for c in cells]
    human = (f"complete-metric L2 cohomology on {space.name}:\n"
             + report_mod._fmt_table(["k", "verdict", "perversity"], rows) + "\n")
    _emit(args, payload, human)
    return 0


def _cmd_verify(args) -> int:
    suites = None if args.all else (args.suites.split(",") if args.suites else None)
    if suites is None and not args.all:
        raise ConfigError("verify needs --all or --suites")
    spaces = [args.space] if args.space else None
    try:
        results = verify.run_suites(suites, spaces)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    payload = {"checks": [
        {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
        for r in results]}
    rows = [[r.suite, r.name, "pass" if r.passed else "FAIL", r.detail]
            for r in results]
    human = report_mod._fmt_table(["suite", "check", "status", "detail"], rows) + "\n"
    _emit(args, payload, human)
    if not all(r.passed for r in results):
        raise VerificationFailure("one or more invariant checks failed")
    return 0


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config)
    rep = report_mod.run(config)
    human = render_report(rep)
    _emit(args, rep, human)
    if not rep.get("ok", True):
        raise VerificationFailure("verification suites reported failures")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgehodge",
        description="Perversity-indexed intersection cohomology and "
                    "cone-level spectral checks for simple edge spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--space", help="built-in space name")
        source.add_argument("--file", help="model file instead of a name")

    def add_common(p):
        p.add_argument("--out", help="write machine-readable JSON report here")
        p.add_argument("--json", action="store_true",
                       help="print JSON instead of tables")

    p = sub.add_parser("list", help="list built-in spaces")
    add_common(p)
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("ih", help="intersection cohomology table")
    add_source(p)
    p.add_argument("--perversity", required=True,
                   help="rational value, or mbar / mlow")
    add_common(p)
    p.set_defaults(fn=_cmd_ih)

    p = sub.add_parser("weights", help="weighted de Rham and minimal Hodge dims")
    add_source(p)
    p.add_argument("--a", action="append", required=True,
                   help="weight as exact rational, repeatable")
    add_common(p)
    p.set_defaults(fn=_cmd_weights)

    p = sub.add_parser("spectral", help="critical roots and predicates")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--fibre-kind", choices=["circle", "torus", "product", "sphere2"],
                   default="torus")
    p.add_argument("--sizes", default=None, help="comma separated grid sizes")
    p.add_argument("--scale", default=None, help="comma separated circumferences")
    p.add_argument("--spectrum", default=None, help="spectrum JSON file")
    add_common(p)
    p.set_defaults(fn=_cmd_spectral)

    p = sub.add_parser("fibre-spec", help="discrete fibre spectra")
    p.add_argument("--kind", choices=["circle", "torus", "product"], required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--scale", default=None)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--csv", default=None, help="write (degree,index,eigenvalue) CSV")
    add_common(p)
    p.set_defaults(fn=_cmd_fibre_spec)

    p = sub.add_parser("cone-lab", help="radial verification lab")
    p.add_argument("--a", required=True)
    p.add_argument("--betti", default="1,2,1", help="link Betti numbers")
    p.add_argument("--mode", action="append", default=[],
                   help="k,lambda2 pair whose exponents are checked, repeatable")
    add_common(p)
    p.set_defaults(fn=_cmd_cone_lab)

    p = sub.add_parser("complete", help="complete-metric L2 verdicts")
    add_source(p)
    add_common(p)
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("verify", help="run executable invariant suites")
    p.add_argument("--all", action="store_true")
    p.add_argument("--suites", default=None, help="comma separated suite names")
    p.add_argument("--space", default=None, help="restrict to one built-in space")
    add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("run", help="config-driven experiment run")
    p.add_argument("--config", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelInvariantError as exc:
        print(f"model invariant violated: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PerversityRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EdgeHodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
