"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces the public functions of the program's modules
with timing wrappers and ``uninstall`` puts the originals back, so the
end-to-end runs execute the program untouched.  A function is patched
wherever it is looked up: the defining module, and every other module
that imported it by name (``stratified`` imports ``tensor`` from
``cochain``, ``report`` imports ``model_from_dict`` from ``stratified``).
Methods are patched on their class.  A named target that no longer exists
is skipped and its metrics are reported absent, so a refactor that
deletes or renames a function does not break the benchmark.

A layer's self time is its spans' duration minus the time covered by the
spans of wrapped functions it called.  Counters (matrix cells, nonzeros,
repeated work) are taken outside the spans and their cost is kept out of
every self time; it is reported as ``count_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cochain", "elim", "stratified", "weights", "spectral",
           "fibredec", "radial", "report")

# Named layers: label -> "module:qualname" targets.  Every other public
# function of the modules is wrapped under "<module>.<name>" and counted
# in its module's total only.
NAMED = {
    "elim.rank": ("elim:rank_fraction_rows", "elim:rank_int_rows", "elim:rank_sparse"),
    "elim.bareiss": ("elim:bareiss_rank",),
    "cochain.tensor": ("cochain:tensor",),
    "cochain.tensor_map": ("cochain:tensor_map",),
    "cochain.truncate": ("cochain:truncate",),
    "cochain.block_matrix": ("cochain:block_matrix",),
    "cochain.matmul": ("cochain:QMatrix.__matmul__",),
    "cochain.kron": ("cochain:QMatrix.kron",),
    "cochain.verify": ("cochain:CochainComplex.verify",),
    "cochain.commutes": ("cochain:ComplexMap.commutes",),
    "cochain.induced_map_rank": ("cochain:induced_map_rank",),
    "stratified.model_build": ("stratified:model_from_dict", "stratified:builtin_space",
                               "stratified:EdgeSpaceModel.__init__"),
    "stratified.total_complex": ("stratified:EdgeSpaceModel.total_complex",),
    "stratified.total_map": ("stratified:EdgeSpaceModel.total_map",),
    "stratified.truncated_tube": ("stratified:EdgeSpaceModel.truncated_tube",),
    "weights.minimal_hodge_dims": ("weights:minimal_hodge_dims",),
    "weights.complete_l2": ("weights:complete_l2",),
    "spectral.predicates": ("spectral:critical_roots", "spectral:boundary_contacts",
                            "spectral:essentially_selfadjoint",
                            "spectral:unique_closed_extension_d"),
    "fibredec.build_fibre": ("fibredec:build_fibre",),
    "fibredec.laplacian_matrix": ("fibredec:laplacian_matrix",),
    "fibredec.spectrum_for_predicates": ("fibredec:spectrum_for_predicates",),
    "radial.mode_exponent": ("radial:mode_exponent",),
    "report.run": ("report:run",),
    "report.render": ("report:render_report", "report:report_to_json"),
}

# Per-layer metrics reported by a traced run: name -> (unit, better).
# Which end-to-end metric each should move, on which workload, is in
# LAYER_EFFECTS below.
METRICS = {
    "elim.rank.self_s": ("s", "lower"),
    "elim.rank.calls": ("count", "lower"),
    "elim.rank.cells": ("cells", "lower"),
    "elim.rank.nnz": ("count", "lower"),
    "elim.rank.repeat_frac": ("ratio", "lower"),
    "elim.bareiss.calls": ("count", "lower"),
    "elim.bareiss.cells": ("cells", "lower"),
    **{f"cochain.{n}.self_s": ("s", "lower") for n in (
        "tensor", "tensor_map", "truncate", "block_matrix", "matmul", "kron",
        "verify", "commutes", "induced_map_rank")},
    "cochain.tensor.calls": ("count", "lower"),
    "cochain.block_matrix.cells": ("cells", "lower"),
    "cochain.block_matrix.nnz": ("count", "lower"),
    **{f"stratified.{n}.self_s": ("s", "lower") for n in (
        "model_build", "total_complex", "total_map", "truncated_tube")},
    "stratified.total_complex.calls": ("count", "lower"),
    "stratified.total_complex.built": ("count", "lower"),
    "stratified.total_map.calls": ("count", "lower"),
    "weights.minimal_hodge_dims.self_s": ("s", "lower"),
    "weights.complete_l2.self_s": ("s", "lower"),
    "spectral.predicates.self_s": ("s", "lower"),
    "fibredec.build_fibre.self_s": ("s", "lower"),
    "fibredec.laplacian_matrix.self_s": ("s", "lower"),
    "fibredec.spectrum_for_predicates.self_s": ("s", "lower"),
    "fibredec.spectrum_for_predicates.calls": ("count", "lower"),
    "fibredec.spectrum.repeat_frac": ("ratio", "lower"),
    "radial.mode_exponent.self_s": ("s", "lower"),
    "radial.mode_exponent.calls": ("count", "lower"),
    "report.run.self_s": ("s", "lower"),
    "report.render.self_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "unattributed.self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

# The end-to-end metric each layer should move, and on which workload.
LAYER_EFFECTS = {
    "elim.rank.*, elim.bareiss.*": "job_s and first_answer_s on subdivided-edge",
    "cochain.*": "job_s, first_answer_s and peak_rss_mb on subdivided-edge; "
                 "cochain.tensor also job_s on run-report",
    "stratified.*": "job_s on catalogue-sweep; first_answer_s on subdivided-edge "
                    "and catalogue-sweep",
    "weights.*, spectral.predicates": "job_s on catalogue-sweep",
    "fibredec.*": "job_s on run-report; zero on the other workloads",
    "radial.mode_exponent.*, report.*": "job_s on run-report",
}


def _resolve(target: str):
    """(owner, attribute name, original) for "module:Class.attr", or None."""
    mod_name, qual = target.split(":")
    try:
        owner = importlib.import_module(f"edgehodge.{mod_name}")
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = inspect.getattr_static(owner, attr, None)
    if fn is None or not callable(fn):
        return None
    return owner, attr, fn


def _shape(rows):
    """(cells, nonzeros) of a matrix given as rows: sequences or {col: v}
    dicts.  None when the argument is not a re-iterable row list."""
    if not isinstance(rows, (list, tuple)):
        return None
    if not rows:
        return 0, 0
    if isinstance(rows[0], dict):
        width = 1 + max((c for r in rows for c in r), default=-1)
        return len(rows) * width, sum(len(r) for r in rows)
    return len(rows) * len(rows[0]), sum(1 for r in rows for x in r if x)


def _content_key(rows):
    if isinstance(rows[0], dict):
        return tuple(tuple(sorted(r.items())) for r in rows)
    return tuple(tuple(r) for r in rows)


def _matrix_shape(m):
    """(cells, nonzeros) of a program matrix, or None if it does not store
    its entries as rows."""
    shape = _shape(getattr(m, "entries", None))
    return (m.rows * m.cols, shape[1]) if shape else None


class Tracer:
    """Collects self time and counters per label for one job at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [label, child seconds] per open span
        self.absent: list[str] = []
        self.reset()

    # -- per-job state --------------------------------------------------

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.count_s = 0.0
        self._stack.clear()
        self._seen: dict[str, set] = defaultdict(set)
        self._built: dict[int, object] = {}

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        named = set()
        for label, targets in NAMED.items():
            found = False
            for target in targets:
                hit = _resolve(target)
                if hit is None:
                    continue
                found = True
                named.add(id(hit[2]))
                self._patch(hit, label)
            if not found:
                self.absent.append(label)
        for mod_name in MODULES:
            try:
                mod = importlib.import_module(f"edgehodge.{mod_name}")
            except ImportError:
                self.absent.append(mod_name)
                continue
            for name, fn in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__ and id(fn) not in named
                        and not hasattr(fn, "__wrapped__")):
                    self._patch((mod, name, fn), f"{mod_name}.{name}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, hit, label: str) -> None:
        owner, attr, fn = hit
        wrapper = self._wrap(label, fn)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("edgehodge") and mod is not None:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def _wrap(self, label: str, fn):
        pre = PRE_COUNTERS.get(label)
        post = POST_COUNTERS.get(label)
        st = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not st or st[-1][0] != label
            if pre is not None and outer:
                c0 = perf()
                pre(self, args)
                self._charge_counting(perf() - c0)
            frame = [label, 0.0]
            st.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st.pop()
                self.self_s[label] += dt - frame[1]
                if outer:
                    self.calls[label] += 1
                if st:
                    st[-1][1] += dt
            if post is not None and outer:
                c0 = perf()
                post(self, result)
                self._charge_counting(perf() - c0)
            return result

        return wrapper

    def _charge_counting(self, dt: float) -> None:
        self.count_s += dt
        if self._stack:
            self._stack[-1][1] += dt

    # -- results --------------------------------------------------------

    def repeat(self, kind: str, key) -> None:
        seen = self._seen[kind]
        self.counts[f"{kind}.attempts"] += 1
        if key in seen:
            self.counts[f"{kind}.repeats"] += 1
        else:
            seen.add(key)

    def module_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for label, s in self.self_s.items():
            out[label.split(".")[0]] += s
        return out

    def metrics(self, job_s: float) -> dict[str, float]:
        """Per-layer metrics of the job just traced (all but the overhead
        fraction, which needs untraced runs)."""
        def frac(kind):
            n = self.counts[f"{kind}.attempts"]
            return self.counts[f"{kind}.repeats"] / n if n else 0.0

        out = {}
        for name in METRICS:
            label, _, stat = name.rpartition(".")
            if stat == "self_s" and label in NAMED:
                out[name] = self.self_s[label]
            elif stat == "calls":
                out[name] = self.calls[label]
        out.update({
            "elim.rank.cells": self.counts["elim.rank.cells"],
            "elim.rank.nnz": self.counts["elim.rank.nnz"],
            "elim.rank.repeat_frac": frac("elim.rank"),
            "elim.bareiss.cells": self.counts["elim.bareiss.cells"],
            "cochain.block_matrix.cells": self.counts["cochain.block_matrix.cells"],
            "cochain.block_matrix.nnz": self.counts["cochain.block_matrix.nnz"],
            "stratified.total_complex.built": len(self._built),
            "fibredec.spectrum.repeat_frac": frac("fibredec.spectrum"),
        })
        out.update({f"{m}.self_s": s for m, s in self.module_self_s().items()})
        out["unattributed.self_s"] = job_s - sum(self.self_s.values()) - self.count_s
        for label in self.absent:
            for name in [n for n in out if n.startswith(label + ".")]:
                del out[name]
        return out


# -- counters ---------------------------------------------------------------


def _count_rank(tr: Tracer, args) -> None:
    rows = args[0] if args else None
    shape = _shape(rows)
    if shape is None:
        return
    tr.counts["elim.rank.cells"] += shape[0]
    tr.counts["elim.rank.nnz"] += shape[1]
    if rows:
        tr.repeat("elim.rank", _content_key(rows))


def _count_bareiss(tr: Tracer, args) -> None:
    shape = _shape(args[0] if args else None)
    if shape is not None:
        tr.counts["elim.bareiss.cells"] += shape[0]


def _count_block(tr: Tracer, result) -> None:
    shape = _matrix_shape(result)
    if shape is not None:
        tr.counts["cochain.block_matrix.cells"] += shape[0]
        tr.counts["cochain.block_matrix.nnz"] += shape[1]


def _count_total_complex(tr: Tracer, result) -> None:
    # a total complex is built once per (model, cutoff) and then served
    # from the model's cache; distinct result objects count the builds
    tr._built.setdefault(id(result), result)


def _count_spectrum(tr: Tracer, args) -> None:
    fibre = args[0] if args else None
    key = (getattr(fibre, "kind", None), getattr(fibre, "sizes", None),
           getattr(fibre, "lengths", None))
    tr.repeat("fibredec.spectrum", key)


PRE_COUNTERS = {
    "elim.rank": _count_rank,
    "elim.bareiss": _count_bareiss,
    "fibredec.spectrum_for_predicates": _count_spectrum,
}
POST_COUNTERS = {
    "cochain.block_matrix": _count_block,
    "stratified.total_complex": _count_total_complex,
}
