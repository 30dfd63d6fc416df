"""Per-layer spans and work counters, applied from outside the package.

`Tracer.install` replaces the public functions of each layer module with
wrappers, in every ``contactgeom`` module namespace that holds them, so a
call through ``cli.compute_incidences`` is traced like one through
``separator.compute_incidences``. Each wrapped call records a span (layer,
function, start, end, parent span, job id); spans stay in memory until
`write_spans`. The two hot geometry predicates get count-only wrappers,
with no span, because a span per call would dominate their cost.

Every counter is a count of work, never a time, so two traced runs of the
same code and inputs must report identical counters.
"""
from __future__ import annotations

import json
import os
import time
from collections import Counter

# layer -> (module, public functions wrapped). `FaceContext` is a class:
# its constructor is wrapped, so isinstance checks keep working.
LAYERS = {
    "familyio": ("familyio", ("read_family", "write_family")),
    "generators": ("generators", ("generate",)),
    "incidence": ("incidence", ("compute_incidences",
                                "validate_general_position",
                                "curve_pair_incidences", "mixed_contacts")),
    "arrangement": ("arrangement", ("build_arrangement",
                                    "build_mixed_arrangement",
                                    "pair_arrangement", "locate_cell")),
    "graphs": ("graphs", ("check_planarity", "contact_graph_from",
                          "intersection_graph_from")),
    "separator.planar_graph": ("separator", ("arrangement_to_planar_graph",)),
    "separator.planar": ("separator", ("planar_separator",)),
    "separator.lift": ("separator", ("string_separator",)),
    "separator.reduce": ("separator", ("reduce_degree",)),
    "separator.decompose": ("separator", ("recursive_decompose",)),
    "verifier.sampling": ("verifier", ("monte_carlo_ground",
                                       "rich_poor_partition")),
    "verifier.signatures": ("verifier", ("FaceContext", "circular_signature",
                                         "verify_signature_uniqueness")),
    "verifier.charging": ("verifier", ("alt_hat_charging",)),
    "experiments": ("experiments", ("run_sweep", "check_thm4", "fit_exponent",
                                    "sweep_csv", "sweep_summary")),
    "cli": ("cli", ("main",)),
}

# geometry predicates counted (no span) while verifier.charging is active
COUNTED = {"segment_intersection": "verifier.charging.segment_tests",
           "orientation": "verifier.charging.orientation_calls"}

# extra counters per layer, in report order; each is written by a hook below
COUNTERS = (
    "familyio.bytes", "generators.curves",
    "incidence.candidate_pairs", "incidence.contact_pairs",
    "incidence.repeat_calls", "arrangement.faces",
    "separator.planar_graph.vertices", "separator.planar_graph.edges",
    "separator.planar.separator_vertices", "separator.lift.separator_curves",
    "separator.reduce.pieces_out", "separator.decompose.nodes",
    "separator.decompose.pieces", "verifier.sampling.trials",
    "verifier.sampling.pair_arrangements", "verifier.charging.real",
    "verifier.charging.imaginary", "verifier.charging.segment_tests",
    "verifier.charging.orientation_calls", "experiments.rows",
    "cli.jobs", "cli.report_bytes",
)


def _incidence(curves_of, contacts_of):
    def hook(t, args, kwargs, result):
        curves = curves_of(args)
        n = len(curves)
        t.counts["incidence.candidate_pairs"] += n * (n - 1) // 2
        t.counts["incidence.contact_pairs"] += contacts_of(result)
        key = frozenset(curves)
        if key in t.analysed:
            t.counts["incidence.repeat_calls"] += 1
        t.analysed.add(key)
    return hook


def _faces_hook(t, args, kwargs, result):
    t.counts["arrangement.faces"] += result.F
    if t.depth["verifier.sampling"]:
        t.counts["verifier.sampling.pair_arrangements"] += 1


def _file_bytes_hook(t, args, kwargs, result):
    t.counts["familyio.bytes"] += os.path.getsize(args[0])


def _string_separator_hook(t, args, kwargs, result):
    t.counts["separator.lift.separator_curves"] += len(result.separator)
    if t.depth["separator.decompose"]:
        t.counts["separator.decompose.nodes"] += 1


def _decompose_hook(t, args, kwargs, result):
    # split nodes were counted by string_separator; the leaves are the pieces
    t.counts["separator.decompose.nodes"] += len(result.pieces)
    t.counts["separator.decompose.pieces"] += len(result.pieces)


def _charging_hook(t, args, kwargs, result):
    t.counts["verifier.charging.real"] += result.real_count
    t.counts["verifier.charging.imaginary"] += result.imaginary_count


def _add(counter, value):
    def hook(t, args, kwargs, result):
        t.counts[counter] += value(args, result)
    return hook


HOOKS = {
    "read_family": _file_bytes_hook,
    "write_family": _file_bytes_hook,
    "generate": _add("generators.curves", lambda a, r: r.n),
    "compute_incidences": _incidence(lambda a: a[0].curves,
                                     lambda r: len(r.pairs)),
    # the validator keeps no pair catalogue, so it adds no contact pairs
    "validate_general_position": _incidence(lambda a: a[0].curves,
                                            lambda r: 0),
    "curve_pair_incidences": _incidence(lambda a: a[:2],
                                        lambda r: 1 if r else 0),
    "mixed_contacts": _incidence(lambda a: tuple(a[0]),
                                 lambda r: len(r.pairs)),
    "build_arrangement": _faces_hook,
    "build_mixed_arrangement": _faces_hook,
    "pair_arrangement": _faces_hook,
    "arrangement_to_planar_graph": lambda t, a, k, r: t.counts.update({
        "separator.planar_graph.vertices": len(r.vertices),
        "separator.planar_graph.edges": len(r.edges)}),
    "planar_separator": _add("separator.planar.separator_vertices",
                             lambda a, r: len(r.separator)),
    "string_separator": _string_separator_hook,
    "reduce_degree": _add("separator.reduce.pieces_out", lambda a, r: r.n),
    "recursive_decompose": _decompose_hook,
    "monte_carlo_ground": _add("verifier.sampling.trials",
                               lambda a, r: r["trials"]),
    "alt_hat_charging": _charging_hook,
    "run_sweep": _add("experiments.rows", lambda a, r: len(r)),
    "main": _add("cli.jobs", lambda a, r: 1),
}


class Tracer:
    """Spans and counters of one traced pass; create one per pass."""

    def __init__(self):
        self.spans = []       # [layer, function, start, end, parent, job]
        self.stack = []       # indices of the open spans
        self.depth = Counter()  # open spans per layer
        self.counts = Counter()
        self.analysed = set()  # curve sets seen by the incidence layer
        self.job = None

    def start_job(self, job_id):
        self.job = job_id
        self.analysed = set()

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get(name)
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.job]
            spans.append(span)
            stack.append(idx)
            depth[layer] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                depth[layer] -= 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _count(self, counter, fn):
        counts, depth = self.counts, self.depth

        def counted(*args):
            if depth["verifier.charging"]:
                counts[counter] += 1
            return fn(*args)

        return counted

    def install(self, modules):
        """Wrap the layer functions in every module of `modules` (name ->
        module) that holds them; return a callable that undoes it."""
        undo = []

        def patch(name, original, replacement):
            for mod in modules.values():
                if mod.__dict__.get(name) is original:
                    setattr(mod, name, replacement)
                    undo.append((mod, name, original))

        for layer, (mod_name, names) in LAYERS.items():
            mod = modules["contactgeom." + mod_name]
            for name in names:
                original = getattr(mod, name)
                if isinstance(original, type):
                    init = original.__init__
                    original.__init__ = self._wrap(layer, name, init)
                    undo.append((original, "__init__", init))
                else:
                    patch(name, original, self._wrap(layer, name, original))
        geometry = modules["contactgeom.geometry"]
        for name, counter in COUNTED.items():
            original = getattr(geometry, name)
            patch(name, original, self._count(counter, original))

        def uninstall():
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
        return uninstall

    def layer_times(self):
        """Self time per layer: each span's duration minus the time its
        direct child spans cover."""
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        for (layer, _, start, end, _, _), inner in zip(self.spans, child):
            self_s[layer] += end - start - inner
            calls[layer] += 1
        return self_s, calls

    def metrics(self):
        """Every per-layer metric, zero for layers this pass never entered."""
        self_s, calls = self.layer_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = {"value": self_s[layer], "unit": "s"}
            out[f"{layer}.calls"] = {"value": calls[layer], "unit": "count"}
        for name in COUNTERS:
            out[name] = {"value": self.counts[name], "unit": "count"}
        return out

    def write_spans(self, path, env):
        """JSON lines: an {"env": ...} object, then one [layer, function,
        start, end, parent, job] list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for layer, name, start, end, parent, job in self.spans:
                fh.write(json.dumps([layer, name, start, end, parent, job])
                         + "\n")
