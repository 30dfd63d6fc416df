"""Package-wide conventions for errors and invariant checks."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import contactgeom


def test_no_module_has_assert():
    # advertised invariants must survive python -O as InvariantError, and
    # raise it: no module asserts or raises AssertionError itself
    names = [m.name for m in pkgutil.iter_modules(contactgeom.__path__)]
    assert "separator" in names and "verifier" in names
    found = []
    for name in names:
        tree = ast.parse(inspect.getsource(
            importlib.import_module(f"contactgeom.{name}")))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            raises = isinstance(exc, ast.Name) and exc.id == "AssertionError"
            if isinstance(node, ast.Assert) or raises:
                found.append(f"{name}:{node.lineno}")
    assert not found


def test_no_module_stores_every_pair():
    # pairs of curves are drawn by rank or iterated lazily: a list of all
    # n(n-1)/2 pairs of a large family is the process's memory peak
    holders = ("list", "tuple", "set", "sorted")
    found = []
    for m in pkgutil.iter_modules(contactgeom.__path__):
        tree = ast.parse(inspect.getsource(
            importlib.import_module(f"contactgeom.{m.name}")))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in holders
                    and any(isinstance(arg, ast.Call) and "combinations" in (
                        getattr(arg.func, "id", None),
                        getattr(arg.func, "attr", None))
                        for arg in node.args)):
                found.append(f"{m.name}:{node.lineno}")
    assert not found


def test_layers_read_the_catalogue_through_one_reader():
    # a family's catalogue reaches every layer through
    # incidence.catalogue; no function takes it as an optional argument,
    # and only the reader and reduce_degree's post-check run the engine
    params, callers = [], set()
    for m in pkgutil.iter_modules(contactgeom.__path__):
        name = m.name
        tree = ast.parse(inspect.getsource(
            importlib.import_module(f"contactgeom.{name}")))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params += [f"{name}.{fn.name}" for arg in
                       a.posonlyargs + a.args + a.kwonlyargs if arg.arg == "fi"]
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id",
                                    getattr(node.func, "attr", None))
                        == "compute_incidences"):
                    callers.add(f"{name}.{fn.name}")
    assert params == []
    assert {c for c in callers if not c.startswith("incidence.")} == {
        "separator.reduce_degree"}
    assert "incidence.catalogue" in callers


def _tracing_table(name):
    """The literal value of a top-level assignment in perfbench/tracing.py,
    read without running the file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_every_traced_name_exists():
    # the benchmark's tracer wraps these by name and fails at its getattr
    # when one is gone
    missing = [f"{mod}.{fn}" for mod, names in
               _tracing_table("LAYERS").values() for fn in names
               if not hasattr(importlib.import_module(f"contactgeom.{mod}"),
                              fn)]
    geometry = importlib.import_module("contactgeom.geometry")
    missing += [f"geometry.{fn}" for fn in _tracing_table("COUNTED")
                if not hasattr(geometry, fn)]
    assert missing == []


def test_only_graphs_calls_networkx_to_check_planarity():
    # every search runs on integer adjacency lists; networkx only certifies
    # planarity, in graphs, on the one Graph built as its input
    importers, used, names = [], [], []
    for m in pkgutil.iter_modules(contactgeom.__path__):
        tree = ast.parse(inspect.getsource(
            importlib.import_module(f"contactgeom.{m.name}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                importers += [(m.name, a.name, a.asname) for a in node.names
                              if a.name.split(".")[0] == "networkx"]
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("networkx")
            elif isinstance(node, ast.Name) and node.id == "networkx":
                names.append(m.name)
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "networkx"):
                used.append(node.attr)
    assert importers == [("graphs", "networkx", None)]
    assert sorted(used) == ["Graph", "check_planarity"]
    assert names == ["graphs"] * len(used)  # the module is never passed on


def test_every_public_name_in_src_is_used():
    # a public top-level function or class is called or named elsewhere in
    # the package; an export from contactgeom is not a use. The names
    # pinned below have no caller in the package, each for its reason;
    # anything else is a helper nothing reads
    traced = {fn for _, fns in _tracing_table("LAYERS").values()
              for fn in fns} | set(_tracing_table("COUNTED"))
    defined, used = [], set()
    for m in pkgutil.iter_modules(contactgeom.__path__):
        module = importlib.import_module(f"contactgeom.{m.name}")
        for top in ast.parse(inspect.getsource(module)).body:
            own = (top.name if isinstance(top, (ast.FunctionDef,
                                                ast.ClassDef)) else None)
            if own is not None and not own.startswith("_"):
                defined.append(f"{m.name}.{own}")
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    unused = sorted(name for name in defined
                    if name.rsplit(".", 1)[1] not in used)
    # the benchmark's tracer wraps these by name
    wrapped = ["arrangement.build_mixed_arrangement", "geometry.orientation",
               "geometry.segment_intersection", "graphs.check_planarity",
               "incidence.curve_pair_incidences"]
    # the tests' entry points: the exact expectations, the determinism
    # tests, and how the separator tests build their graphs
    entry_points = ["verifier.enumerate_ground_pairs",
                    "verifier.sample_ground_pair", "separator.weighted_graph"]
    # pinned, so that no ninth name joins them unnoticed
    assert unused == sorted(wrapped + entry_points)
    assert all(name.rsplit(".", 1)[1] in traced for name in wrapped)


def test_every_public_member_in_src_is_read():
    # a public method or property of a class in the package is read as an
    # attribute somewhere in the package outside its own body, by name as
    # above; dataclass fields are not members here
    members, reads = [], []
    for m in pkgutil.iter_modules(contactgeom.__path__):
        tree = ast.parse(inspect.getsource(
            importlib.import_module(f"contactgeom.{m.name}")))
        reads += [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                members += [(f"{m.name}.{cls.name}.{fn.name}", fn)
                            for fn in cls.body
                            if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_")]
    unread = []
    for name, fn in members:
        own = {id(node) for node in ast.walk(fn)}
        if not any(node.attr == fn.name and id(node) not in own
                   for node in reads):
            unread.append(name)
    # the oracles and tests walk a curve's segments through it, and the
    # separator oracle and tests read the exact vertex weights
    assert sorted(unread) == ["geometry.Curve.segments",
                              # the benchmark's tracer counts
                              # `separator.planar_graph.edges` through it
                              "separator.WeightedPlanarGraph.edges",
                              "separator.WeightedPlanarGraph.weights"]


def test_one_function_builds_a_rotation_system():
    # the arrangement and the separator graph read one plane skeleton: a
    # second function sorting half-edges by angle (angle_key, or the
    # rotation_order it replaced) would be a second rotation builder
    readers = []
    for m in pkgutil.iter_modules(contactgeom.__path__):
        tree = ast.parse(inspect.getsource(
            importlib.import_module(f"contactgeom.{m.name}")))
        functions = [fn for top in tree.body
                     for fn in (top.body if isinstance(top, ast.ClassDef)
                                else [top])
                     if isinstance(fn, ast.FunctionDef)]
        readers += [f"{m.name}.{fn.name}" for fn in functions
                    if any(getattr(node, "id", getattr(node, "attr", None))
                           in ("angle_key", "rotation_order")
                           for node in ast.walk(fn))]
    assert readers == ["arrangement.plane_skeleton"]


def test_plane_skeleton_numbers_vertices_without_coordinates():
    # vertex numbers come from the catalogue (curve id, chain parameter),
    # so every tie-break of the separator search is the same under any map
    # that keeps the catalogue; a lift to a common grid reads coordinates
    from contactgeom import arrangement
    tree = ast.parse(inspect.getsource(arrangement.plane_skeleton))
    named = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(tree)}
    assert not named & {"lift", "lift_point", "lcm", "coordinate_scale"}


def test_verifier_does_not_use_segment_intersection():
    # charging lifts each curve set once; a per-call Fraction lift in the
    # route search is what made it slow. Its segment scans are
    # geometry.Polyline's, so it calls the segment kernel nowhere itself,
    # and it reads each charged piece off one scan of the closed-up arcs
    # instead of cutting curves itself, as degree reduction does.
    tree = ast.parse(inspect.getsource(
        importlib.import_module("contactgeom.verifier")))
    banned = ("segment_intersection", "seg_events", "_pieces")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in banned]
        elif isinstance(node, ast.Name) and node.id in banned:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in banned:
            found.append(node.attr)
    assert not found


def test_the_face_side_reads_contacts_only_from_a_catalogue():
    # a face context is given its family's catalogue, and the verifier
    # opens no other door into the incidence engine
    from contactgeom import verifier
    tree = ast.parse(inspect.getsource(verifier))
    named = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(tree)}
    named |= {a.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not named & {"curve_pair_incidences", "mixed_contacts",
                        "compute_incidences", "build_mixed_arrangement"}
    contacts = inspect.signature(verifier.FaceContext).parameters["contacts"]
    assert contacts.default is inspect.Parameter.empty


def test_degree_reduction_cuts_compare_no_fraction(monkeypatch):
    # the cuts are integer pairs and a cut point is read off the curve's
    # grid: no Fraction is ordered or hashed while a curve is cut
    from fractions import Fraction
    from contactgeom.generators import GeneratorSpec, generate
    from contactgeom.incidence import compute_incidences
    from contactgeom.separator import _pieces
    jobs = []
    for kind, n, m in (("PerturbedPencil", 12, 12), ("UnitCirclesGrid", 16, 2)):
        fam = generate(GeneratorSpec(kind=kind, n=n, m=m, seed=1))
        fi = compute_incidences(fam)
        d = fi.X // fam.n
        for c in fam.curves:
            ps = [inc.s_on(c.id) for inc in fi.on_curve(c.id)]
            if len(ps) > d:
                jobs.append((c, ps, d))
    assert any(s.denominator > 1 for _, ps, _ in jobs for s in ps)

    def refuse(*args):
        raise TypeError("a Fraction was compared or hashed")
    with monkeypatch.context() as mp:
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
            mp.setattr(Fraction, name, refuse)
        pieces = [_pieces(c, ps, d) for c, ps, d in jobs]
    assert len(pieces) == len(jobs) > 0 and all(pieces)
