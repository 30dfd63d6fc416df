"""End-to-end runs of every subcommand through cli.main."""

import builtins
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactgeom
from contactgeom import cli, incidence
from contactgeom.cli import main
from contactgeom.familyio import dumps_family, read_family, write_family
from contactgeom.generators import GeneratorSpec, generate
from contactgeom.geometry import Curve, CurveFamily, frac, pt

import instances


@pytest.fixture
def chain_file(tmp_path):
    fam = generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=1))
    path = tmp_path / "chain.family"
    write_family(path, fam)
    return str(path)


def fence_family(second_comb, m):
    fence = instances.fence_subarcs(6)
    lam1 = instances.comb_subarc(101, 6, ("elbow",) * 6, 0)
    curves = tuple(sa.geometry for sa in fence) + (lam1.geometry,
                                                   second_comb.geometry)
    return CurveFamily(curves, m)


# ------------------------------------------------------------- validate

def test_validate_accepts_clean_family(chain_file, capsys):
    assert main(["validate", chain_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_budget_violation(tmp_path, capsys):
    sq1 = Curve(1, (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)), closed=True)
    sq2 = Curve(2, (pt(2, 1), pt(6, 1), pt(6, 5), pt(2, 5)), closed=True)
    path = tmp_path / "tight.family"
    write_family(path, CurveFamily((sq1, sq2), 1))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "(iv)" in err and "intersection_budget" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.family")]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_file_exits_1(tmp_path, capsys):
    path = tmp_path / "garbage.family"
    # a bad header, then bytes that are not UTF-8 (a UTF-16 byte-order mark)
    # and a coordinate outside the written grammar, refused before it asks
    # for an integer of about 415 MB
    for data in (b"not a family header\n", b"\xff\xfefamily m=1\n",
                 b"family m=1\ncurve id=1 closed=1 nv=3\n"
                 b"1e999999999 0\n4 0\n0 4\n"):
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error") and len(err.splitlines()) == 1


@pytest.mark.parametrize("exc", [KeyError("lost"),
                                 AssertionError("broken invariant")])
def test_unexpected_exception_exits_2_with_one_line(exc, chain_file,
                                                    monkeypatch, capsys):
    def handler(cfg):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "validate", handler)
    assert main(["validate", chain_file]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"


# -------------------------------------------------------------- analyze

def test_analyze_prints_counts(chain_file, capsys):
    assert main(["analyze", chain_file]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "n=6 m=1 T=5 X=5 crossings=0 f=1"


def test_analyze_writes_touching_graph(chain_file, tmp_path, capsys):
    out = tmp_path / "chain.edges"
    assert main(["analyze", chain_file, "--graphs", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(len(line.split()) == 2 for line in lines)


# ------------------------------------------------------------- generate

def test_generate_writes_readable_family(tmp_path, capsys):
    out = tmp_path / "gen.family"
    rc = main(["generate", "--kind", "TangentChain", "--n", "7",
               "-o", str(out)])
    assert rc == 0
    fam = read_family(out)
    assert fam.n == 7


def test_generate_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a.family", tmp_path / "b.family"
    for out in (a, b):
        main(["generate", "--kind", "RandomCircles", "--n", "8",
              "--seed", "5", "-o", str(out)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.family"
    main(["generate", "--kind", "RandomCircles", "--n", "8",
          "--seed", "6", "-o", str(c)])
    assert a.read_bytes() != c.read_bytes()


# ------------------------------------------------------------ decompose

def test_decompose_report_fields(tmp_path, capsys):
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=9, m=2, seed=1))
    path = tmp_path / "grid.family"
    write_family(path, fam)
    report = tmp_path / "decomp.json"
    assert main(["decompose", str(path), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["degenerate"] is False
    assert data["input_n"] == 9 and data["reduced_n"] > 9
    flat = [cid for p in data["pieces"] for cid in p]
    assert len(flat) == len(set(flat))
    assert data["piece_count"] == len(data["pieces"])
    # pieces of the cut-up family map back to original curve ids
    assert "parent_pieces" in data
    orig = {c.id for c in fam}
    assert all(set(p) <= orig for p in data["parent_pieces"])


def zigzag_family():
    """A zigzag crossing two shallow arcs that share one tangency: dense
    enough that the cut-up family keeps average degree one."""
    zig = Curve(1, (pt(1, 5), pt(2, 0), pt(3, 5), pt(4, 0), pt(5, 5)),
                closed=False)
    hi = Curve(2, (pt(0, 3), pt(3, frac("7/2")), pt(6, 3), pt(9, frac("7/2")),
                   pt(12, 3)), closed=False)
    lo = Curve(3, (pt(0, 1), pt(5, frac("3/2")), pt(6, 3), pt(7, frac("3/2")),
                   pt(12, 1)), closed=False)
    return CurveFamily((zig, hi, lo), 4)


def test_decompose_degenerate_threshold(tmp_path, capsys):
    path = tmp_path / "zigzag.family"
    write_family(path, zigzag_family())
    report = tmp_path / "degen.json"
    rc = main(["decompose", str(path), "--cconst", "1/100",
               "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["degenerate"] is True
    assert "reason" in data


@pytest.mark.parametrize("kind, m", [("PseudoParabolas", 2),
                                     ("PerturbedPencil", 1)])
def test_decompose_without_touchings_reports_degenerate(kind, m, tmp_path,
                                                        capsys):
    # d > 0 and T = 0: outside the threshold formula's precondition, an
    # input condition, so a report and exit 0, not an exit 2
    path = tmp_path / "dense.family"
    write_family(path, generate(GeneratorSpec(kind=kind, n=5, m=m, seed=42)))
    report = tmp_path / "dense.json"
    assert main(["decompose", str(path), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["degenerate"] is True
    assert data["reason"] == "decomposition needs a touching pair"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("token", ["1e999999999", "1.5", "1/0", "0", "-1"])
def test_cconst_takes_only_the_family_grammar(token, chain_file, tmp_path,
                                              capsys):
    # the exponent would ask for an integer of about 415 MB if evaluated,
    # a zero denominator escaped as a traceback, and a constant <= 0 went
    # unread into the report of the d = 0 fallback
    report = tmp_path / "dec.json"
    rc = main(["decompose", chain_file, "--cconst", token,
               "--report", str(report)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--cconst" in err and token in err
    assert not report.exists()


# ---------------------------------------------------------- verify-prop9

def test_verify_prop9_distinct_combs(tmp_path, capsys):
    fam = fence_family(instances.comb_subarc(102, 6, ("sh1e",) * 6, 0), m=1)
    path = tmp_path / "fence.family"
    write_family(path, fam)
    report = tmp_path / "prop9.json"
    assert main(["verify-prop9", str(path), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["applicable"] is True
    assert data["expected_lambda1"] == 6
    assert data["lambda1"] == [1, 2, 3, 4, 5, 6]
    assert sorted(data["lambdaF"]) == [101, 102]
    assert data["distinct"] is True
    assert data["colliding"] == [] and data["charging"] == []
    assert sorted(map(len, data["signatures"].values())) == [6, 6]


def test_verify_prop9_charges_a_collision(tmp_path, capsys):
    fam = fence_family(instances.comb_subarc(102, 6, ("el2",) * 6, 1), m=40)
    path = tmp_path / "fencev.family"
    write_family(path, fam)
    report = tmp_path / "prop9v.json"
    assert main(["verify-prop9", str(path), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["applicable"] is True
    assert data["distinct"] is False
    assert data["colliding"] == [[101, 102]]
    entry = data["charging"][0]
    assert entry["pair"] == [101, 102]
    assert len(entry["alt_edges"]) == 6 and entry["hat_edges"] == []
    assert entry["real"] == 5 and entry["imaginary"] == 1
    assert len(entry["charges"]) == 6


@pytest.mark.parametrize("second,m,digest", [
    (("el2", 1), 40,
     "0472289880c4bf2bfbbb199228469bf2e898c93a07b34ea93ef39bb9f612d60b"),
    (("sh1e", 0), 1,
     "070c920f2db1011fe3f08093397dd6deddd84796350f3ee3b2a2f60e287ef0bf"),
])
def test_verify_prop9_builds_one_face_search(tmp_path, monkeypatch, capsys,
                                             second, m, digest):
    # the preferred orientation (pickets around the combs) has a common
    # face, so the other side's arrangement is never built; the report is
    # byte for byte the one both orientations used to be searched for
    token, level = second
    fam = fence_family(instances.comb_subarc(102, 6, (token,) * 6, level), m)
    path, report = tmp_path / "fence.family", tmp_path / "prop9.json"
    write_family(path, fam)
    built = []
    build = cli.build_arrangement
    monkeypatch.setattr(cli, "build_arrangement",
                        lambda sub: built.append(sub.curves) or build(sub))
    assert main(["verify-prop9", str(path), "--report", str(report)]) == 0
    assert [[c.id for c in curves] for curves in built] == [[1, 2, 3, 4, 5, 6]]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_verify_prop9_analyses_each_arc_pair_once(tmp_path, monkeypatch,
                                                 capsys):
    # the family's catalogue holds every contact the command reads: the
    # touching graph, the surrounding arrangement and each arc's signature,
    # so the engine runs once, on the whole family
    fam = fence_family(instances.comb_subarc(102, 6, ("el2",) * 6, 1), m=40)
    path = tmp_path / "fencev.family"
    write_family(path, fam)
    runs = []
    run_engine = incidence._run_engine

    def counting(curves, m):
        runs.append((tuple(c.id for c in curves), m))
        return run_engine(curves, m)

    monkeypatch.setattr(incidence, "_run_engine", counting)
    assert main(["verify-prop9", str(path),
                 "--report", str(tmp_path / "r.json")]) == 0
    assert runs == [(tuple(c.id for c in fam), 40)]


def test_reports_are_byte_identical_across_hash_seeds(tmp_path):
    fence = tmp_path / "fence.family"
    write_family(fence, fence_family(
        instances.comb_subarc(102, 6, ("el2",) * 6, 1), m=40))
    grid = tmp_path / "grid.family"
    write_family(grid, generate(GeneratorSpec(kind="UnitCirclesGrid", n=36,
                                              m=1, seed=42)))
    code = ("import sys\n"
            "from contactgeom.cli import main\n"
            f"sys.exit(main(['verify-prop9', {str(fence)!r},"
            " '--report', 'prop9.json'])"
            f" or main(['decompose', {str(grid)!r},"
            " '--report', 'decompose.json']))\n")
    src = Path(contactgeom.__file__).resolve().parents[1]
    reports = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], cwd=out,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append([(out / name).read_bytes()
                        for name in ("prop9.json", "decompose.json")])
    assert reports[0] == reports[1]
    assert json.loads(reports[0][0])["charging"][0]["real"] == 5


def test_verify_prop9_bails_politely(chain_file, tmp_path, capsys):
    report = tmp_path / "na.json"
    assert main(["verify-prop9", chain_file, "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["applicable"] is False
    assert "bipartite" in data["reason"]


@pytest.mark.parametrize("kind,n", [("PerturbedPencil", 4),
                                    ("UnitCirclesGrid", 1)])
def test_verify_prop9_bails_without_touching_pairs(tmp_path, capsys, kind, n):
    # a touching graph with no edge has no sides to split
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=0))
    path, report = tmp_path / "none.family", tmp_path / "na.json"
    write_family(path, fam)
    assert main(["verify-prop9", str(path), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["applicable"] is False
    assert data["reason"] == "touching graph is not complete bipartite"


# ---------------------------------------------------------- sample-lemma

def test_sample_lemma_report(chain_file, tmp_path, capsys):
    report = tmp_path / "sample.json"
    rc = main(["sample-lemma", chain_file, "--trials", "50",
               "--seed", "9", "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["T"] == 5 and data["rich_poor"]["T_poor"] == 0
    mc = data["monte_carlo"]
    assert mc["trials"] == 50 and mc["seed"] == 9
    assert set(mc["t_star"]) == {"mean", "mean_exact", "min", "max"}


def test_sample_lemma_reruns_identically(chain_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for report in (a, b):
        main(["sample-lemma", chain_file, "--trials", "40",
              "--seed", "3", "--report", str(report)])
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------- experiment

def test_experiment_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["experiment", "--kind", "TangentChain", "--sweep", "6,9",
               "--m", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,T,X,d,f,thm3_ratio,thm4_ratio,sep_size,pieces"
    assert len(lines) == 3
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    assert summary["kind"] == "TangentChain"
    assert summary["n_values"] == [6, 9]


def test_experiment_reruns_identically(tmp_path, capsys):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.csv"
        main(["experiment", "--kind", "UnitCirclesGrid", "--sweep", "9,16",
              "--m", "2", "--seed", "11", "--out", str(out)])
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert ((tmp_path / "one.summary.json").read_bytes()
            == (tmp_path / "two.summary.json").read_bytes())


def test_bad_sweep_list_exits_2(tmp_path, capsys):
    # an empty list is as bad as a bad size: no header-only CSV is written;
    # a size is ASCII -?[0-9]+, so no sign, underscore or other digits
    for sweep in ("6,x", "", "+6,1_0", "\u0666"):
        out = tmp_path / "bad.csv"
        rc = main(["experiment", "--kind", "TangentChain", "--sweep", sweep,
                   "--out", str(out)])
        assert rc == 2
        assert "bad sweep list" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "TangentChain", "--n", "1_0", "-o", "gen.family"],
    ["generate", "--kind", "TangentChain", "--n", "4", "--seed", "\u0664",
     "-o", "gen.family"],
    ["sample-lemma", "FAMILY", "--trials", "+5", "--report", "r.json"]],
    ids=["n", "seed", "trials"])
def test_integer_options_take_ascii_digits_only(argv, chain_file, tmp_path,
                                                monkeypatch, capsys):
    # every integer option reads the family files' rule, -?[0-9]+
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([chain_file if a == "FAMILY" else a for a in argv])
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err
    assert not any((tmp_path / name).exists()
                   for name in ("gen.family", "r.json"))


def test_every_command_runs_without_networkx(chain_file, tmp_path):
    # the arrangement graph is certified by its drawing, so no command
    # needs networkx: all seven run where importing it fails, decompose
    # through its separator (at --cconst 1/10 here) and experiment through
    # each sweep row's string separator; so does the public separator API
    # on a 3 x 3 grid given by its rotation system
    fence, zigzag = tmp_path / "fence.family", tmp_path / "zigzag.family"
    write_family(fence, fence_family(
        instances.comb_subarc(102, 6, ("el2",) * 6, 1), m=40))
    write_family(zigzag, zigzag_family())
    runs = [["validate", chain_file], ["analyze", chain_file],
            ["generate", "--kind", "TangentChain", "--n", "4",
             "-o", "gen.family"],
            ["sample-lemma", chain_file, "--trials", "3",
             "--report", "sample.json"],
            ["verify-prop9", str(fence), "--report", "prop9.json"],
            ["decompose", str(zigzag), "--cconst", "1/10",
             "--report", "dec.json"],
            ["experiment", "--kind", "UnitCirclesGrid", "--sweep", "9,16",
             "--m", "2", "--out", "sweep.csv"]]
    code = ("import sys\n"
            "sys.modules['networkx'] = None\n"
            "try:\n"
            "    import networkx\n"
            "    sys.exit('networkx imported')\n"
            "except ImportError:\n"
            "    pass\n"
            "from contactgeom.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "from contactgeom import planar_separator, weighted_graph\n"
            "steps = ((1, 0), (0, 1), (-1, 0), (0, -1))\n"
            "grid = {(i, j): [(i + a, j + b) for a, b in steps\n"
            "                 if 0 <= i + a < 3 and 0 <= j + b < 3]\n"
            "        for i in range(3) for j in range(3)}\n"
            "res = planar_separator(weighted_graph(grid))\n"
            "assert res.separator and len(res.components) > 1, res\n")
    src = Path(contactgeom.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "dec.json").read_text())["per_level"]


# ---------------------------------------------------------- parser reuse

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_starts_each_parse_from_the_defaults():
    ap = cli.build_parser()
    assert ap.parse_args(["-v", "-v", "validate", "f"]).verbose == 2
    assert ap.parse_args(["validate", "f"]).verbose == 0
    given = ap.parse_args(["sample-lemma", "f", "--trials", "7",
                           "--report", "r"])
    assert given.trials == 7
    assert ap.parse_args(["sample-lemma", "f", "--report", "r"]).trials == 100


def test_usage_error_leaves_the_next_call_unchanged(chain_file, tmp_path,
                                                    capsys):
    report = tmp_path / "sample.json"
    args = ["sample-lemma", chain_file, "--report", str(report)]
    runs = []
    for bad in (["sample-lemma", chain_file, "--trials", "7"],
                ["sample-lemma", chain_file, "--trials", "seven",
                 "--report", str(report)],
                ["no-such-command"]):
        runs.append((main(args), capsys.readouterr(), report.read_bytes()))
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
    runs.append((main(args), capsys.readouterr(), report.read_bytes()))
    assert all(run == runs[0] for run in runs)
    assert runs[0][0] == 0
    assert json.loads(runs[0][2])["monte_carlo"]["trials"] == 100


# -------------------------------------------------------- console script

def test_console_entry_point(chain_file):
    """The declared `contactgeom` script runs as an installed wrapper would.

    Read from the checkout's pyproject.toml, so no install is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "contactgeom" in scripts
    ep = EntryPoint(name="contactgeom", value=scripts["contactgeom"],
                    group="console_scripts")
    assert ep.load() is main
    # The body of a pip/setuptools-generated console-script wrapper.
    wrapper = ("import sys\n"
               f"from {ep.module} import {ep.attr}\n"
               "sys.argv[0] = 'contactgeom'\n"
               f"sys.exit({ep.attr}())\n")
    # Absolute, so the child imports the same package whatever its cwd.
    src = Path(contactgeom.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", wrapper,
                           "validate", chain_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


# ------------------------------------------------------- mutated inputs

def _mutation_sources():
    specs = [("UnitCirclesGrid", 9, 1, 42), ("TangentChain", 5, 1, 42),
             ("RandomCircles", 8, 2, 3), ("PseudoParabolas", 5, 2, 42),
             ("PerturbedPencil", 5, 1, 42)]
    fams = [generate(GeneratorSpec(kind=k, n=n, m=m, seed=seed))
            for k, n, m, seed in specs]
    fams.append(fence_family(instances.comb_subarc(102, 6, ("sh1e",) * 6, 0),
                             m=1))
    return tuple(dumps_family(fam).splitlines() for fam in fams)


_SOURCES = _mutation_sources()
# replacement tokens for a vertex line and for a header line
_COORDS = ("0", "-1", "3", "1/2", "2/4", "-3/7", "1/0", "x", "1.5", "+1")
_WORDS = ("family", "curve", "m=0", "m=3", "id=1", "closed=2", "nv=2",
          "nv=40", "#", "1/2")
_NUDGES = (Fraction(1), Fraction(-1, 2), Fraction(1, 7), Fraction(1, 1000))
# one edit set per file: geometric edits keep the file readable, token
# edits put a token of another kind or outside the grammar in one place
_EDITS = (("nudge", "copy"), ("token",),
          ("nudge", "copy", "delete", "duplicate", "swap", "token", "garbage",
           "truncate", "not-utf8"))


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _is_vertex(line):
    return len(line.split()) == 2 and "=" not in line


@st.composite
def mutated_files(draw):
    """The bytes of a generated family file after one to three random
    edits from one edit set: a coordinate nudged or a vertex moved onto
    another; a token replaced; or any of those, lines deleted, repeated,
    swapped or replaced by garbage, the text cut short, or bytes that are
    not UTF-8."""
    lines = list(draw(st.sampled_from(_SOURCES)))
    ops = draw(st.sampled_from(_EDITS))
    tail = b""
    for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=3)):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        toks = lines[k].split()
        i = draw(st.integers(0, len(toks) - 1)) if toks else 0
        if (op == "nudge" and _is_vertex(lines[k])
                and _RATIONAL.fullmatch(toks[i])):
            v = Fraction(toks[i]) + draw(st.sampled_from(_NUDGES))
            toks[i] = f"{v.numerator}/{v.denominator}"
            lines[k] = " ".join(toks)
        elif op == "copy" and _is_vertex(lines[k]) and _is_vertex(lines[j]):
            lines[k] = lines[j]
        elif op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "token" and toks:
            toks[i] = draw(st.sampled_from(
                _COORDS if _is_vertex(lines[k]) else _WORDS))
            lines[k] = " ".join(toks)
        elif op == "garbage":
            lines[k] = draw(st.text(st.characters(
                blacklist_categories=("Cs",)), max_size=12))
        elif op == "truncate":
            lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
            del lines[k + 1:]
        elif op == "not-utf8":
            tail = b"\xff\xfe"
    return ("\n".join(lines) + "\n").encode("utf8") + tail


def _names_a_foreign_exception(err):
    """Does an `error:` line name an exception type, as main's last
    resort does for an exception from outside the package?"""
    named = re.match(r"error: (\w+): ", err)
    return named is not None and (
        named[1].endswith(("Error", "Exception"))
        or isinstance(getattr(builtins, named[1], None), type))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_files())
def test_mutated_files_keep_the_exit_contract(data):
    """Every file command on a mutated family file exits 0, 1 or 2 with at
    most one line on stderr (validate: one per violation), and an exit 2
    comes from the package."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.family")
        with open(path, "wb") as fh:
            fh.write(data)
        report = os.path.join(tmp, "report.json")
        for argv in (["validate", path], ["analyze", path],
                     ["decompose", path, "--report", report],
                     ["sample-lemma", path, "--trials", "5",
                      "--report", report],
                     ["verify-prop9", path, "--report", report]):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                rc = main(argv)
            err = err.getvalue()
            assert rc in (0, 1, 2), (argv[0], rc, err)
            lines = err.splitlines()
            if argv[0] == "validate" and rc == 1 and len(lines) > 1:
                # validate lists every violation of a family it could read
                assert all(ln.startswith("violation ") for ln in lines), err
            else:
                assert len(lines) <= 1, (argv[0], err)
            assert not (rc == 2 and _names_a_foreign_exception(err)), (
                argv[0], err)
