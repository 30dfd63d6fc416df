"""End-to-end runs of every subcommand through cli.main."""

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import contactgeom
from contactgeom.cli import main
from contactgeom.familyio import read_family, write_family
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
    for data in (b"not a family header\n", b"\xff\xfefamily m=1\n"):
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error") and len(err.splitlines()) == 1


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


def test_decompose_degenerate_threshold(tmp_path, capsys):
    # a zigzag crossing two shallow arcs that share one tangency: dense
    # enough that the cut-up family keeps average degree one
    zig = Curve(1, (pt(1, 5), pt(2, 0), pt(3, 5), pt(4, 0), pt(5, 5)),
                closed=False)
    hi = Curve(2, (pt(0, 3), pt(3, frac("7/2")), pt(6, 3), pt(9, frac("7/2")),
                   pt(12, 3)), closed=False)
    lo = Curve(3, (pt(0, 1), pt(5, frac("3/2")), pt(6, 3), pt(7, frac("3/2")),
                   pt(12, 1)), closed=False)
    path = tmp_path / "zigzag.family"
    write_family(path, CurveFamily((zig, hi, lo), 4))
    report = tmp_path / "degen.json"
    rc = main(["decompose", str(path), "--cconst", "1/100",
               "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["degenerate"] is True
    assert "reason" in data


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


def test_verify_prop9_bails_politely(chain_file, tmp_path, capsys):
    report = tmp_path / "na.json"
    assert main(["verify-prop9", chain_file, "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["applicable"] is False
    assert "bipartite" in data["reason"]


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
    rc = main(["experiment", "--kind", "TangentChain", "--sweep", "6,x",
               "--out", str(tmp_path / "bad.csv")])
    assert rc == 2


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
