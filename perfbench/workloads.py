"""The three workloads: inputs built in set-up, the timed CLI job list, and
the checks every job's output must pass.

Each workload is a fixed list of ``contactgeom`` command lines, run one at a
time in a single process (a closed loop with one client). Inputs come from
the seed; the program only ever sees the family files written here. Jobs
run with the work directory as the current directory, so their output
names, and the paths they print, are the same on every machine.

Output checks have two parts. Every job whose output does not depend on
the seed, and every job at the default seed, must match the SHA-256 digests
in ``digests.json``. Independently of the seed, each workload's ``check``
verifies invariants of the outputs: shapes, counts that must agree across
jobs on the same family, and files that two code paths must write
byte-identically.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

DEFAULT_SEED = 42


@dataclass(frozen=True)
class Job:
    name: str
    argv: Tuple[str, ...]
    outputs: Tuple[str, ...] = ()  # files the job writes
    seeded: bool = False           # output depends on --seed


@dataclass
class Result:
    job: Job
    rc: int
    seconds: float
    stdout: str
    error: str = ""
    files: Dict[str, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable   # (api, seed) -> None, writes the input files
    jobs: Callable    # seed -> list of Job
    # (results by job name, seed) -> list of (job name, problem); runs in the
    # work directory, so it can compare outputs with the input files
    check: Callable


# ---------------------------------------------------------------- sweep

SWEEP_KINDS = ("UnitCirclesGrid", "RandomCircles")
SWEEP_NS = (50, 100, 200, 400)
CSV_HEADER = ["n", "m", "T", "X", "d", "f", "thm3_ratio", "thm4_ratio",
              "sep_size", "pieces"]


def _sweep_build(api, seed):
    api.write_family("ucg400.family", api.generate(api.GeneratorSpec(
        kind="UnitCirclesGrid", n=400, m=1, seed=seed)))


def _sweep_jobs(seed):
    jobs = [Job(f"experiment-{kind}",
                ("experiment", "--kind", kind,
                 "--sweep", ",".join(map(str, SWEEP_NS)),
                 "--seed", str(seed), "--out", f"{kind}.csv"),
                (f"{kind}.csv", f"{kind}.summary.json"),
                seeded=kind == "RandomCircles")
            for kind in SWEEP_KINDS]
    jobs.append(Job("decompose-ucg400",
                    ("decompose", "ucg400.family", "--cconst", "8",
                     "--report", "ucg400.decompose.json"),
                    ("ucg400.decompose.json",)))
    return jobs


def _sweep_check(res, seed):
    problems = []
    for kind in SWEEP_KINDS:
        r = res[f"experiment-{kind}"]
        rows = list(csv.reader(io.StringIO(
            r.files[f"{kind}.csv"].decode())))
        summary = json.loads(r.files[f"{kind}.summary.json"])
        body = [dict(zip(rows[0], row)) for row in rows[1:]]
        ok = (rows[0] == CSV_HEADER
              and [int(b["n"]) for b in body] == list(SWEEP_NS)
              and all(b["m"] == "1" and int(b["T"]) <= int(b["X"])
                      and int(b["d"]) == int(b["X"]) // int(b["n"])
                      for b in body)
              and summary["kind"] == kind
              and summary["rows"] == len(SWEEP_NS)
              and summary["n_values"] == list(SWEEP_NS)
              and summary["T_values"] == [int(b["T"]) for b in body]
              and summary["X_values"] == [int(b["X"]) for b in body])
        if not ok:
            problems.append((r.job.name, "sweep CSV and summary disagree"))
    r = res["decompose-ucg400"]
    rep = json.loads(r.files["ucg400.decompose.json"])
    flat = [cid for piece in rep.get("pieces", []) for cid in piece]
    if not (rep["input_n"] == 400 and rep["degenerate"] is False
            and rep["piece_count"] == len(rep["pieces"])
            and len(flat) == len(set(flat))
            and r.stdout.startswith(f"pieces={rep['piece_count']} ")):
        problems.append((r.job.name, "decomposition report is inconsistent"))
    return problems


# ------------------------------------------------------------- charging

# (name, pickets, comb shape); all families have m=40, as in the CLI tests
CHARGING_FAMILIES = (
    ("open2", 2, "nested"),
    ("open3", 3, "nested"),
    ("open4", 4, "nested"),
    ("hat3", 3, "hat"),
    ("closed6", 6, "closed"),
    ("distinct6", 6, "distinct"),
)


def _combs(instances, s, shape):
    """The two probe combs of a fence family with s pickets."""
    comb = instances.comb_subarc
    if shape == "distinct":
        return (comb(101, s, ("elbow",) * s, 0),
                comb(102, s, ("sh1e",) * s, 0))
    if shape == "hat":  # spot order flips on picket 2
        return (comb(101, s, tuple("el3" if k == 2 else "elbow"
                                   for k in range(s)), 0),
                comb(102, s, tuple("elbow" if k == 2 else "el2"
                                   for k in range(s)), 1))
    closed = shape == "closed"
    return (comb(101, s, ("elbow",) * s, 0, closed),
            comb(102, s, ("el2",) * s, 1, closed))


def _charging_build(api, seed):
    # the hand-built fences have no random part, so the seed is unused
    for name, s, shape in CHARGING_FAMILIES:
        curves = tuple(sa.geometry for sa in api.instances.fence_subarcs(s))
        curves += tuple(c.geometry for c in _combs(api.instances, s, shape))
        api.write_family(f"{name}.family", api.CurveFamily(curves, 40))


def _charging_jobs(seed):
    return [Job(f"prop9-{name}",
                ("verify-prop9", f"{name}.family",
                 "--report", f"{name}.prop9.json"),
                (f"{name}.prop9.json",))
            for name, _, _ in CHARGING_FAMILIES]


def _charging_check(res, seed):
    problems = []
    for name, s, shape in CHARGING_FAMILIES:
        r = res[f"prop9-{name}"]
        rep = json.loads(r.files[f"{name}.prop9.json"])
        if shape == "distinct":
            ok = rep["applicable"] and rep["distinct"] and not rep["charging"]
        else:
            entries = rep["charging"]
            ok = (rep["applicable"] and rep["colliding"] == [[101, 102]]
                  and len(entries) == 1 and "error" not in entries[0]
                  and entries[0]["real"] + entries[0]["imaginary"] == s
                  and entries[0]["imaginary"] <= 4
                  and len(entries[0]["charges"]) == s)
        if not ok:
            problems.append((r.job.name, "signature or charging verdict"))
    return problems


# ------------------------------------------------------------- contacts

# (family, generator, n); a timed `generate` writes each n=800 family again,
# and n=1600 shows the all-pairs growth of the engine
CONTACT_FAMILIES = (("ucg800", "UnitCirclesGrid", 800),
                    ("ucg1600", "UnitCirclesGrid", 1600),
                    ("rc800", "RandomCircles", 800))
GENERATED_N = 800
SMALL = "ucg36"     # dense enough that sampled ground pairs build arrangements


def _contacts_build(api, seed):
    for fam, kind, n in CONTACT_FAMILIES + ((SMALL, "UnitCirclesGrid", 36),):
        api.write_family(f"{fam}.family", api.generate(
            api.GeneratorSpec(kind=kind, n=n, m=1, seed=seed)))


def _sample_job(fam, trials, seed):
    return Job(f"sample-{fam}",
               ("sample-lemma", f"{fam}.family", "--trials", str(trials),
                "--seed", str(seed), "--report", f"{fam}.sample.json"),
               (f"{fam}.sample.json",), seeded=True)


def _contacts_jobs(seed):
    jobs = []
    for fam, kind, n in CONTACT_FAMILIES:
        seeded = kind == "RandomCircles"
        if n == GENERATED_N:
            jobs.append(Job(f"generate-{fam}",
                            ("generate", "--kind", kind, "--n", str(n),
                             "--seed", str(seed), "-o", f"gen-{fam}.family"),
                            (f"gen-{fam}.family",), seeded))
        jobs.append(Job(f"validate-{fam}", ("validate", f"{fam}.family"),
                        (), seeded))
        jobs.append(Job(f"analyze-{fam}",
                        ("analyze", f"{fam}.family", "--graphs", f"{fam}.edges"),
                        (f"{fam}.edges",), seeded))
        jobs.append(_sample_job(fam, 200, seed))
    jobs.append(_sample_job(SMALL, 2000, seed))
    return jobs


def _counts(line):
    """The key=value fields of an `analyze` output line."""
    return dict(tok.split("=", 1) for tok in line.split())


def _contacts_check(res, seed):
    problems = []
    for fam, _, n in CONTACT_FAMILIES:
        if res[f"validate-{fam}"].stdout != "ok\n":
            problems.append((f"validate-{fam}", "family not valid"))
        r = res[f"analyze-{fam}"]
        counts = _counts(r.stdout.splitlines()[0])
        edges = r.files[f"{fam}.edges"].decode().splitlines()
        if not (counts["n"] == str(n) and counts["m"] == "1"
                and len(edges) == int(counts["T"])
                and int(counts["T"]) <= int(counts["X"])):
            problems.append((r.job.name, "counts disagree with edges"))
        problems += _sample_problems(res[f"sample-{fam}"], n, 200, seed,
                                     counts)
        if n == GENERATED_N:
            r = res[f"generate-{fam}"]
            with open(f"{fam}.family", "rb") as fh:
                if r.files[f"gen-{fam}.family"] != fh.read():
                    problems.append((r.job.name,
                                     "CLI and library families differ"))
    problems += _sample_problems(res[f"sample-{SMALL}"], 36, 2000, seed, None)
    return problems


def _sample_problems(r, n, trials, seed, counts):
    rep = json.loads(r.files[r.job.outputs[0]])
    mc, rp = rep["monte_carlo"], rep["rich_poor"]
    ok = (rep["n"] == n and mc["trials"] == trials and mc["seed"] == seed
          and rp["T_poor"] + rp["T_rich"] == rep["T"]
          and 0 <= mc["t_star"]["min"] <= mc["t_star"]["max"])
    if counts is not None:  # same family as an analyze job
        ok = ok and (str(rep["T"]), str(rep["X"])) == (counts["T"],
                                                       counts["X"])
    return [] if ok else [(r.job.name, "sample report is inconsistent")]


WORKLOADS = {
    "sweep": Workload("sweep", _sweep_build, _sweep_jobs, _sweep_check),
    "charging": Workload("charging", _charging_build, _charging_jobs,
                         _charging_check),
    "contacts": Workload("contacts", _contacts_build, _contacts_jobs,
                         _contacts_check),
}


def digest_of(result: Result) -> Dict[str, str]:
    """SHA-256 of a job's stdout and of each file it wrote."""
    out = {"stdout": hashlib.sha256(result.stdout.encode()).hexdigest()}
    for name in result.job.outputs:
        out[name] = hashlib.sha256(result.files[name]).hexdigest()
    return out
