"""Show that every output check catches a wrong output.

    python3 bench/selftest.py [--seed N]

Runs one round of each workload, confirms that its outputs pass, then feeds
each check a copy of those outputs with one value corrupted and confirms
that the check fails.  Exits 0 when every corruption was caught.
"""

import argparse
import copy
import csv
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from checks import CheckFailed  # noqa: E402
from run import OUT, Harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _job(records, name):
    return next(i for i, r in enumerate(records) if r["job"] == name)


def edit_json(job, fn):
    """Corrupt the JSON output of one job through fn(doc)."""
    def corrupt(records, workdir):
        records = copy.copy(records)
        i = _job(records, job)
        rec = dict(records[i])
        doc = json.loads(Path(rec["outputs"]["json"]).read_text())
        fn(doc)
        path = workdir / ("%s.json" % job)
        path.write_text(json.dumps(doc))
        rec["outputs"] = {"json": path}
        records[i] = rec
        return records
    return corrupt


def edit_csv(job, fn):
    """Corrupt the CSV output of one job through fn(rows)."""
    def corrupt(records, workdir):
        records = copy.copy(records)
        i = _job(records, job)
        rec = dict(records[i])
        with open(rec["outputs"]["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        fn(rows)
        path = workdir / ("%s.csv" % job)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        rec["outputs"] = {"csv": path}
        records[i] = rec
        return records
    return corrupt


def edit_record(job, fn):
    """Corrupt the in-memory record of one job through fn(record)."""
    def corrupt(records, workdir):
        records = copy.copy(records)
        i = _job(records, job)
        rec = {k: (copy.deepcopy(v) if k in ("result", "trip") else v)
               for k, v in records[i].items()}
        fn(rec)
        records[i] = rec
        return records
    return corrupt


def _set(path, value):
    def fn(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return fn


def _set_row(index, column, value):
    def fn(rows):
        rows[index][column] = repr(value(float(rows[index][column])))
    return fn


def _bump_list(key, index, delta):
    def fn(rec):
        rec["result"][key][index] += delta
    return fn


def _swap_list(key, i, j):
    def fn(rec):
        vals = rec["result"][key]
        vals[i], vals[j] = vals[j], vals[i]
    return fn


def _flip_read(rec):
    trip = list(rec["trip"])
    trip[6] ^= 1
    rec["trip"] = tuple(trip)


def _wrong_string(rec):
    """Replace s by a string the program's F maps to the other bit."""
    from otmlab.hashfam import BinaryField, HashFunction
    trip = list(rec["trip"])
    F = HashFunction(BinaryField(8), trip[0])
    trip[2] = next(x for x in range(256) if F(x) != trip[4])
    rec["trip"] = tuple(trip)


def _wrong_snap(rec):
    spec = copy.copy(rec["spec"])
    if hasattr(spec, "covering_index"):
        spec.covering_index = lambda factors, method="snap": 0
    else:
        spec.covering_map = lambda outcome: type(outcome)(
            [type(layer)(layer.pairing, [np.zeros((4, 4))]) for layer in outcome.layers])
    rec["spec"] = spec


def _stderr(text):
    def fn(rec):
        rec["stderr"] = text
    return fn


def _exit(code):
    def fn(rec):
        rec["exit_code"] = code
    return fn


CORRUPTIONS = {
    "security-report": [
        ("direct_l1 differs", edit_json("report", _set(["direct_l1"], lambda v: v + 1e-6))),
        ("a row is missing", edit_json("report", _set(["outcomes"], lambda v: v[:-1]))),
        ("certified mass below 1", edit_json("report", _set(["certified_mass"], 0.999))),
        ("a row's entropy", edit_json("report", _set(["outcomes", 3, "entropy"], 11.0))),
        ("a Q value", edit_json("report", lambda d: _bump_q(d, "Q"))),
        ("an R value", edit_json("report", lambda d: _bump_q(d, "R"))),
        ("a joint entropy", edit_json("entropy-sweep", _set(
            ["instances", 7, "joint_entropy"], lambda v: v + 1e-9))),
        ("a certified value", edit_json("entropy-sweep", _set(
            ["instances", 11, "value"], lambda v: v + 1e-6))),
        ("a split rule", edit_json("entropy-sweep", _set(
            ["instances", 0, "rule"], "exhaustive-x0"))),
        ("an event probability", edit_json("entropy-sweep", _set(
            ["instances", 5, "event_probability"], 0.5))),
        ("a lost instance", edit_json("entropy-sweep", _set(["instances"], lambda v: v[1:]))),
    ],
    "hash-bias": [
        ("instance count", edit_record("hash-bias-tail", lambda r: r["result"].update(
            instances=5))),
        ("a frequency above its limit", edit_record(
            "hash-bias-tail", _bump_list("ucl", 0, -0.5))),
        ("frequencies rising in lambda", edit_record(
            "hash-bias-tail", _swap_list("exceed_q", 0, 2))),
        ("an exceedance above lambda 1", edit_record(
            "hash-bias-tail", _bump_list("exceed_r", -1, 0.001))),
        ("a union bound", edit_record("hash-bias-tail", _bump_list(
            "union_bound_theorem", 2, -1e-6))),
        ("a read-back bit", edit_record("round-trip", _flip_read)),
        ("a programmed string", edit_record("round-trip", _wrong_string)),
    ],
    "tails-mc": [
        ("a linear bound", edit_csv("linear", _set_row(4, "closed_form_bound",
                                                       lambda v: v * (1 + 1e-6)))),
        ("a quadratic bound", edit_csv("quadratic", _set_row(0, "closed_form_bound",
                                                             lambda v: v * (1 + 1e-6)))),
        ("a frequency above its limit", edit_csv("linear", _set_row(
            3, "upper_cl_99", lambda v: v / 2))),
        ("frequencies rising in lambda", edit_csv("linear", _set_row(
            5, "empirical_freq", lambda v: 0.5))),
        ("a limit above the bound", edit_csv("linear", _set_row(
            5, "closed_form_bound", lambda v: 1e-9))),
    ],
    "net-cover": [
        ("within_mu_fraction below 1", edit_json("separable", _set(
            ["within_mu_fraction"], 0.9998))),
        ("covering radius above mu", edit_json("two-local", _set(
            ["covering_radius_max"], 1.01))),
        ("log2 size above the bound", edit_json("separable", _set(
            ["log2_enumerated"], lambda v: v + 100))),
        ("a separable snap", edit_record("separable", _wrong_snap)),
        ("a two-local snap", edit_record("two-local", _wrong_snap)),
    ],
}

# Bad-input jobs are judged by exit status and stderr, not by a check:
# these corruptions must turn a passing job into a failed one.
FAILURE_CORRUPTIONS = {
    "tails-mc": [
        ("a bad input accepted with status 0", edit_record("odd-r", _exit(0))),
        ("a bad-input error that is not JSON", edit_record(
            "odd-r", _stderr("Traceback (most recent call last): ..."))),
    ],
    "security-report": [
        ("a job exiting 1", edit_record("report", _exit(1))),
    ],
}


def _bump_q(doc, key):
    row = doc["outcomes"][2]
    c = 0 if row["pr_c"][0] > 0.5 else 1
    row[key][c] += 1e-9


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    selftest_dir = OUT / "selftest"
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(args.seed, selftest_dir / name / "inputs")
        rdir = selftest_dir / name / "round"
        rdir.mkdir(parents=True, exist_ok=True)
        records = workload.run_round(Harness(), rdir)
        base_failed = workload.failures(records)
        workload.check(records, base_failed)
        print("%s: outputs pass, %d of %d jobs failed" % (name, len(base_failed), len(records)))
        for label, corrupt in CORRUPTIONS[name]:
            workdir = selftest_dir / name / "corrupt"
            workdir.mkdir(parents=True, exist_ok=True)
            bad = corrupt(records, workdir)
            try:
                workload.check(bad, workload.failures(bad))
            except CheckFailed as exc:
                print("  caught %-38s %s" % (label + ":", str(exc)[:90]))
                continue
            ok = False
            print("  MISSED %s" % label)
        for label, corrupt in FAILURE_CORRUPTIONS.get(name, []):
            bad = corrupt(records, selftest_dir)
            if len(workload.failures(bad)) > len(base_failed):
                print("  caught %-38s counted as failed" % (label + ":"))
            else:
                ok = False
                print("  MISSED %s" % label)
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
