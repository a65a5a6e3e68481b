"""The four benchmark workloads: inputs from a seed, one round of jobs, checks.

A round runs the same jobs in the same order every time.  Jobs go through
the `otmlab` CLI subcommands in this process (click's CliRunner), except
`hash_bias_tail` and the program/read round trips, which have no
subcommand and are called as library functions.  Each job returns a record;
after timing, `failures` decides which jobs failed and `check` verifies the
outputs of the others against `checks`, which never calls the program.
"""

import contextlib
import csv
import json
import math
from pathlib import Path

import numpy as np
from otmlab import hashfam, nets, otm
from otmlab.quantum import KrausLayer, TwoLocalOutcome

import checks
from checks import expect

# --- job parameters ----------------------------------------------------------

LEAK_CONFIG = {
    "model": {"name": "classical-leak", "ell": 8, "beta": 0.25},
    "params": {"k": 8, "ell": 8, "theta": 2, "delta0": 0.25, "alpha": 1.5,
               "eps0": 0.25, "gamma": 1, "m": 16},
}
REPORT_HASH_R = 4
REPORT_ROWS = 16
REPORT_ENTROPY = 12.0
SWEEP = {"count": 3000, "n0": 8, "n1": 8, "nz": 3, "eps": 0.0, "eps_prime": 0.25}

BIAS_ELL, BIAS_BETA, BIAS_R, BIAS_TRIALS = 8, 0.125, 8, 1000
BIAS_ALPHA_K, BIAS_ETA, BIAS_DELTA = 12.0, 2.0 ** -1.5, 0.25
BIAS_INSTANCES = 4
ROUND_TRIPS = 3000

LINEAR = {"ell": 10, "r": 8, "n": 1024, "trials": 100000,
          "lambda_grid": [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]}
QUADRATIC = {"kind": "quadratic", "ell": 6, "r": 8, "n": 32, "trials": 50000,
             "lambda_grid": [0.1, 0.3, 0.9], "mode": "hash"}
# Bad inputs are fixed: they must be rejected whatever the workload seed.
ODD_R_ARGS = ["--kind", "quadratic", "--ell", "6", "--r", "6", "--n", "32",
              "--trials", "50000", "--lambda-grid", "0.1,0.3,0.9",
              "--mode", "hash", "--seed", "11"]
NAN_ARGS = ["--kind", "linear", "--ell", "6", "--r", "4", "--n", "64",
            "--trials", "10000", "--lambda-grid", "nan,0.4", "--seed", "7"]
STRING_N_CONFIG = {"kind": "linear", "ell": 6, "r": 4, "n": "64", "trials": 10000,
                   "lambda_grid": [0.2, 0.4], "seed": 7}

SEPARABLE = {"m": 2, "mu": 0.8, "samples": 5000}
TWO_LOCAL = {"m": 2, "d": 1, "mu": 1.0, "samples": 2000}
SPOT_SAMPLES = 100

TOL = 1e-9


def job_seeds(seed, workload, count):
    """Independent nonnegative job seeds derived from the workload seed."""
    key = [seed] + [ord(ch) for ch in workload]
    return [int(s) for s in np.random.SeedSequence(key).generate_state(count)]


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _flags(cfg):
    out = []
    for key, value in cfg.items():
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def _json_error(stderr):
    """The JSON error object a rejected run printed on stderr, or None."""
    lines = [ln for ln in (stderr or "").splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "error" in doc else None


class Workload:
    name = None

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_round(self, h, rdir):
        raise NotImplementedError

    def failures(self, records):
        """Indices of the jobs that failed: a normal job that did not exit 0,
        or a bad-input job that was not rejected with status 2 and a JSON
        error object on stderr."""
        failed = set()
        for i, rec in enumerate(records):
            if rec.get("expect_reject"):
                ok = rec["exit_code"] == 2 and _json_error(rec["stderr"]) is not None
            else:
                ok = rec["exit_code"] == 0
            if not ok:
                failed.add(i)
        return failed

    def check(self, records, failed):
        """Raise CheckFailed if an output of a job that did not fail is wrong."""
        raise NotImplementedError


# --- security-report -------------------------------------------------------

class SecurityReport(Workload):
    name = "security-report"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.report_seed, self.sweep_seed = job_seeds(seed, self.name, 2)
        self.config = self.workdir / "leak.json"
        _write_json(self.config, LEAK_CONFIG)

    def run_round(self, h, rdir):
        return [
            h.cli("report", ["otm-security", "--config", str(self.config),
                             "--hash-r", str(REPORT_HASH_R), "--seed", str(self.report_seed),
                             "--output-dir", str(rdir), "--out", "report"],
                  outputs={"json": rdir / "report.json"}),
            h.cli("entropy-sweep", ["entropy"] + _flags(SWEEP) + [
                "--seed", str(self.sweep_seed), "--output-dir", str(rdir), "--out", "sweep"],
                  outputs={"json": rdir / "sweep.json"}),
        ]

    def check(self, records, failed):
        for i, rec in enumerate(records):
            if i in failed:
                continue
            doc = json.loads(Path(rec["outputs"]["json"]).read_text())
            if rec["job"] == "report":
                self.check_report(doc)
            else:
                self.check_sweep(doc)

    def check_report(self, doc):
        expect(checks.close(doc["aggregated_l1"], doc["direct_l1"], TOL),
               "aggregated_l1 %r differs from direct_l1 %r"
               % (doc["aggregated_l1"], doc["direct_l1"]))
        rows = doc["outcomes"]
        expect(len(rows) == REPORT_ROWS, "%d outcome rows, want %d" % (len(rows), REPORT_ROWS))
        expect(checks.close(doc["certified_mass"], 1.0, 1e-12),
               "certified mass %r is not 1" % doc["certified_mass"])
        for row in rows:
            expect(row["entropy"] == REPORT_ENTROPY,
                   "outcome %s entropy %r, want %r" % (row["outcome"], row["entropy"],
                                                      REPORT_ENTROPY))
        model = LEAK_CONFIG["model"]
        ell = model["ell"]
        positions = range(int(math.floor(model["beta"] * 2 * ell)))
        F, G = checks.hash8_coeffs_from_seed(self.report_seed, REPORT_HASH_R, 2)
        sign_f = np.array([1 - 2 * checks.hash8_bit(F, x) for x in range(1 << ell)])
        sign_g = np.array([1 - 2 * checks.hash8_bit(G, x) for x in range(1 << ell)])
        recomputed = 0
        for row in rows:
            pr = row["pr_c"]
            single = [c for c in (0, 1)
                      if checks.close(pr[c], 1.0, 1e-12) and pr[1 - c] == 0.0]
            if not single or abs(row["smoothing_deficit"]) > 1e-12:
                continue
            c = single[0]
            ok_s, ok_t = checks.leak_consistent(ell, positions, int(row["outcome"]))
            mean_f = sign_f[ok_s].mean()
            mean_g = sign_g[ok_t].mean()
            q = mean_f if c == 0 else mean_g
            expect(checks.close(row["Q"][c], q, 1e-12),
                   "outcome %s: Q_%d = %r, recomputed %r" % (row["outcome"], c, row["Q"][c], q))
            expect(checks.close(row["R"][c], mean_f * mean_g, 1e-12),
                   "outcome %s: R_%d = %r, recomputed %r"
                   % (row["outcome"], c, row["R"][c], mean_f * mean_g))
            recomputed += 1
        expect(recomputed > 0, "no outcome row could be recomputed")

    def check_sweep(self, doc):
        inst = doc["instances"]
        expect(len(inst) == SWEEP["count"], "%d sweep instances, want %d"
               % (len(inst), SWEEP["count"]))
        rng = np.random.default_rng(self.sweep_seed)
        nz, n0, n1 = SWEEP["nz"], SWEEP["n0"], SWEEP["n1"]
        eps_total = SWEEP["eps"] + SWEEP["eps_prime"]
        for rec in inst:
            table = rng.random((nz, n0, n1)) + 0.01
            table /= table.sum(axis=(1, 2), keepdims=True)
            pz = rng.random(nz) + 0.1
            pz /= pz.sum()
            i = rec["instance"]
            # at eps = 0 nothing is smoothed away
            joint = -math.log2(table.max())
            expect(checks.close(rec["joint_entropy"], joint, 1e-12),
                   "instance %d: joint entropy %r, want %r" % (i, rec["joint_entropy"], joint))
            alpha = rec["alpha"]
            expect(alpha == rec["joint_entropy"], "instance %d: alpha %r is not the joint"
                   " entropy" % (i, alpha))
            bound = alpha / 2.0 - 1.0 - math.log2(1.0 / SWEEP["eps_prime"])
            expect(checks.close(rec["bound"], bound, 1e-12),
                   "instance %d: bound %r, want %r" % (i, rec["bound"], bound))
            expect(rec["rule"] == "heaviness", "instance %d: rule %r" % (i, rec["rule"]))
            # C = 0 exactly where the realized x0 is heavy; the hidden string
            # is X1 under C = 0 and X0 under C = 1
            heavy = table.sum(axis=2) > 2.0 ** (-alpha / 2.0)           # (nz, n0)
            keep0 = np.where(heavy[:, :, None], table, 0.0)              # C = 0
            keep1 = table - keep0                                        # C = 1
            p_y, rows = [], []
            for z in range(nz):
                for part, hidden in ((keep0[z], keep0[z].sum(axis=0)),
                                     (keep1[z], keep1[z].sum(axis=1))):
                    mass = part.sum()
                    p_y.append(pz[z] * mass)
                    rows.append(hidden / mass if mass > 0 else np.zeros_like(hidden))
            p_y = np.array(p_y)
            thresh = 2.0 ** (-bound)
            removal = sum(py * np.clip(row - thresh, 0.0, None).sum()
                          for py, row in zip(p_y, rows))
            expect(removal <= eps_total + 1e-12,
                   "instance %d: hidden table needs %r smoothing, more than %r"
                   % (i, removal, eps_total))
            retained = min(max(row.max() for row in rows), thresh)
            value = -math.log2(retained) if 0 < retained < 1 else max(bound, 0.0)
            expect(checks.close(rec["value"], value, TOL),
                   "instance %d: certified value %r, want %r" % (i, rec["value"], value))
            expect(rec["value"] >= bound - TOL and rec["certified"] is True,
                   "instance %d: value %r under bound %r" % (i, rec["value"], bound))
            expect(checks.close(rec["event_probability"], 1.0 - removal, 1e-12),
                   "instance %d: event probability %r, want %r"
                   % (i, rec["event_probability"], 1.0 - removal))


# --- hash-bias -------------------------------------------------------------

class HashBias(Workload):
    name = "hash-bias"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tail_seed, self.trip_seed = job_seeds(seed, self.name, 2)
        self.model = otm.ClassicalLeakSim(BIAS_ELL, BIAS_BETA)
        self.device = otm.ClassicalLeakSim(BIAS_ELL, BIAS_BETA)

    def run_round(self, h, rdir):
        records = [h.call("hash-bias-tail", otm.hash_bias_tail, self.model, BIAS_DELTA,
                          BIAS_R, BIAS_TRIALS, np.random.default_rng(self.tail_seed),
                          BIAS_ALPHA_K, BIAS_ETA)]
        rng = np.random.default_rng(self.trip_seed)
        with h.span("bench.round-trips"):
            for _ in range(ROUND_TRIPS):
                rec = {"job": "round-trip", "exit_code": 0}
                try:
                    F = hashfam.sample_hash(BIAS_ELL, BIAS_R, rng)
                    G = hashfam.sample_hash(BIAS_ELL, BIAS_R, rng)
                    dev = otm.IdealBitOtm(F, G, self.device)
                    a0, a1 = (int(b) for b in rng.integers(0, 2, size=2))
                    otm.program_ideal(dev, a0, a1, rng)
                    rec["trip"] = (F.coefficients, G.coefficients, dev.s, dev.t, a0, a1,
                                   dev.read_bit(0), dev.read_bit(1))
                except ValueError as exc:
                    rec.update(exit_code=1, error=repr(exc))
                records.append(rec)
        return records

    def check(self, records, failed):
        for i, rec in enumerate(records):
            if i in failed:
                continue
            if rec["job"] == "hash-bias-tail":
                self.check_tail(rec["result"])
            else:
                self.check_trip(rec["trip"])

    def expected_instances(self):
        """Per-instance norms of the linear and bilinear forms, from the model.

        Every outcome's posterior is uniform on the consistent (s, t); no x0
        clears the heaviness level 2^{-alpha k / 2}, so C hides s, and the
        hidden masses sit below 2^{-bound}, so the event keeps everything.
        """
        ell = BIAS_ELL
        positions = range(int(math.floor(BIAS_BETA * 2 * ell)))
        out = []
        for outcome in range(1 << len(positions)):
            ok_s, ok_t = checks.leak_consistent(ell, positions, outcome)
            P = np.outer(ok_s, ok_t) / (ok_s.sum() * ok_t.sum())
            marg_s = P.sum(axis=1)
            expect((marg_s <= 2.0 ** (-BIAS_ALPHA_K / 2.0)).all(), "an s is heavy")
            bound = BIAS_ALPHA_K / 2.0 - 1.0 - math.log2(1.0 / BIAS_ETA)
            expect(marg_s.max() <= 2.0 ** (-bound), "the hidden s needs smoothing")
            out.append({"v": float((marg_s ** 2).sum()),
                        "frob_half": math.sqrt(float((P ** 2).sum()) / 2.0),
                        "op_half": checks.opnorm(P) / 2.0,
                        "collision_log2": math.log2(marg_s.max())})
        return out

    def check_tail(self, res):
        expect(res["instances"] == BIAS_INSTANCES,
               "%d instances, want %d" % (res["instances"], BIAS_INSTANCES))
        inst = self.expected_instances()
        expect(len(inst) == res["instances"], "model has %d instances" % len(inst))
        coll_log2 = max(x["collision_log2"] for x in inst)
        expect(checks.close(res["collision_log2"], coll_log2, 1e-12),
               "collision_log2 %r, want %r" % (res["collision_log2"], coll_log2))
        lambdas = [float(v) for v in res["lambdas"]]
        expect(lambdas == sorted(lambdas), "lambda grid is not ascending")
        for key in ("exceed", "exceed_q", "exceed_r"):
            ucl = res["ucl" + key[len("exceed"):]]
            for lam, f, u in zip(lambdas, res[key], ucl):
                checks.check_upper_limit(f, res["trials"], u, "%s at %g" % (key, lam))
                if lam > 1.0:
                    expect(f == 0.0, "%s at lambda %g is %r; |Q|, |R| <= 1" % (key, lam, f))
            checks.check_non_increasing(list(res[key]), key)
        for j, lam in enumerate(lambdas):
            sharp = sum(checks.kite(BIAS_R, x["v"], lam)
                        + checks.crayfish(BIAS_R // 2, x["frob_half"], x["op_half"], lam)
                        for x in inst)
            theorem = len(inst) * (checks.kite(BIAS_R, 2.0 ** coll_log2, lam)
                                   + checks.r_tail(BIAS_R, 2.0 ** coll_log2, lam))
            for name, want in (("union_bound_sharp", sharp), ("union_bound_theorem", theorem)):
                want = min(1.0, float(want))
                got = res[name][j]
                expect(checks.rel_close(got, want, 1e-9),
                       "%s at %g is %r, recomputed %r" % (name, lam, got, want))
                expect(res["exceed"][j] <= got,
                       "exceedance %r above %s %r at %g" % (res["exceed"][j], name, got, lam))

    def check_trip(self, trip):
        F, G, s, t, a0, a1, read0, read1 = trip
        expect((read0, read1) == (a0, a1), "stored (%d, %d), read back (%d, %d)"
               % (a0, a1, read0, read1))
        expect(checks.hash8_bit(F, s) == a0 and checks.hash8_bit(G, t) == a1,
               "programmed strings do not hash to the stored bits")


# --- tails-mc --------------------------------------------------------------

class TailsMc(Workload):
    name = "tails-mc"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.linear_seed, self.quad_seed = job_seeds(seed, self.name, 2)
        self.quad_config = self.workdir / "quadratic.json"
        _write_json(self.quad_config, dict(QUADRATIC, seed=self.quad_seed))
        self.string_n_config = self.workdir / "string_n.json"
        _write_json(self.string_n_config, STRING_N_CONFIG)

    def run_round(self, h, rdir):
        out = ["--output-dir", str(rdir)]
        return [
            h.cli("linear", ["tails", "--kind", "linear"] + _flags(LINEAR)
                  + ["--seed", str(self.linear_seed), "--out", "linear"] + out,
                  outputs={"csv": rdir / "linear.csv"}),
            h.cli("quadratic", ["tails", "--config", str(self.quad_config),
                                "--out", "quadratic"] + out,
                  outputs={"csv": rdir / "quadratic.csv"}),
            h.cli("odd-r", ["tails"] + ODD_R_ARGS + ["--out", "odd_r"] + out,
                  expect_reject=True),
            h.cli("nan-threshold", ["tails"] + NAN_ARGS + ["--out", "nan"] + out,
                  expect_reject=True),
            h.cli("string-n", ["tails", "--config", str(self.string_n_config),
                               "--out", "string_n"] + out, expect_reject=True),
        ]

    def check(self, records, failed):
        for i, rec in enumerate(records):
            if i in failed:
                continue
            if rec["job"] == "linear":
                # the CLI scales the weights to unit norm, so v = 1
                self.check_csv(rec, LINEAR, "kite", LINEAR["r"],
                               lambda lam: checks.kite(LINEAR["r"], 1.0, lam))
            elif rec["job"] == "quadratic":
                frob, op = self.quadratic_norms()
                t = QUADRATIC["r"] // 2
                self.check_csv(rec, QUADRATIC, "crayfish", t,
                               lambda lam: checks.crayfish(t, frob, op, lam))
            else:
                err = _json_error(rec["stderr"])
                expect(err.get("error") == "validation" and err.get("message"),
                       "%s: error object %r" % (rec["job"], err))

    def quadratic_norms(self):
        """Norms of |A| for the quadratic instance, regenerated from its seed."""
        rng = np.random.default_rng(self.quad_seed)
        n = QUADRATIC["n"]
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        a /= math.sqrt(float((a ** 2).sum()))
        abs_a = np.abs(a)
        return math.sqrt(float((abs_a ** 2).sum())), float(np.abs(np.linalg.eigvalsh(abs_a)).max())

    def check_csv(self, rec, cfg, bound_name, t, formula):
        with open(rec["outputs"]["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        lambdas = [float(r["lambda"]) for r in rows]
        expect(lambdas == sorted(cfg["lambda_grid"]), "%s: lambda column %r"
               % (rec["job"], lambdas))
        freqs = [float(r["empirical_freq"]) for r in rows]
        checks.check_non_increasing(freqs, rec["job"] + " frequency")
        for lam, row in zip(lambdas, rows):
            what = "%s at %g" % (rec["job"], lam)
            expect(row["bound_name"] == bound_name and int(row["t"]) == t
                   and int(row["trials"]) == cfg["trials"], "%s: row %r" % (what, row))
            ucl = float(row["upper_cl_99"])
            checks.check_upper_limit(float(row["empirical_freq"]), cfg["trials"], ucl, what)
            bound = float(row["closed_form_bound"])
            want = float(formula(lam))
            expect(checks.rel_close(bound, want, 1e-9),
                   "%s: bound %r, recomputed %r" % (what, bound, want))
            if bound < 1.0:
                expect(ucl <= bound, "%s: 99%% limit %r above bound %r" % (what, ucl, bound))


# --- net-cover -------------------------------------------------------------

class NetCover(Workload):
    name = "net-cover"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sep_seed, self.two_seed, self.spot_seed = job_seeds(seed, self.name, 3)
        self.latest = []

    def run_round(self, h, rdir):
        # Only the latest round keeps its nets, so memory does not grow
        # with the number of rounds; the spot checks use those nets.
        for rec in self.latest:
            rec["spec"] = None
        with _capture_nets() as specs:
            records = [
                h.cli("separable", ["nets", "--family", "separable"] + _flags(SEPARABLE)
                      + ["--seed", str(self.sep_seed), "--output-dir", str(rdir),
                         "--out", "separable"], outputs={"json": rdir / "separable.json"}),
                h.cli("two-local", ["nets", "--family", "two-local"] + _flags(TWO_LOCAL)
                      + ["--seed", str(self.two_seed), "--output-dir", str(rdir),
                         "--out", "two_local"], outputs={"json": rdir / "two_local.json"}),
            ]
        for rec in records:
            rec["spec"] = specs.get(rec["job"])
        self.latest = records
        return records

    def check(self, records, failed):
        rng = np.random.default_rng(self.spot_seed)
        for i, rec in enumerate(records):
            if i in failed:
                continue
            doc = json.loads(Path(rec["outputs"]["json"]).read_text())
            cfg = SEPARABLE if rec["job"] == "separable" else TWO_LOCAL
            mu, m = cfg["mu"], cfg["m"]
            expect(doc["within_mu_fraction"] == 1.0,
                   "%s: within_mu_fraction %r" % (rec["job"], doc["within_mu_fraction"]))
            expect(doc["covering_radius_max"] <= mu + 1e-12,
                   "%s: covering radius %r above mu %r" % (rec["job"], doc["covering_radius_max"], mu))
            if rec["job"] == "separable":
                bound = 4.0 * m * math.log2(9.0 * m / mu)
            else:
                d = cfg["d"]
                bound = 16.0 * m * d * math.log2(24.0 * d * m ** (17.0 / 16.0) / mu)
            expect(doc["log2_enumerated"] <= bound,
                   "%s: log2 size %r above the closed-form %r"
                   % (rec["job"], doc["log2_enumerated"], bound))
            spec = rec["spec"]
            if spec is None:
                expect(all(rec is not r for r in self.latest),
                       "%s: no net was built" % rec["job"])
                continue
            # documented per-factor radii: 4 delta with delta = mu/(4m) for a
            # qubit factor, 8 delta with delta = mu/(8dm) for a Kraus factor
            radius = mu / m if rec["job"] == "separable" else mu / (m * cfg["d"])
            spot = self.spot_separable if rec["job"] == "separable" else self.spot_two_local
            for _ in range(SPOT_SAMPLES):
                factor_dists, dist = spot(spec, m, rng)
                expect(max(factor_dists) <= radius + 1e-12,
                       "%s: a factor snapped %r away, radius %r"
                       % (rec["job"], max(factor_dists), radius))
                expect(dist <= mu + 1e-12, "%s: spot sample %r from its net member, mu %r"
                       % (rec["job"], dist, mu))

    @staticmethod
    def spot_separable(spec, m, rng):
        factors = [checks.random_effect(rng) for _ in range(m)]
        snapped = [s.matrix for s in spec.factors_at(spec.covering_index(factors))]
        target, near = factors[0], snapped[0]
        for f, s in zip(factors[1:], snapped[1:]):
            target, near = np.kron(target, f), np.kron(near, s)
        return ([checks.opnorm(f - s) for f, s in zip(factors, snapped)],
                checks.opnorm(target - near))

    @staticmethod
    def spot_two_local(spec, m, rng):
        expect(m == 2 and spec.d == 1, "spot check assembles m=2, d=1 only")
        k = checks.random_contraction(rng)
        snapped = spec.covering_map(TwoLocalOutcome([KrausLayer([(0, 1)], [k])]))
        kn = snapped.layers[0].factors[0]
        return [checks.opnorm(k - kn)], checks.opnorm(k.conj().T @ k - kn.conj().T @ kn)


@contextlib.contextmanager
def _capture_nets():
    """Keep the net specs the CLI builds, for the spot checks after timing."""
    specs = {}
    originals = {"separable": nets.separable_net, "two-local": nets.two_local_net}

    def keep(job, fn):
        def build(*args, **kwargs):
            specs[job] = spec = fn(*args, **kwargs)
            return spec
        return build

    nets.separable_net = keep("separable", originals["separable"])
    nets.two_local_net = keep("two-local", originals["two-local"])
    try:
        yield specs
    finally:
        nets.separable_net = originals["separable"]
        nets.two_local_net = originals["two-local"]


WORKLOADS = {w.name: w for w in (SecurityReport, HashBias, TailsMc, NetCover)}
