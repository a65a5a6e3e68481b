r"""Batch experiment runner emitting CSV/JSON artifacts with manifests.

The runner performs no mathematics of its own: every emitted number is
produced by an operation of the computational modules (hashfam, tails,
nets, entropy, otm).  Each subcommand declares its parameters once, in one
table of (key, check, required, help) rows, and the table drives the whole
run: its flags, its config keys and the check of every value.  A run reads
one declarative configuration -- a JSON or YAML file, command-line flags,
or a mix where every parameter comes from exactly one source (the same key
given in both places is an error, never a silent override) -- and writes
CSV/JSON data files plus a manifest recording the configuration hash,
library versions, runtime and per-file checksums.  The wall-clock
timestamp lives only in the manifest, so rerunning an experiment with the
same configuration and seed produces byte-identical data files.

A flag value and a config value take the same check and give the same
error, before the output directory is made and before any random draw.
Validation failures, flag-parse errors and ValueErrors of the computation
included, print a machine-readable JSON error object to stderr and exit
with status 2.  The default output directory is the current directory,
overridden by the OTMLAB_OUTPUT_DIR environment variable, overridden by
--output-dir.
"""

import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import entropy as entropy_mod
from . import nets as nets_mod
from . import otm as otm_mod
from . import tails as tails_mod
from .hashfam import family, sample_hash

ENV_OUTPUT_DIR = "OTMLAB_OUTPUT_DIR"

TAIL_CSV_COLUMNS = ["lambda", "empirical_freq", "upper_cl_99", "closed_form_bound",
                    "bound_name", "t", "trials", "seed"]

NET_CSV_COLUMNS = ["m", "d", "mu", "delta", "log2_bound", "log2_enumerated",
                   "covering_radius_p99", "samples", "seed"]

ENTROPY_CSV_COLUMNS = ["instance", "joint_entropy", "alpha", "bound", "value",
                       "rule", "event_probability", "certified"]

SECURITY_CSV_COLUMNS = ["outcome", "probability", "entropy", "pr_c0", "pr_c1",
                        "Q0", "Q1", "R0", "R1", "l1_c0", "l1_c1", "l1_weighted",
                        "smoothing_deficit", "flags"]

THEOREM_CSV_COLUMNS = ["k", "ell", "theta", "delta0", "alpha", "eps0", "gamma",
                       "m", "phi", "d", "depth_mode", "r", "delta_term",
                       "eps_term", "eta_term", "tail_term", "total",
                       "total_log2", "net_log2", "envelope_log2",
                       "envelope_holds"]


def _fail(message):
    """Print a machine-readable validation error and exit nonzero."""
    click.echo(json.dumps({"error": "validation", "message": message}, sort_keys=True), err=True)
    sys.exit(2)


def _load_config(path):
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail("cannot read config file: %s" % exc)
    suffix = Path(path).suffix.lower()
    try:
        if suffix in (".yaml", ".yml"):
            import yaml
            doc = yaml.safe_load(text)
        else:
            doc = json.loads(text)
    except Exception as exc:
        _fail("cannot parse config file %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        _fail("config file %s must hold a single mapping" % path)
    return doc


def _outdir(flag):
    """The output directory, made if missing, and the directories this call
    made, deepest first."""
    path = Path(flag or os.environ.get(ENV_OUTPUT_DIR) or ".")
    made = [p for p in (path, *path.parents) if not p.exists()]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail("cannot create output directory %s: %s" % (path, exc))
    return path, made


def _versions():
    import importlib.metadata
    import mpmath
    import scipy
    return {
        "python": sys.version.split()[0],
        "otmlab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "click": importlib.metadata.version("click"),
    }


def _json(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def write_csv(path, columns, rows):
    """Write a header of `columns`, then one line per row, a sequence of cells
    in column order; the csv module writes None as an empty cell and any
    other value as its str()."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _cells(values):
    """The CSV cells of a row or a column of values, with every float written
    as "%.17g" (exact round trip)."""
    return ["%.17g" % v if isinstance(v, float) else v for v in values]


class _Check:
    """The rule a parameter value must meet, whichever source it comes from.

    `accept(value)` returns the value to run with, or None to refuse it.
    Flag text is first read by `parse` into the value a config file would
    hold; text it cannot read stays text, for `accept` to refuse, so a bad
    value gets the same error from a flag as from a config file.
    """

    def __init__(self, rule, accept, metavar, parse=str):
        self.rule, self.accept, self.metavar, self.parse = rule, accept, metavar, parse

    def flag(self, text):
        try:
            return self.parse(text)
        except ValueError:
            return text

    def __call__(self, key, value):
        accepted = self.accept(value)
        if accepted is None:
            raise ValueError("parameter %r must be %s, got %r" % (key, self.rule, value))
        return accepted


def _int_text(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _grid(value):
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    try:
        grid = [float(v) for v in value]
    except (TypeError, ValueError, OverflowError):
        return None
    return grid if all(math.isfinite(x) and x >= 0 for x in grid) else None


def _choice(*options):
    return _Check("one of " + ", ".join(options), lambda v: v if v in options else None,
                  "[%s]" % "|".join(options))


# type(v) is int refuses bools, which are ints to isinstance; the float range
# check also refuses nan, inf and ints too large for a float
_POSITIVE = _Check("a positive integer", lambda v: v if type(v) is int and v >= 1 else None,
                   "INTEGER", _int_text)
_SEED = _Check("a nonnegative integer", lambda v: v if type(v) is int and v >= 0 else None,
               "INTEGER", _int_text)
_FINITE = _Check("a finite number", lambda v: v if type(v) in (int, float)
                 and abs(v) <= sys.float_info.max else None, "FLOAT", float)
_GRID = _Check("a list of finite nonnegative numbers", _grid, "TEXT")


def _reduction_params(key, block):
    if not isinstance(block, dict):
        raise ValueError("params must be a mapping of reduction parameters")
    try:
        return otm_mod.ReductionParams(**block)
    except TypeError as exc:
        raise ValueError("bad reduction parameter: %s" % exc) from None


def _points(key, points):
    if not isinstance(points, list) or not points:
        raise ValueError("points must be a nonempty list of parameter mappings")
    return [_reduction_params(key, block) for block in points]


def _model(key, block):
    if not isinstance(block, dict) or "name" not in block:
        raise ValueError("model must be a mapping with a 'name' field")
    name = block["name"]
    if name not in ("classical-leak", "wiesner"):
        raise ValueError("unknown model name %r (expected classical-leak or wiesner)" % (name,))
    fields = {"ell", "beta", "positions"} if name == "classical-leak" else {"m"}
    unknown = sorted(set(block) - fields - {"name"})
    if unknown:
        raise ValueError("unknown model parameters: %s" % ", ".join(unknown))
    try:
        if name == "wiesner":
            return otm_mod.WiesnerToyOtm(block.get("m"))
        return otm_mod.ClassicalLeakSim(block.get("ell"), block.get("beta"), block.get("positions"))
    except TypeError as exc:
        raise ValueError(str(exc)) from None


# One parameter: its config key (its flag is --key, "_" written "-"), its check,
# whether it is required, and its help text.  A check that is no _Check has no flag.
_Param = namedtuple("_Param", "key check required help", defaults=(None,))


class _Command(click.Command):
    """A subcommand whose flag-parse errors print the JSON error object."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _fail(exc.format_message())


@click.group()
def main():
    """Desk-scale experiment runner; see each subcommand's --help."""


def _command(name, table, columns, rules=lambda values: None):
    """Register subcommand `name` with the parameters of `table` around a body
    that takes the checked values as keywords and returns its CSV rows, its
    JSON text (or None) and its manifest counters (or None).  The values and
    then `rules(values)` are checked before the output directory is made; a
    ValueError from any of them, or from the body, becomes the JSON error,
    and the directories the run made are removed again while empty."""
    def register(body):
        def run(config_path, output_dir, out, **flags):
            started = time.time()
            cfg = _load_config(config_path)
            for key, value in flags.items():
                if value is not None:
                    if key in cfg:
                        _fail("parameter %r is set in both the config file and a flag; "
                              "pick one source" % key)
                    cfg[key] = value
            for p in table:
                if p.required and cfg.get(p.key) is None:
                    _fail("missing required parameter %r" % p.key)
            unknown = sorted(set(cfg) - {p.key for p in table})
            if unknown:
                _fail("unknown parameters: %s" % ", ".join(unknown))
            made = []
            try:
                values = {p.key: p.check(p.key, cfg[p.key])
                          for p in table if cfg.get(p.key) is not None}
                rules(values)
                outdir, made = _outdir(output_dir)
                rows, text, counters = body(**values)
            except ValueError as exc:
                for path in made:
                    try:
                        path.rmdir()
                    except OSError:  # no longer empty
                        break
                _fail(str(exc))
            prefix = out or name.replace("-", "_")
            outputs = [outdir / ("%s.csv" % prefix)]
            write_csv(outputs[0], columns, rows)
            if text is not None:
                outputs.append(outdir / ("%s.json" % prefix))
                outputs[1].write_text(text + "\n")
            manifest = {
                "experiment": name,
                "config": cfg,
                "config_sha256": hashlib.sha256(json.dumps(
                    cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest(),
                "versions": _versions(),
                "runtime_seconds": round(time.time() - started, 3),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "outputs": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in outputs},
            }
            if counters is not None:
                manifest["counters"] = counters
            outputs.append(outdir / ("%s_manifest.json" % prefix))
            outputs[-1].write_text(_json(manifest) + "\n")
            for path in outputs:
                click.echo(str(path))

        params = [
            click.Option(["--config", "config_path"], type=click.Path(),
                         help="JSON or YAML config file."),
            click.Option(["--output-dir"],
                         help="Output directory (default: $%s or cwd)." % ENV_OUTPUT_DIR),
            click.Option(["--out"], help="Artifact name prefix."),
        ] + [click.Option(["--" + p.key.replace("_", "-")], type=p.check.flag,
                          metavar=p.check.metavar, help=p.help)
             for p in table if isinstance(p.check, _Check)]
        command = _Command(name, callback=run, params=params, help=body.__doc__)
        main.add_command(command)
        return command
    return register


def _tails_rules(v):
    if v["kind"] == "quadratic" and v["n"] < 2:
        raise ValueError("parameter 'n' must be >= 2 for the quadratic kind (a 1x1 zero-diagonal "
                         "matrix cannot be normalized), got %d" % v["n"])
    mode = v.get("mode", "hash") if v["kind"] == "quadratic" else "hash"
    tails_mod._check_run(v["ell"], v["r"], v["n"], v["trials"], mode)
    # the order the closed-form bound takes: t = r, or r/2 for the chaos
    tails_mod._check_t(v["r"] if v["kind"] == "linear" else v["r"] // 2)


@_command("tails", [
    _Param("kind", _choice("linear", "quadratic"), True),
    _Param("ell", _POSITIVE, True),
    _Param("r", _POSITIVE, True),
    _Param("n", _POSITIVE, True),
    _Param("trials", _POSITIVE, True),
    _Param("lambda_grid", _GRID, True, "Comma-separated thresholds; 0 rows report frequency 1."),
    _Param("mode", _choice("hash", "rademacher"), False, "Sign source for quadratic instances."),
    _Param("seed", _SEED, True),
], TAIL_CSV_COLUMNS, _tails_rules)
def tails(kind, ell, r, n, trials, lambda_grid, seed, mode="hash"):
    """Monte Carlo tail frequencies against the closed-form bounds."""
    rng = np.random.default_rng(seed)  # _tails_rules refused what the bounds or the run would
    if kind == "linear":
        weights = rng.normal(size=n)
        inst = tails_mod.LinearInstance(weights / np.linalg.norm(weights))
        bound_name, t = "kite", r
        bounds = [tails_mod.kite_bound(r, inst.v, lam) for lam in lambda_grid]
        result = tails_mod.empirical_tail_linear(inst, ell, r, lambda_grid, trials, rng)
    else:
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        a /= np.linalg.norm(a)
        inst = tails_mod.QuadraticInstance(a)
        bound_name, t = "crayfish", r // 2
        bounds = [tails_mod.crayfish_bound(t, inst.abs_frobenius, inst.abs_operator, lam)
                  for lam in lambda_grid]
        result = tails_mod.empirical_tail_quadratic(inst, ell, r, lambda_grid, trials, rng,
                                                    mode=mode)
    fixed = {"bound_name": bound_name, "t": t, "trials": trials, "seed": seed}
    per_lambda = zip(result["lambdas"], result["freqs"], result["upper_cl_99"], bounds)
    return [_cells({"lambda": lam, "empirical_freq": freq, "upper_cl_99": ucl,
                    "closed_form_bound": bound, **fixed}[k] for k in TAIL_CSV_COLUMNS)
            for lam, freq, ucl, bound in per_lambda], None, None


def _nets_rules(v):
    if v["family"] == "separable" and "d" in v:
        raise ValueError("d applies only to the two-local family")
    if v["family"] == "two-local" and "d" not in v:
        raise ValueError("the two-local family requires d")


@_command("nets", [
    _Param("family", _choice("separable", "two-local"), True),
    _Param("m", _POSITIVE, True),
    _Param("mu", _FINITE, True),
    _Param("d", _POSITIVE, False, "Circuit depth (two-local only)."),
    _Param("samples", _POSITIVE, True),
    _Param("seed", _SEED, True),
], NET_CSV_COLUMNS, _nets_rules)
def nets(family, m, mu, samples, seed, d=None):
    """Covering-radius sampling and cardinality accounting for the nets."""
    rng = np.random.default_rng(seed)
    separable = family == "separable"  # _nets_rules: d is None exactly then
    spec = nets_mod.separable_net(m, mu) if separable else nets_mod.two_local_net(m, d, mu)
    bounds = nets_mod.cardinality_bounds(m, mu, d=d)
    log2_bound = bounds["separable_log2" if separable else "two_local_log2"]
    dists = spec.covering_distances(samples, rng)
    p99 = float(np.quantile(dists, 0.99))
    counters = {"samples": samples}
    if separable:
        grid, members = len(spec.qubit_net.grid_params), len(spec.qubit_net)
        counters.update(grid_points=grid, members=members, dedup_ratio=members / grid)
    row = {"m": m, "d": d, "mu": mu, "delta": spec.delta,
           "log2_bound": log2_bound, "log2_enumerated": spec.log2_size,
           "covering_radius_p99": p99, "samples": samples, "seed": seed}
    return [_cells(row[k] for k in NET_CSV_COLUMNS)], _json({
        "family": family,
        "cardinality_bounds": bounds,
        "log2_enumerated": spec.log2_size,
        "covering_radius_max": float(dists.max()),
        "covering_radius_p99": p99,
        "within_mu_fraction": float((dists <= mu + 1e-12).mean()),
    }), counters


def _random_joints(rng, k, nz, n0, n1):
    """k random joints P(x0, x1 | z) and their P(z), drawn one joint (table,
    then P(z)) after another from one stream, as k single draws would be."""
    cells = nz * n0 * n1
    draws = rng.random((k, cells + nz))
    tables = draws[:, :cells].reshape(k, nz, n0, n1) + 0.01
    tables /= tables.sum(axis=(2, 3), keepdims=True)
    pz = draws[:, cells:] + 0.1
    pz /= pz.sum(axis=1, keepdims=True)
    return tables, pz


def _entropy_rules(v):
    eps, eps_prime = v["eps"], v["eps_prime"]
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps=%r outside [0, 1)" % (eps,))
    if not 0.0 < eps_prime < 1.0:
        raise ValueError("eps_prime=%r outside (0, 1)" % (eps_prime,))
    if eps + eps_prime >= 1.0:
        raise ValueError("eps + eps_prime = %r leaves no probability to keep" % (eps + eps_prime,))


@_command("entropy", [
    _Param("count", _POSITIVE, True, "Random instances to draw."),
    _Param("n0", _POSITIVE, True),
    _Param("n1", _POSITIVE, True),
    _Param("nz", _POSITIVE, True),
    _Param("eps", _FINITE, True),
    _Param("eps_prime", _FINITE, True),
    _Param("alpha", _FINITE, False, "Joint level; defaults to each instance's smoothed entropy."),
    _Param("seed", _SEED, True),
], ENTROPY_CSV_COLUMNS, _entropy_rules)
def entropy(count, n0, n1, nz, eps, eps_prime, seed, alpha=None):
    """Smoothed min-entropy and splitting certificates on random joints."""
    rng = np.random.default_rng(seed)
    chunk = max(1, entropy_mod.STACK_CELLS // (nz * n0 * n1))
    split = {key: [] for key in ("joint_entropy", "bound", "value", "rule", "event_probability")}
    fallback = 0
    for start in range(0, count, chunk):
        tables, pz = _random_joints(rng, min(chunk, count - start), nz, n0, n1)
        res = entropy_mod.split_joints(tables, pz, alpha, eps, eps_prime)
        fallback += res["fallback_candidates"]
        for key, values in split.items():
            values += res[key].tolist()
    joint, bound, value, rule, pr_event = split.values()
    certified = [v >= b - entropy_mod.CERT_TOL for v, b in zip(value, bound)]
    columns = dict(zip(ENTROPY_CSV_COLUMNS, (range(count), joint, [alpha] * count, bound, value,
                                             rule, pr_event, certified)))
    if alpha is None:
        columns["alpha"] = joint
    keys = sorted(columns)  # inserted in this order, sort_keys finds each record sorted
    records = [dict(zip(keys, row)) for row in zip(*(columns[k] for k in keys))]
    counters = {"instances": count, "rules": dict(Counter(rule)),
                "fallback_candidates": fallback, "certified": sum(certified)}
    # the CSV cells column by column: one "%.17g" list per float column
    cells = {k: ["%.17g" % v for v in columns[k]]
             for k in ("joint_entropy", "bound", "value", "event_probability")}
    cells["alpha"] = cells["joint_entropy"] if alpha is None else _cells([alpha]) * count
    rows = zip(*(cells.get(k, columns[k]) for k in ENTROPY_CSV_COLUMNS))
    return rows, _json({"instances": records}), counters


def _security_rules(v):
    ell = v["model"].ell
    if v["params"].ell != ell:
        raise ValueError("params ell=%d does not match the model's ell=%d" % (v["params"].ell, ell))
    family(ell, v["hash_r"])
    otm_mod._check_delta(v["params"].delta if v.get("delta") is None else v["delta"])


@_command("otm-security", [
    _Param("model", _model, True),
    _Param("params", _reduction_params, True),
    _Param("hash_r", _POSITIVE, True, "Independence order of the sampled F, G."),
    _Param("delta", _FINITE, False, "Outcome-negligibility level; defaults to params delta."),
    _Param("seed", _SEED, True),
], SECURITY_CSV_COLUMNS, _security_rules)
def otm_security(model, params, hash_r, seed, delta=None):
    """Evaluate the per-outcome security report for one model + parameters."""
    rng = np.random.default_rng(seed)
    F = sample_hash(model.ell, hash_r, rng)
    G = sample_hash(model.ell, hash_r, rng)
    report = otm_mod.evaluate_security(otm_mod.IdealBitOtm(F, G, model),
                                       params.delta if delta is None else delta, params)
    rows = []
    for row in report.rows:
        # the per-outcome cells keep Python's str() form of each float
        cells = dict(row, flags=";".join(row["flags"]))
        for key, column in (("pr_c", "pr_c"), ("Q", "Q"), ("R", "R"), ("l1", "l1_c")):
            cells[column + "0"], cells[column + "1"] = row[key]
        rows.append([cells[k] for k in SECURITY_CSV_COLUMNS])
    return rows, report.to_json(), None


@_command("theorem-bounds", [_Param("points", _points, True)], THEOREM_CSV_COLUMNS)
def theorem_bounds(points):
    """Evaluate the security-bound term table at configured parameter points."""
    rows, records = [], []
    for params in points:
        result = otm_mod.theorem_bound(params)
        records.append({"params": params.as_dict(), "bound": result})
        values = params.as_dict() | result | result["terms"]
        rows.append(_cells(values[k] for k in THEOREM_CSV_COLUMNS))
    return rows, _json({"points": records}), None


@main.command("verify-all")
@click.option("--suite", default=None,
              help="Path to the acceptance test file (default: autodetect).")
def verify_all(suite):
    """Run the acceptance suite; exits with pytest's status."""
    if importlib.util.find_spec("pytest") is None:
        _fail("verify-all needs pytest, which is not installed (pip install otmlab[test])")
    if suite is None:
        candidates = [root / "tests" / "test_acceptance.py"
                      for root in (Path(__file__).resolve().parents[2], Path.cwd())]
        suite = next((c for c in candidates if c.exists()), None)
        if suite is None:
            _fail("cannot locate tests/test_acceptance.py; pass --suite")
    elif not Path(suite).exists():
        _fail("suite path %s does not exist" % suite)
    click.echo("running %s" % suite)
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", str(suite), "-v"]))


if __name__ == "__main__":
    main()
