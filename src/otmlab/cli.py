r"""Batch experiment runner emitting CSV/JSON artifacts with manifests.

The runner performs no mathematics of its own: every emitted number is
produced by an operation of the computational modules (hashfam, tails,
nets, entropy, otm).  Each subcommand reads one declarative configuration
-- a JSON or YAML file, command-line flags, or a mix where every parameter
comes from exactly one source (the same key given in both places is an
error, never a silent override) -- and writes CSV/JSON data files plus a
manifest recording the configuration hash, library versions, runtime and
per-file checksums.  The wall-clock timestamp lives only in the manifest,
so rerunning an experiment with the same configuration and seed produces
byte-identical data files.

Validation failures print a machine-readable JSON error object to stderr
and exit nonzero.  The default output directory is the current directory,
overridden by the OTMLAB_OUTPUT_DIR environment variable, overridden by
--output-dir.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import entropy as entropy_mod
from . import nets as nets_mod
from . import otm as otm_mod
from . import tails as tails_mod
from .hashfam import MAX_FIELD_BITS, sample_hash

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


def _fail(message, **detail):
    """Print a machine-readable validation error and exit nonzero."""
    doc = {"error": "validation", "message": message}
    if detail:
        doc["detail"] = detail
    click.echo(json.dumps(doc, sort_keys=True), err=True)
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


def _merge(config, flags):
    """Combine a config mapping with flag values; duplicate keys are errors."""
    merged = dict(config)
    for key, value in flags.items():
        if value is None:
            continue
        if key in config:
            _fail("parameter %r is set in both the config file and a flag; "
                  "pick one source" % key)
        merged[key] = value
    return merged


def _check_keys(cfg, required, optional):
    for key in required:
        if key not in cfg:
            _fail("missing required parameter %r" % key)
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        _fail("unknown parameters: %s" % ", ".join(unknown))


def _outdir(flag):
    path = Path(flag or os.environ.get(ENV_OUTPUT_DIR) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail("cannot create output directory %s: %s" % (path, exc))
    return path


def _canonical(cfg):
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_csv(path, columns, rows):
    """Write a header of `columns`, then one line per row mapping; the csv
    module writes None as an empty cell and any other value as its str()."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _cells(values):
    """A CSV row with every float written as "%.17g" (exact round trip)."""
    return {k: "%.17g" % v if isinstance(v, float) else v for k, v in values.items()}


def _finish(outdir, prefix, experiment, cfg, outputs, started, counters=None):
    """Write the manifest (with any counters) and report the artifact paths."""
    manifest = {
        "experiment": experiment,
        "config": cfg,
        "config_sha256": hashlib.sha256(_canonical(cfg).encode()).hexdigest(),
        "versions": _versions(),
        "runtime_seconds": round(time.time() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": {Path(p).name: _sha256(p) for p in outputs},
    }
    if counters is not None:
        manifest["counters"] = counters
    manifest_path = outdir / ("%s_manifest.json" % prefix)
    _write_json(manifest_path, manifest)
    for p in list(outputs) + [manifest_path]:
        click.echo(str(p))


def _float_list(cfg, key):
    raw = cfg[key]
    if isinstance(raw, str):
        raw = [piece for piece in raw.replace(",", " ").split() if piece]
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError):
        _fail("parameter %r must be a list of numbers" % key)
    if not all(math.isfinite(v) for v in values):
        _fail("parameter %r must hold finite numbers, got %r" % (key, values))
    return values


def _int_param(cfg, key):
    """A config integer, checked to be a positive int before any work."""
    value = cfg[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        _fail("parameter %r must be a positive integer, got %r" % (key, value))
    return value


def _number_param(cfg, key):
    """A config number, checked to be a finite int or float before any work."""
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        _fail("parameter %r must be a finite number, got %r" % (key, value))
    return value


def _choice_param(cfg, key, choices):
    if cfg[key] not in choices:
        _fail("parameter %r must be one of %s, got %r" % (key, ", ".join(choices), cfg[key]))
    return cfg[key]


def _require_seed(cfg):
    seed = cfg.get("seed")
    if seed is None:
        _fail("this experiment is stochastic; --seed (or a config seed) is mandatory")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed must be a nonnegative integer, got %r" % (seed,))
    return seed


@click.group()
def main():
    """Desk-scale experiment runner; see each subcommand's --help."""


_common = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON or YAML config file."),
    click.option("--output-dir", default=None,
                 help="Output directory (default: $%s or cwd)." % ENV_OUTPUT_DIR),
    click.option("--out", default=None, help="Artifact name prefix."),
]


def _with_common(fn):
    for deco in reversed(_common):
        fn = deco(fn)
    return fn


@main.command()
@_with_common
@click.option("--kind", type=click.Choice(["linear", "quadratic"]), default=None)
@click.option("--ell", type=int, default=None)
@click.option("--r", "r_", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--trials", type=int, default=None)
@click.option("--lambda-grid", "lambda_grid", default=None,
              help="Comma-separated thresholds; 0 rows report frequency 1.")
@click.option("--mode", type=click.Choice(["hash", "rademacher"]), default=None,
              help="Sign source for quadratic instances.")
@click.option("--seed", type=int, default=None)
def tails(config_path, output_dir, out, kind, ell, r_, n, trials, lambda_grid,
          mode, seed):
    """Monte Carlo tail frequencies against the closed-form bounds."""
    started = time.time()
    cfg = _merge(_load_config(config_path), {
        "kind": kind, "ell": ell, "r": r_, "n": n, "trials": trials,
        "lambda_grid": lambda_grid, "mode": mode, "seed": seed,
    })
    _check_keys(cfg, required=["kind", "ell", "r", "n", "trials",
                               "lambda_grid", "seed"], optional=["mode"])
    seed = _require_seed(cfg)
    kind = _choice_param(cfg, "kind", ("linear", "quadratic"))
    ell, r, n, trials = (_int_param(cfg, key) for key in ("ell", "r", "n", "trials"))
    mode = _choice_param(cfg, "mode", ("hash", "rademacher")) if "mode" in cfg else "hash"
    if kind == "quadratic" and n < 2:
        _fail("parameter 'n' must be >= 2 for the quadratic kind (a 1x1 zero-diagonal "
              "matrix cannot be normalized), got %d" % n)
    if kind == "linear" or mode == "hash":
        if ell > MAX_FIELD_BITS:
            _fail("parameter 'ell' must be at most %d, got %d" % (MAX_FIELD_BITS, ell))
        if r > 1 << ell:
            _fail("parameter 'r'=%d exceeds the domain size 2^ell=%d of the hash family"
                  % (r, 1 << ell))
    grid = _float_list(cfg, "lambda_grid")
    rng = np.random.default_rng(seed)
    outdir = _outdir(output_dir)
    prefix = out or "tails"
    # the closed-form bounds come before the Monte Carlo run, so parameters
    # they reject (such as an odd t = r/2) fail before any trial is drawn
    try:
        if kind == "linear":
            weights = rng.normal(size=n)
            inst = tails_mod.LinearInstance(weights / np.linalg.norm(weights))
            bound_name, t = "kite", r
            bounds = [tails_mod.kite_bound(r, inst.v, lam) for lam in grid]
            result = tails_mod.empirical_tail_linear(inst, ell, r, grid, trials, rng)
        else:
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            a /= np.linalg.norm(a)
            inst = tails_mod.QuadraticInstance(a)
            bound_name, t = "crayfish", r // 2
            bounds = [tails_mod.crayfish_bound(t, inst.abs_frobenius,
                                               inst.abs_operator, lam)
                      for lam in grid]
            result = tails_mod.empirical_tail_quadratic(
                inst, ell, r, grid, trials, rng, mode=mode)
    except ValueError as exc:
        _fail(str(exc))
    csv_path = outdir / ("%s.csv" % prefix)
    write_csv(csv_path, TAIL_CSV_COLUMNS, [
        _cells(dict(zip(TAIL_CSV_COLUMNS, (lam, freq, ucl, bound, bound_name, t, trials, seed))))
        for lam, freq, ucl, bound in zip(result["lambdas"], result["freqs"],
                                         result["upper_cl_99"], bounds)])
    _finish(outdir, prefix, "tails", cfg, [csv_path], started)


@main.command()
@_with_common
@click.option("--family", type=click.Choice(["separable", "two-local"]), default=None)
@click.option("--m", type=int, default=None)
@click.option("--mu", type=float, default=None)
@click.option("--d", type=int, default=None, help="Circuit depth (two-local only).")
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
def nets(config_path, output_dir, out, family, m, mu, d, samples, seed):
    """Covering-radius sampling and cardinality accounting for the nets."""
    started = time.time()
    cfg = _merge(_load_config(config_path), {
        "family": family, "m": m, "mu": mu, "d": d, "samples": samples,
        "seed": seed,
    })
    _check_keys(cfg, required=["family", "m", "mu", "samples", "seed"],
                optional=["d"])
    seed = _require_seed(cfg)
    family = _choice_param(cfg, "family", ("separable", "two-local"))
    m, samples = _int_param(cfg, "m"), _int_param(cfg, "samples")
    mu = _number_param(cfg, "mu")
    if family == "separable" and cfg.get("d") is not None:
        _fail("d applies only to the two-local family")
    if family == "two-local":
        if cfg.get("d") is None:
            _fail("the two-local family requires d")
        d = _int_param(cfg, "d")
    rng = np.random.default_rng(seed)
    outdir = _outdir(output_dir)
    prefix = out or "nets"
    try:
        if family == "separable":
            spec = nets_mod.separable_net(m, mu)
            bounds = nets_mod.cardinality_bounds(m, mu)
            log2_bound = bounds["separable_log2"]
            delta = spec.delta
        else:
            spec = nets_mod.two_local_net(m, d, mu)
            bounds = nets_mod.cardinality_bounds(m, mu, d=d)
            log2_bound = bounds["two_local_log2"]
            delta = spec.kraus_net.delta
        dists = spec.covering_distances(samples, rng)
    except ValueError as exc:
        _fail(str(exc))
    p99 = float(np.quantile(dists, 0.99))
    csv_path = outdir / ("%s.csv" % prefix)
    write_csv(csv_path, NET_CSV_COLUMNS, [_cells({
        "m": m, "d": cfg.get("d"), "mu": mu, "delta": delta,
        "log2_bound": log2_bound, "log2_enumerated": spec.log2_size,
        "covering_radius_p99": p99, "samples": samples, "seed": seed,
    })])
    json_path = outdir / ("%s.json" % prefix)
    _write_json(json_path, {
        "family": family,
        "cardinality_bounds": bounds,
        "log2_enumerated": spec.log2_size,
        "covering_radius_max": float(dists.max()),
        "covering_radius_p99": p99,
        "within_mu_fraction": float((dists <= mu + 1e-12).mean()),
    })
    _finish(outdir, prefix, "nets", cfg, [csv_path, json_path], started)


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


@main.command()
@_with_common
@click.option("--count", type=int, default=None, help="Random instances to draw.")
@click.option("--n0", type=int, default=None)
@click.option("--n1", type=int, default=None)
@click.option("--nz", type=int, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--eps-prime", "eps_prime", type=float, default=None)
@click.option("--alpha", type=float, default=None,
              help="Joint level; defaults to each instance's smoothed entropy.")
@click.option("--seed", type=int, default=None)
def entropy(config_path, output_dir, out, count, n0, n1, nz, eps, eps_prime,
            alpha, seed):
    """Smoothed min-entropy and splitting certificates on random joints."""
    started = time.time()
    cfg = _merge(_load_config(config_path), {
        "count": count, "n0": n0, "n1": n1, "nz": nz, "eps": eps,
        "eps_prime": eps_prime, "alpha": alpha, "seed": seed,
    })
    _check_keys(cfg, required=["count", "n0", "n1", "nz", "eps", "eps_prime",
                               "seed"], optional=["alpha"])
    seed = _require_seed(cfg)
    count, n0, n1, nz = (_int_param(cfg, key) for key in ("count", "n0", "n1", "nz"))
    eps, eps_prime = _number_param(cfg, "eps"), _number_param(cfg, "eps_prime")
    alpha = None if cfg.get("alpha") is None else _number_param(cfg, "alpha")
    if not 0.0 <= eps < 1.0:
        _fail("eps=%r outside [0, 1)" % (eps,))
    if not 0.0 < eps_prime < 1.0:
        _fail("eps_prime=%r outside (0, 1)" % (eps_prime,))
    if eps + eps_prime >= 1.0:
        _fail("eps + eps_prime = %r leaves no probability to keep" % (eps + eps_prime,))
    rng = np.random.default_rng(seed)
    outdir = _outdir(output_dir)
    prefix = out or "entropy"
    chunk = max(1, entropy_mod.STACK_CELLS // (nz * n0 * n1))
    records, fallback = [], 0
    try:
        for start in range(0, count, chunk):
            tables, pz = _random_joints(rng, min(chunk, count - start), nz, n0, n1)
            res = entropy_mod.split_joints(tables, pz, alpha, eps, eps_prime)
            fallback += res["fallback_candidates"]
            columns = zip(res["joint_entropy"].tolist(), res["bound"].tolist(),
                          res["value"].tolist(), res["rule"], res["event_probability"].tolist())
            records += [{"instance": i, "joint_entropy": joint,
                         "alpha": joint if alpha is None else alpha, "bound": bound,
                         "value": value, "rule": rule, "event_probability": pr_event,
                         "certified": bool(value >= bound - 1e-9)}
                        for i, (joint, bound, value, rule, pr_event) in enumerate(columns, start)]
    except ValueError as exc:
        _fail(str(exc))
    csv_path = outdir / ("%s.csv" % prefix)
    write_csv(csv_path, ENTROPY_CSV_COLUMNS, [_cells(record) for record in records])
    json_path = outdir / ("%s.json" % prefix)
    _write_json(json_path, {"instances": records})
    counters = {"instances": len(records), "rules": dict(Counter(r["rule"] for r in records)),
                "fallback_candidates": fallback,
                "certified": sum(r["certified"] for r in records)}
    _finish(outdir, prefix, "entropy", cfg, [csv_path, json_path], started, counters)


def _build_model(block):
    if not isinstance(block, dict) or "name" not in block:
        _fail("model must be a mapping with a 'name' field")
    name = block["name"]
    if name == "classical-leak":
        allowed = {"name", "ell", "beta", "positions"}
        unknown = sorted(set(block) - allowed)
        if unknown:
            _fail("unknown model parameters: %s" % ", ".join(unknown))
        positions = block.get("positions")
        if positions is not None:
            positions = tuple(positions)
        try:
            return otm_mod.ClassicalLeakSim(block.get("ell"), block.get("beta"),
                                            positions=positions)
        except (TypeError, ValueError) as exc:
            _fail(str(exc))
    if name == "wiesner":
        allowed = {"name", "m"}
        unknown = sorted(set(block) - allowed)
        if unknown:
            _fail("unknown model parameters: %s" % ", ".join(unknown))
        try:
            return otm_mod.WiesnerToyOtm(block.get("m"))
        except (TypeError, ValueError) as exc:
            _fail(str(exc))
    _fail("unknown model name %r (expected classical-leak or wiesner)" % name)


def _security_rows(report):
    """The per-outcome CSV rows of a SecurityReport, floats in str() form."""
    rows = []
    for row in report.rows:
        cells = dict(row, flags=";".join(row["flags"]))
        for key, column in (("pr_c", "pr_c"), ("Q", "Q"), ("R", "R"), ("l1", "l1_c")):
            cells[column + "0"], cells[column + "1"] = row[key]
        rows.append({k: cells[k] for k in SECURITY_CSV_COLUMNS})
    return rows


def _build_params(block):
    if not isinstance(block, dict):
        _fail("params must be a mapping of reduction parameters")
    try:
        return otm_mod.ReductionParams(**block)
    except TypeError as exc:
        _fail("bad reduction parameter: %s" % exc)
    except ValueError as exc:
        _fail(str(exc))


@main.command("otm-security")
@_with_common
@click.option("--hash-r", "hash_r", type=int, default=None,
              help="Independence order of the sampled F, G.")
@click.option("--delta", type=float, default=None,
              help="Outcome-negligibility level; defaults to params delta.")
@click.option("--seed", type=int, default=None)
def otm_security(config_path, output_dir, out, hash_r, delta, seed):
    """Evaluate the per-outcome security report for one model + parameters."""
    started = time.time()
    cfg = _merge(_load_config(config_path), {
        "hash_r": hash_r, "delta": delta, "seed": seed,
    })
    _check_keys(cfg, required=["model", "params", "hash_r", "seed"],
                optional=["delta"])
    seed = _require_seed(cfg)
    hash_r = _int_param(cfg, "hash_r")
    level = None if cfg.get("delta") is None else _number_param(cfg, "delta")
    rng = np.random.default_rng(seed)
    outdir = _outdir(output_dir)
    prefix = out or "otm_security"
    model = _build_model(cfg["model"])
    params = _build_params(cfg["params"])
    if level is None:
        level = params.delta
    try:
        F = sample_hash(model.ell, hash_r, rng)
        G = sample_hash(model.ell, hash_r, rng)
        otm = otm_mod.IdealBitOtm(F, G, model)
        report = otm_mod.evaluate_security(otm, level, params)
    except ValueError as exc:
        _fail(str(exc))
    csv_path = outdir / ("%s.csv" % prefix)
    write_csv(csv_path, SECURITY_CSV_COLUMNS, _security_rows(report))
    json_path = outdir / ("%s.json" % prefix)
    Path(json_path).write_text(report.to_json() + "\n")
    _finish(outdir, prefix, "otm-security", cfg, [csv_path, json_path], started)


@main.command("theorem-bounds")
@_with_common
def theorem_bounds(config_path, output_dir, out):
    """Evaluate the security-bound term table at configured parameter points."""
    started = time.time()
    cfg = _merge(_load_config(config_path), {})
    _check_keys(cfg, required=["points"], optional=[])
    if not isinstance(cfg["points"], list) or not cfg["points"]:
        _fail("points must be a nonempty list of parameter mappings")
    outdir = _outdir(output_dir)
    prefix = out or "theorem_bounds"
    rows, records = [], []
    for block in cfg["points"]:
        params = _build_params(block)
        try:
            result = otm_mod.theorem_bound(params)
        except ValueError as exc:
            _fail(str(exc))
        records.append({"params": params.as_dict(), "bound": result})
        values = params.as_dict() | result | result["terms"]
        rows.append(_cells({k: values[k] for k in THEOREM_CSV_COLUMNS}))
    csv_path = outdir / ("%s.csv" % prefix)
    write_csv(csv_path, THEOREM_CSV_COLUMNS, rows)
    json_path = outdir / ("%s.json" % prefix)
    _write_json(json_path, {"points": records})
    _finish(outdir, prefix, "theorem-bounds", cfg, [csv_path, json_path], started)


@main.command("verify-all")
@click.option("--suite", default=None,
              help="Path to the acceptance test file (default: autodetect).")
def verify_all(suite):
    """Run the acceptance suite; exits with pytest's status."""
    if suite is None:
        candidates = [
            Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py",
            Path.cwd() / "tests" / "test_acceptance.py",
        ]
        for candidate in candidates:
            if candidate.exists():
                suite = candidate
                break
        else:
            _fail("cannot locate tests/test_acceptance.py; pass --suite")
    elif not Path(suite).exists():
        _fail("suite path %s does not exist" % suite)
    click.echo("running %s" % suite)
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", str(suite), "-v"]))


if __name__ == "__main__":
    main()
