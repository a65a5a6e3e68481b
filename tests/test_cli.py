import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from otmlab.cli import main
from otmlab.nets import separable_net, two_local_net
from otmlab.otm import ReductionParams, theorem_bound


@pytest.fixture
def runner():
    return CliRunner()


def _stderr(result):
    try:
        return result.stderr
    except ValueError:
        return result.output


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_tails_lambda_zero_grid_reports_frequency_one(runner, tmp_path):
    result = runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--kind", "linear",
        "--ell", "5", "--r", "4", "--n", "16", "--trials", "10000",
        "--lambda-grid", "0,0", "--seed", "9",
    ])
    assert result.exit_code == 0, result.output
    rows = _rows(tmp_path / "tails.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row["empirical_freq"]) == 1.0
        assert math.isinf(float(row["closed_form_bound"]))
    manifest = json.loads((tmp_path / "tails_manifest.json").read_text())
    assert manifest["experiment"] == "tails"
    assert "tails.csv" in manifest["outputs"]
    assert manifest["versions"]["otmlab"]
    assert "timestamp" in manifest and "runtime_seconds" in manifest
    # the timestamp is isolated: no data file carries it
    assert "timestamp" not in (tmp_path / "tails.csv").read_text()


def test_tails_seed_is_mandatory(runner, tmp_path):
    result = runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--kind", "linear",
        "--ell", "5", "--r", "4", "--n", "16", "--trials", "10000",
        "--lambda-grid", "0.5",
    ])
    assert result.exit_code == 2
    err = json.loads(_stderr(result).strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "seed" in err["message"]


def test_config_flag_conflict_is_an_error(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "linear"}))
    result = runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--config", str(cfg),
        "--kind", "quadratic", "--ell", "5", "--r", "4", "--n", "16",
        "--trials", "10000", "--lambda-grid", "0.5", "--seed", "1",
    ])
    assert result.exit_code == 2
    err = json.loads(_stderr(result).strip().splitlines()[-1])
    assert "both the config file and a flag" in err["message"]


def test_unknown_config_key_rejected(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "ell": 5, "r": 4, "n": 16, "trials": 10000,
        "lambda_grid": [0.5], "seed": 1, "typo_field": 3,
    }))
    result = runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--config", str(cfg),
    ])
    assert result.exit_code == 2
    err = json.loads(_stderr(result).strip().splitlines()[-1])
    assert "typo_field" in err["message"]


def test_yaml_config_and_quadratic_mode(runner, tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "kind: quadratic\nell: 4\nr: 4\nn: 8\ntrials: 10000\n"
        "lambda_grid: [0.5, 2.0]\nmode: rademacher\nseed: 4\n")
    result = runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--config", str(cfg),
    ])
    assert result.exit_code == 0, result.output
    rows = _rows(tmp_path / "tails.csv")
    assert rows[0]["bound_name"] == "crayfish"
    assert rows[0]["t"] == "2"  # r/2 for the quadratic chaos


def _security_config(tmp_path):
    cfg = tmp_path / "sec.json"
    cfg.write_text(json.dumps({
        "model": {"name": "classical-leak", "ell": 4, "beta": 0.25},
        "params": {"k": 4, "ell": 4, "theta": 1.0, "delta0": 0.5,
                   "alpha": 1.5, "eps0": 0.5, "gamma": 1.0},
        "hash_r": 4,
    }))
    return cfg


def test_otm_security_rerun_is_byte_identical(runner, tmp_path):
    cfg = _security_config(tmp_path)
    for prefix in ("a", "b"):
        result = runner.invoke(main, [
            "otm-security", "--output-dir", str(tmp_path), "--config",
            str(cfg), "--seed", "21", "--out", prefix,
        ])
        assert result.exit_code == 0, result.output
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["negligible_convention"] == "C=0"
    manifest_a = json.loads((tmp_path / "a_manifest.json").read_text())
    manifest_b = json.loads((tmp_path / "b_manifest.json").read_text())
    assert manifest_a["config_sha256"] == manifest_b["config_sha256"]
    assert manifest_a["outputs"]["a.csv"] == manifest_b["outputs"]["b.csv"]


def test_otm_security_readme_artifacts_are_pinned(runner, tmp_path):
    # the README's classical-leak example; its posteriors are dyadic, so the
    # report's numbers do not depend on the BLAS or LAPACK build
    cfg = tmp_path / "leak.json"
    cfg.write_text(json.dumps({
        "model": {"name": "classical-leak", "ell": 8, "beta": 0.25},
        "params": {"k": 8, "ell": 8, "theta": 2, "delta0": 0.25, "alpha": 1.5,
                   "eps0": 0.25, "gamma": 1, "m": 16},
    }))
    result = runner.invoke(main, ["otm-security", "--config", str(cfg), "--hash-r", "4",
                                  "--seed", "13", "--output-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("otm_security.csv", "otm_security.json")}
    assert digests == {
        "otm_security.csv": "0e1ea46e8df5df8bbde22c8f01ff004d7a114d4247c336b6ed7193585fdccae9",
        "otm_security.json": "9040929f3113c931192a322900caa1075ca614ad657af6853e7a0ee976878d47",
    }


def test_otm_security_bad_model_rejected(runner, tmp_path):
    cfg = tmp_path / "sec.json"
    cfg.write_text(json.dumps({
        "model": {"name": "no-such-model"},
        "params": {"k": 4, "ell": 4, "theta": 1.0, "delta0": 0.5,
                   "alpha": 1.5, "eps0": 0.5, "gamma": 1.0},
        "hash_r": 4,
    }))
    result = runner.invoke(main, [
        "otm-security", "--output-dir", str(tmp_path), "--config", str(cfg),
        "--seed", "1",
    ])
    assert result.exit_code == 2
    err = json.loads(_stderr(result).strip().splitlines()[-1])
    assert "no-such-model" in err["message"]


def test_theorem_bounds_table_matches_module(runner, tmp_path):
    point = {"k": 16, "ell": 16, "theta": 1.0, "delta0": 0.25, "alpha": 1.0,
             "eps0": 0.25, "gamma": 1.0}
    cfg = tmp_path / "tb.json"
    cfg.write_text(json.dumps({"points": [point]}))
    result = runner.invoke(main, [
        "theorem-bounds", "--output-dir", str(tmp_path), "--config", str(cfg),
    ])
    assert result.exit_code == 0, result.output
    rows = _rows(tmp_path / "theorem_bounds.csv")
    assert len(rows) == 1
    oracle = theorem_bound(ReductionParams(**point))
    assert int(rows[0]["r"]) == oracle["r"]
    for name in ("delta_term", "eps_term", "eta_term", "tail_term"):
        assert float(rows[0][name]) == oracle["terms"][name]
    assert float(rows[0]["total"]) == oracle["total"]
    doc = json.loads((tmp_path / "theorem_bounds.json").read_text())
    assert doc["points"][0]["bound"]["terms"]["tail_term"] == oracle["terms"]["tail_term"]


def test_nets_separable_and_two_local(runner, tmp_path):
    result = runner.invoke(main, [
        "nets", "--output-dir", str(tmp_path), "--family", "separable",
        "--m", "1", "--mu", "1.0", "--samples", "100", "--seed", "3",
    ])
    assert result.exit_code == 0, result.output
    row = _rows(tmp_path / "nets.csv")[0]
    assert float(row["covering_radius_p99"]) <= 1.0
    assert float(row["log2_enumerated"]) <= float(row["log2_bound"])
    doc = json.loads((tmp_path / "nets.json").read_text())
    assert doc["within_mu_fraction"] == 1.0
    result = runner.invoke(main, [
        "nets", "--output-dir", str(tmp_path), "--family", "two-local",
        "--m", "2", "--mu", "1.0", "--d", "1", "--samples", "20",
        "--seed", "3", "--out", "tl",
    ])
    assert result.exit_code == 0, result.output
    row = _rows(tmp_path / "tl.csv")[0]
    assert row["d"] == "1"
    assert float(row["covering_radius_p99"]) <= 1.0
    # d on the separable family is a validation error
    result = runner.invoke(main, [
        "nets", "--output-dir", str(tmp_path), "--family", "separable",
        "--m", "1", "--mu", "1.0", "--d", "1", "--samples", "10", "--seed", "3",
    ])
    assert result.exit_code == 2


def _herm(x):
    return (x + x.conj().T) / 2.0


def _scalar_separable_distances(spec, samples, seed):
    """One sample at a time, as the CLI computed before it batched: factors
    drawn and assembled by hand, snapped through the grid-parameter trace."""
    net = spec.qubit_net
    axis = net.axis
    lookup = {tuple(p): int(j) for p, j in zip(net.grid_params, net.point_index)}

    def snap(v):
        return axis[int(np.clip(np.round((v - axis[0]) / (axis[1] - axis[0])), 0, axis.size - 1))]

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        factors, members = [], []
        for _ in range(spec.m):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(g)
            f = _herm((q * rng.random(2)) @ q.conj().T)
            key = (snap(f[0, 0].real), snap(f[1, 1].real), snap(f[0, 1].real), snap(f[0, 1].imag))
            factors.append(f)
            members.append(net.points[lookup[key]].matrix)
        target, near = factors[0], members[0]
        for f, s in zip(factors[1:], members[1:]):
            target, near = np.kron(target, f), np.kron(near, s)
        out.append(float(np.linalg.norm(_herm(target) - _herm(near), 2)))
    return np.array(out)


def _scalar_two_local_distances(spec, samples, seed):
    """m = 2, d = 1, one sample at a time: M = K^dag K assembled by hand."""
    axis = spec.kraus_net.axis

    def snap(v):
        return axis[np.clip(np.round((v - axis[0]) / (axis[1] - axis[0])), 0, axis.size - 1).astype(int)]

    def clamp(x):
        u, s, vh = np.linalg.svd(x)
        return x if s[0] <= 1.0 else (u * np.clip(s, None, 1.0)) @ vh

    def assemble(k):
        k = k @ np.eye(4, dtype=complex)
        w, v = np.linalg.eigh(_herm(k.conj().T @ k))
        return _herm((v * np.clip(w, 0.0, 1.0)) @ v.conj().T)

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        rng.integers(0, 1)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _, vh = np.linalg.svd(g)
        k = (u * rng.random(4)) @ vh
        near = clamp(snap(k.real) + 1j * snap(k.imag))
        out.append(float(np.linalg.norm(assemble(k) - assemble(near), 2)))
    return np.array(out)


@pytest.mark.parametrize("family, flags, oracle", [
    ("separable", ["--m", "2", "--mu", "0.8"], _scalar_separable_distances),
    ("two-local", ["--m", "2", "--d", "1", "--mu", "1.0"], _scalar_two_local_distances),
])
def test_nets_reports_match_scalar_recomputation(runner, tmp_path, family, flags, oracle):
    result = runner.invoke(main, [
        "nets", "--output-dir", str(tmp_path), "--family", family, "--samples", "300",
        "--seed", "12"] + flags)
    assert result.exit_code == 0, result.output
    mu = float(flags[flags.index("--mu") + 1])
    spec = separable_net(2, mu) if family == "separable" else two_local_net(2, 1, mu)
    dists = oracle(spec, 300, 12)
    doc = json.loads((tmp_path / "nets.json").read_text())
    assert doc["covering_radius_max"] == float(dists.max())
    assert doc["covering_radius_p99"] == float(np.quantile(dists, 0.99))
    assert doc["within_mu_fraction"] == float((dists <= mu + 1e-12).mean())
    row = _rows(tmp_path / "nets.csv")[0]
    assert row["covering_radius_p99"] == "%.17g" % float(np.quantile(dists, 0.99))


def _rejected(result, *words):
    assert result.exit_code == 2, result.output
    err = json.loads(_stderr(result).strip().splitlines()[-1])
    assert err["error"] == "validation"
    for word in words:
        assert word in err["message"]


def test_string_typed_config_integer_is_rejected(runner, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "linear", "ell": 6, "r": 4, "n": "64",
                               "trials": 10000, "lambda_grid": [0.2], "seed": 7}))
    _rejected(runner.invoke(main, ["tails", "--output-dir", str(tmp_path),
                                   "--config", str(cfg)]), "'n'")
    cfg.write_text(json.dumps({"family": "separable", "m": "2", "mu": 0.8,
                               "samples": 10, "seed": 1}))
    _rejected(runner.invoke(main, ["nets", "--output-dir", str(tmp_path),
                                   "--config", str(cfg)]), "'m'")
    assert not (tmp_path / "tails.csv").exists() and not (tmp_path / "nets.csv").exists()


@pytest.mark.parametrize("grid", ["nan,0.4", "0.2,inf"])
def test_non_finite_threshold_is_rejected(runner, tmp_path, grid):
    _rejected(runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--kind", "linear", "--ell", "6",
        "--r", "4", "--n", "64", "--trials", "10000", "--lambda-grid", grid,
        "--seed", "7"]), "lambda_grid")
    assert not (tmp_path / "tails.csv").exists()


def test_odd_chaos_order_is_rejected_before_monte_carlo(runner, tmp_path, monkeypatch):
    from otmlab import tails as tails_mod

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before validation")

    monkeypatch.setattr(tails_mod, "empirical_tail_quadratic", no_monte_carlo)
    _rejected(runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--kind", "quadratic", "--ell", "6",
        "--r", "6", "--n", "32", "--trials", "50000", "--lambda-grid", "0.1,0.3",
        "--seed", "11"]), "even")


def test_bad_nets_config_values_are_rejected(runner, tmp_path):
    cfg = tmp_path / "c.json"
    for doc, word in [({"family": "three-local"}, "family"), ({"mu": True}, "mu"),
                      ({"mu": "0.8"}, "mu"), ({"samples": 0}, "samples"),
                      ({"family": "two-local", "d": 1.5}, "'d'")]:
        cfg.write_text(json.dumps(dict({"family": "separable", "m": 1, "mu": 0.8,
                                        "samples": 10, "seed": 1}, **doc)))
        _rejected(runner.invoke(main, ["nets", "--output-dir", str(tmp_path),
                                       "--config", str(cfg)]), word)


def test_entropy_certificates(runner, tmp_path):
    result = runner.invoke(main, [
        "entropy", "--output-dir", str(tmp_path), "--count", "4",
        "--n0", "4", "--n1", "4", "--nz", "2", "--eps", "0.0",
        "--eps-prime", "0.25", "--seed", "11",
    ])
    assert result.exit_code == 0, result.output
    rows = _rows(tmp_path / "entropy.csv")
    assert len(rows) == 4
    for row in rows:
        assert row["certified"] == "True"
        assert float(row["value"]) >= float(row["bound"]) - 1e-9
    doc = json.loads((tmp_path / "entropy.json").read_text())
    assert len(doc["instances"]) == 4


def test_output_dir_env_var(runner, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("OTMLAB_OUTPUT_DIR", str(target))
    result = runner.invoke(main, [
        "entropy", "--count", "1", "--n0", "3", "--n1", "3", "--nz", "1",
        "--eps", "0.0", "--eps-prime", "0.25", "--seed", "2",
    ])
    assert result.exit_code == 0, result.output
    assert (target / "entropy.csv").exists()


def test_verify_all_runs_given_suite(runner, tmp_path):
    suite = tmp_path / "test_dummy.py"
    suite.write_text("def test_ok():\n    assert True\n")
    result = runner.invoke(main, ["verify-all", "--suite", str(suite)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["verify-all", "--suite", str(tmp_path / "missing.py")])
    assert result.exit_code == 2


_ENTROPY_CONFIG = {"count": 2, "n0": 3, "n1": 3, "nz": 1, "eps": 0.0,
                   "eps_prime": 0.25, "seed": 1}


@pytest.mark.parametrize("bad, word", [
    ({"n0": "4"}, "'n0'"),
    ({"eps": "nan"}, "'eps'"),
    ({"eps": math.nan}, "'eps'"),
    ({"count": True}, "'count'"),
    ({"nz": 0}, "'nz'"),
    ({"eps_prime": "0.25"}, "'eps_prime'"),
    ({"alpha": "3"}, "'alpha'"),
], ids=["string-n0", "string-eps", "nan-eps", "bool-count", "zero-nz",
        "string-eps-prime", "string-alpha"])
def test_bad_entropy_config_values_are_rejected(runner, tmp_path, monkeypatch, bad, word):
    from otmlab import entropy as entropy_mod

    def no_compute(*args, **kwargs):
        raise AssertionError("entropy ran before validation")

    monkeypatch.setattr(entropy_mod, "joint_cond_dist", no_compute)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_ENTROPY_CONFIG, **bad)))
    _rejected(runner.invoke(main, ["entropy", "--output-dir", str(tmp_path / "out"),
                                   "--config", str(cfg)]), word)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, word", [
    ({"hash_r": "4"}, "'hash_r'"),
    ({"hash_r": True}, "'hash_r'"),
    ({"hash_r": 0}, "'hash_r'"),
    ({"delta": "0.1"}, "'delta'"),
    ({"delta": math.inf}, "'delta'"),
], ids=["string-hash-r", "bool-hash-r", "zero-hash-r", "string-delta", "inf-delta"])
def test_bad_otm_security_config_values_are_rejected(runner, tmp_path, monkeypatch, bad, word):
    from otmlab import cli

    def no_compute(*args, **kwargs):
        raise AssertionError("hashes were sampled before validation")

    monkeypatch.setattr(cli, "sample_hash", no_compute)
    cfg = _security_config(tmp_path)
    cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), **bad)))
    _rejected(runner.invoke(main, ["otm-security", "--output-dir", str(tmp_path / "out"),
                                   "--config", str(cfg), "--seed", "1"]), word)
    assert not (tmp_path / "out").exists()


_CSV_JOBS = [
    ("tails", ["--kind", "linear", "--ell", "4", "--r", "4", "--n", "8", "--trials", "10000",
               "--lambda-grid", "0,0.5", "--seed", "3"], None,
     ["lambda", "empirical_freq", "upper_cl_99", "closed_form_bound", "bound_name", "t",
      "trials", "seed"]),
    ("nets", ["--family", "two-local", "--m", "2", "--d", "1", "--mu", "1.0",
              "--samples", "10", "--seed", "3"], None,
     ["m", "d", "mu", "delta", "log2_bound", "log2_enumerated", "covering_radius_p99",
      "samples", "seed"]),
    ("entropy", ["--count", "2", "--n0", "3", "--n1", "3", "--nz", "2", "--eps", "0.0",
                 "--eps-prime", "0.25", "--seed", "4"], None,
     ["instance", "joint_entropy", "alpha", "bound", "value", "rule", "event_probability",
      "certified"]),
    ("otm-security", ["--seed", "21"], {
        "model": {"name": "classical-leak", "ell": 4, "beta": 0.25},
        "params": {"k": 4, "ell": 4, "theta": 1.0, "delta0": 0.5, "alpha": 1.5,
                   "eps0": 0.5, "gamma": 1.0},
        "hash_r": 4},
     ["outcome", "probability", "entropy", "pr_c0", "pr_c1", "Q0", "Q1", "R0", "R1",
      "l1_c0", "l1_c1", "l1_weighted", "smoothing_deficit", "flags"]),
    ("theorem-bounds", [], {"points": [
        {"k": 16, "ell": 16, "theta": 1.0, "delta0": 0.25, "alpha": 1.0, "eps0": 0.25,
         "gamma": 16.0, "m": 16},
        {"k": 4, "ell": 4, "theta": 1.0, "delta0": 0.25, "alpha": 2.0, "eps0": 0.25,
         "gamma": 64.0, "m": 4, "phi": 1.0, "d": 2, "depth_mode": True}]},
     ["k", "ell", "theta", "delta0", "alpha", "eps0", "gamma", "m", "phi", "d", "depth_mode",
      "r", "delta_term", "eps_term", "eta_term", "tail_term", "total", "total_log2",
      "net_log2", "envelope_log2", "envelope_holds"]),
]


@pytest.mark.parametrize("command, args, config, columns", _CSV_JOBS,
                         ids=[job[0] for job in _CSV_JOBS])
def test_csv_header_is_pinned_and_rerun_is_byte_identical(runner, tmp_path, command, args,
                                                          config, columns):
    if config is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    files = {}
    for run in ("a", "b"):
        result = runner.invoke(main, [command, "--output-dir", str(tmp_path / run),
                                      "--out", "job"] + args)
        assert result.exit_code == 0, result.output
        files[run] = {p.name: p.read_bytes() for p in (tmp_path / run).iterdir()
                      if p.name != "job_manifest.json"}
    assert set(files["a"]) == ({"job.csv"} if command == "tails" else {"job.csv", "job.json"})
    assert files["a"] == files["b"]
    with open(tmp_path / "a" / "job.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == columns
    assert len(lines) > 1 and all(len(line) == len(columns) for line in lines)
