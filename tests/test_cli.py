import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from otmlab.cli import _random_joints, main
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


@pytest.mark.parametrize("args, digests", [
    (["--count", "50", "--n0", "8", "--n1", "8", "--nz", "3", "--eps", "0.0",
      "--eps-prime", "0.25", "--seed", "5"],
     {"entropy.csv": "360aa878aa6bc15f63bd998c035cf3b55087a2edda26691673263d2b965c7c8f",
      "entropy.json": "c9c40f9d065d8fd25999abab50cea9138d2309e007c797de6ff220f4f0142b29"}),
    (["--count", "50", "--n0", "3", "--n1", "5", "--nz", "2", "--eps", "0.1",
      "--eps-prime", "0.3", "--seed", "9"],
     {"entropy.csv": "efb1369c6874345e5cbd91f539150c19e566ba8c8b9af2c3f2a91bcf1320927a",
      "entropy.json": "043f2ca5ef49c7ad922efa3342a1605e40b5ae2cb172e30107962beca354dc65"}),
    (["--count", "700", "--n0", "8", "--n1", "8", "--nz", "3", "--eps", "0.0",
      "--eps-prime", "0.25", "--seed", "5"],
     {"entropy.csv": "f0fa155b0d651238c39ac4a6f71f9a7f16d879867742fa589b219deac4522210",
      "entropy.json": "cee1854b1910a7a0fe57312691da4fcf041f9e5295dbbf9c4db2b8f87b2034f1"}),
], ids=["readme", "uneven-smoothed", "readme-700"])
def test_entropy_artifacts_are_pinned(runner, tmp_path, args, digests):
    # 50 instances of the README joint shape, and of an n0 != n1 shape at
    # eps > 0: the digests are those of the tuple-alphabet implementation.
    # 700 README-shape instances span three stacked calls; their digests are
    # those of the instance-at-a-time sweep.
    result = runner.invoke(main, ["entropy", "--output-dir", str(tmp_path)] + args)
    assert result.exit_code == 0, result.output
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


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


@pytest.mark.parametrize("grid", ["nan,0.4", "0.2,inf", "0.2,-0.1", [0.2, 10 ** 400]])
def test_non_finite_threshold_is_rejected(runner, tmp_path, grid):
    # text comes as a flag; a list (here with an int past the float range)
    # comes in a config file.  A negative threshold is refused as early.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"lambda_grid": grid}))
    source = ["--lambda-grid", grid] if isinstance(grid, str) else ["--config", str(cfg)]
    _rejected(runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--kind", "linear", "--ell", "6",
        "--r", "4", "--n", "64", "--trials", "10000", "--seed", "7"] + source), "lambda_grid")
    assert not (tmp_path / "tails.csv").exists()


def test_odd_chaos_order_is_rejected_before_monte_carlo(runner, tmp_path, monkeypatch):
    from otmlab import tails as tails_mod

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before validation")

    monkeypatch.setattr(tails_mod, "empirical_tail_quadratic", no_monte_carlo)
    _no_draws(monkeypatch)
    _rejected(runner.invoke(main, [
        "tails", "--output-dir", str(tmp_path / "out"), "--kind", "quadratic", "--ell", "6",
        "--r", "6", "--n", "32", "--trials", "50000", "--lambda-grid", "0.1,0.3",
        "--seed", "11"]), "even")
    assert not (tmp_path / "out").exists()


def _no_draws(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("a generator was made before validation")

    monkeypatch.setattr(np.random, "default_rng", no_rng)


def test_single_point_quadratic_instance_is_rejected(runner, tmp_path, monkeypatch):
    # a 1x1 zero-diagonal matrix has norm 0; dividing by it must not happen
    _no_draws(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [
            "tails", "--output-dir", str(tmp_path), "--kind", "quadratic", "--ell", "6",
            "--r", "8", "--n", "1", "--trials", "10000", "--lambda-grid", "0.1",
            "--seed", "11"])
    _rejected(result, "'n'")
    assert "Warning" not in result.output
    assert not (tmp_path / "tails.csv").exists()


@pytest.mark.parametrize("flags,word", [
    (["--kind", "linear", "--ell", "6", "--r", "100", "--n", "8"], "'r'"),
    (["--kind", "quadratic", "--ell", "2", "--r", "8", "--n", "4"], "'r'"),
    (["--kind", "linear", "--ell", "65", "--r", "4", "--n", "8"], "'ell'"),
])
def test_hash_family_parameters_are_rejected_before_drawing(runner, tmp_path, monkeypatch,
                                                            flags, word):
    # sample_hash(ell, r) needs 1 <= ell <= 64 and r <= 2^ell
    _no_draws(monkeypatch)
    _rejected(runner.invoke(main, ["tails", "--output-dir", str(tmp_path)] + flags + [
        "--trials", "10000", "--lambda-grid", "0.5", "--seed", "7"]), word)
    assert not (tmp_path / "tails.csv").exists()


def test_bad_nets_config_values_are_rejected(runner, tmp_path, monkeypatch):
    from otmlab import nets as nets_mod

    def no_samples(*args, **kwargs):
        raise AssertionError("two-local samples were drawn before validation")

    monkeypatch.setattr(nets_mod, "_sample_two_local_stack", no_samples)
    cfg = tmp_path / "c.json"
    for doc, word in [({"family": "three-local"}, "family"), ({"mu": True}, "mu"),
                      ({"mu": "0.8"}, "mu"), ({"samples": 0}, "samples"),
                      ({"family": "two-local", "d": 1.5}, "'d'"), ({"mu": 10 ** 400}, "mu"),
                      ({"family": "two-local", "m": 8, "d": 1}, "m <= 6"),
                      ({"family": "two-local", "m": 2, "d": 9}, "d <= 8")]:
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


def _entropy_run(runner, tmp_path, name, count, extra=()):
    result = runner.invoke(main, ["entropy", "--count", str(count), "--n0", "8", "--n1", "8",
                                  "--nz", "3", "--eps", "0.0", "--eps-prime", "0.25",
                                  "--seed", "21", "--output-dir", str(tmp_path / name)]
                           + list(extra))
    return result, {p.name: p.read_bytes() for p in (tmp_path / name).glob("entropy.*")}


@pytest.mark.parametrize("count", [1, 3, 4, 5])
def test_entropy_chunks_match_one_instance_at_a_time(runner, tmp_path, monkeypatch, count):
    # stacked calls of four instances (count 1, chunk - 1, chunk, chunk + 1)
    # write the bytes that one instance per call writes
    from otmlab import entropy as entropy_mod

    files = {}
    for chunk in (1, 4):
        monkeypatch.setattr(entropy_mod, "STACK_CELLS", chunk * 3 * 8 * 8)
        result, files[chunk] = _entropy_run(runner, tmp_path, "c%d" % chunk, count)
        assert result.exit_code == 0, result.output
    assert set(files[1]) == {"entropy.csv", "entropy.json"} and files[1] == files[4]


def test_batched_draws_equal_per_instance_draws():
    tables, pz = _random_joints(np.random.default_rng(8), 7, 3, 4, 5)
    rng = np.random.default_rng(8)
    for table, marginal in zip(tables, pz):
        want = rng.random((3, 4, 5)) + 0.01
        want /= want.sum(axis=(1, 2), keepdims=True)
        want_pz = rng.random(3) + 0.1
        want_pz /= want_pz.sum()
        assert np.array_equal(table, want) and np.array_equal(marginal, want_pz)


def test_failing_alpha_reports_the_first_failing_instance(runner, tmp_path, monkeypatch):
    # alpha at the least entropy of the first five instances: the first
    # instance below it (11) sits in a later stacked call of eight, which
    # holds another one (15)
    from otmlab import entropy as entropy_mod

    tables, _ = _random_joints(np.random.default_rng(21), 40, 3, 8, 8)
    joint = [-math.log2(t.max()) for t in tables]  # eps = 0 smooths nothing away
    alpha = min(joint[:5])
    bad = [i for i, h in enumerate(joint) if h < alpha - 1e-9]
    assert bad[0] >= 8 and bad[1] < (bad[0] // 8 + 1) * 8
    monkeypatch.setattr(entropy_mod, "STACK_CELLS", 8 * 3 * 8 * 8)
    result, _ = _entropy_run(runner, tmp_path, "a", 40, ["--alpha", repr(alpha)])
    _rejected(result, "joint smoothed min-entropy %g is below alpha=%g" % (joint[bad[0]], alpha))


def test_entropy_manifest_counts_rules_and_fallbacks(runner, tmp_path, monkeypatch):
    from otmlab import entropy as entropy_mod

    args = ["entropy", "--count", "6", "--n0", "2", "--n1", "3", "--nz", "2", "--eps", "0.0",
            "--eps-prime", "0.25", "--seed", "4", "--output-dir"]
    result = runner.invoke(main, args + [str(tmp_path / "a")])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "a" / "entropy_manifest.json").read_text())
    assert manifest["counters"] == {"instances": 6, "rules": {"heaviness": 6},
                                    "fallback_candidates": 0, "certified": 6}
    # the heaviness certificates (the first call on hidden tables of 2 nz
    # rows) read 100 bits low, so every instance takes the fallback, whose
    # first assignment (C = 0 everywhere) certifies
    real, calls = entropy_mod._smooth, []

    def lowball(t, p_y, eps):
        value, weights, pr_event, fault = real(t, p_y, eps)
        if t.shape[1] == 4:
            calls.append(len(t))
            if len(calls) == 1:
                value = value - 100.0
        return value, weights, pr_event, fault

    monkeypatch.setattr(entropy_mod, "_smooth", lowball)
    result = runner.invoke(main, args + [str(tmp_path / "b")])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "b" / "entropy_manifest.json").read_text())
    assert manifest["counters"] == {"instances": 6, "rules": {"exhaustive-x0": 6},
                                    "fallback_candidates": 6, "certified": 6}


def test_output_dir_env_var(runner, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("OTMLAB_OUTPUT_DIR", str(target))
    result = runner.invoke(main, [
        "entropy", "--count", "1", "--n0", "3", "--n1", "3", "--nz", "1",
        "--eps", "0.0", "--eps-prime", "0.25", "--seed", "2",
    ])
    assert result.exit_code == 0, result.output
    assert (target / "entropy.csv").exists()


@pytest.mark.parametrize("command, args, word", [
    ("nets", ["--family", "two-local", "--m", "8", "--d", "1", "--mu", "1.0",
              "--samples", "10", "--seed", "1"], "m <= 6"),
    ("entropy", ["--count", "4", "--n0", "8", "--n1", "8", "--nz", "3", "--eps", "0.0",
                 "--eps-prime", "0.25", "--seed", "21", "--alpha", "5.5"], "below alpha"),
], ids=["two-local-caps", "failing-alpha"])
def test_failing_computation_leaves_no_output_directory(runner, tmp_path, command, args, word):
    # both errors come from the computation, after the directory was made
    nested = tmp_path / "a" / "b"
    _rejected(runner.invoke(main, [command, "--output-dir", str(nested)] + args), word)
    assert list(tmp_path.iterdir()) == []
    # directories that were there before the run stay, empty or not
    nested.mkdir(parents=True)
    (tmp_path / "a" / "keep.txt").write_text("")
    for out in (nested, nested / "c"):
        _rejected(runner.invoke(main, [command, "--output-dir", str(out)] + args), word)
        assert nested.is_dir() and list(nested.iterdir()) == []
    assert (tmp_path / "a" / "keep.txt").exists()


def test_unwritable_output_directory_is_reported_before_any_computation(runner, tmp_path,
                                                                       monkeypatch):
    _no_draws(monkeypatch)
    (tmp_path / "file").write_text("")
    result = runner.invoke(main, ["entropy", "--output-dir", str(tmp_path / "file" / "out"),
                                  "--count", "4", "--n0", "8", "--n1", "8", "--nz", "3",
                                  "--eps", "0.0", "--eps-prime", "0.25", "--seed", "21"])
    _rejected(result, "cannot create output directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


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
    ({"alpha": 10 ** 400}, "'alpha'"),
    ({"eps": -0.1}, "eps=-0.1 outside [0, 1)"),
    ({"eps": 1}, "eps=1 outside [0, 1)"),
    ({"eps_prime": 0.0}, "eps_prime=0.0 outside (0, 1)"),
    ({"eps_prime": 1.5}, "eps_prime=1.5 outside (0, 1)"),
    ({"eps": 0.5, "eps_prime": 0.5}, "eps + eps_prime = 1.0 leaves no probability"),
], ids=["string-n0", "string-eps", "nan-eps", "bool-count", "zero-nz",
        "string-eps-prime", "string-alpha", "huge-alpha", "negative-eps", "unit-eps",
        "zero-eps-prime", "large-eps-prime", "no-budget-left"])
def test_bad_entropy_config_values_are_rejected(runner, tmp_path, monkeypatch, bad, word):
    from otmlab import entropy as entropy_mod

    def no_compute(*args, **kwargs):
        raise AssertionError("entropy ran before validation")

    monkeypatch.setattr(entropy_mod, "split_joints", no_compute)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_ENTROPY_CONFIG, **bad)))
    _rejected(runner.invoke(main, ["entropy", "--output-dir", str(tmp_path / "out"),
                                   "--config", str(cfg)]), word)
    assert not (tmp_path / "out").exists()


_LEAK_PARAMS = {"k": 4, "ell": 4, "theta": 1.0, "delta0": 0.5, "alpha": 1.5, "eps0": 0.5,
                "gamma": 1.0}


@pytest.mark.parametrize("bad, word", [
    ({"hash_r": "4"}, "'hash_r'"),
    ({"hash_r": True}, "'hash_r'"),
    ({"hash_r": 0}, "'hash_r'"),
    ({"delta": "0.1"}, "'delta'"),
    ({"delta": math.inf}, "'delta'"),
    ({"model": {"name": "no-such-model"}}, "no-such-model"),
    ({"model": {"name": "wiesner", "m": 0}}, "m=0"),
    ({"model": {"name": "wiesner", "m": 1, "beta": 0.5}}, "unknown model parameters: beta"),
    ({"model": {"name": "classical-leak", "ell": 4, "beta": 0.25, "positions": 3}},
     "not iterable"),
    ({"params": dict(_LEAK_PARAMS, gamma=math.inf)}, "gamma=inf"),
    ({"params": dict(_LEAK_PARAMS, colour=1)}, "bad reduction parameter"),
], ids=["string-hash-r", "bool-hash-r", "zero-hash-r", "string-delta", "inf-delta",
        "unknown-model", "bad-wiesner-m", "unknown-model-field", "scalar-positions",
        "inf-gamma", "unknown-param"])
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


_POINT = {"k": 16, "ell": 16, "theta": 1.0, "delta0": 0.25, "alpha": 1.0, "eps0": 0.25,
          "gamma": 1.0}


@pytest.mark.parametrize("config, word", [
    ({"points": []}, "nonempty list"),
    ({"points": _POINT}, "nonempty list"),
    ({"points": [_POINT, 3]}, "mapping"),
    ({"points": [dict(_POINT, k=0)]}, "k=0"),
    ({"points": [_POINT, dict(_POINT, gamma=math.inf)]}, "gamma=inf"),
    ({"points": [dict(_POINT, colour=1)]}, "bad reduction parameter"),
    ({"points": [_POINT], "seed": 1}, "unknown parameters: seed"),
], ids=["empty", "not-a-list", "not-a-mapping", "zero-k", "inf-gamma", "unknown-param",
        "seed"])
def test_bad_theorem_points_are_rejected(runner, tmp_path, monkeypatch, config, word):
    from otmlab import otm as otm_mod

    def no_compute(*args, **kwargs):
        raise AssertionError("a bound was computed before validation")

    monkeypatch.setattr(otm_mod, "theorem_bound", no_compute)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    _rejected(runner.invoke(main, ["theorem-bounds", "--output-dir", str(tmp_path / "out"),
                                   "--config", str(cfg)]), word)
    assert not (tmp_path / "out").exists()


# a valid configuration of each stochastic subcommand, to corrupt one key of
_VALID = {
    "tails": {"kind": "linear", "ell": 6, "r": 4, "n": 8, "trials": 10000,
              "lambda_grid": [0.5], "seed": 7},
    "nets": {"family": "separable", "m": 1, "mu": 0.8, "samples": 10, "seed": 1},
    "entropy": _ENTROPY_CONFIG,
    "otm-security": {"model": {"name": "classical-leak", "ell": 4, "beta": 0.25},
                     "params": _LEAK_PARAMS, "hash_r": 4, "seed": 1},
}


def _error_line(result):
    """The one JSON error line a rejected run printed."""
    assert result.exit_code == 2, result.output
    lines = _stderr(result).strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "validation"
    return err["message"]


@pytest.mark.parametrize("command, key, text, value", [
    ("tails", "ell", "abc", "abc"),
    ("tails", "kind", "bogus", "bogus"),
    ("tails", "trials", "1e4", 1e4),
    ("tails", "lambda_grid", "0.5,nan", "0.5,nan"),
    ("nets", "family", "x", "x"),
    ("nets", "mu", "nan", math.nan),
    ("nets", "seed", "-1", -1),
    ("entropy", "count", "1.5", 1.5),
    ("entropy", "eps", "-0.5", -0.5),
    ("otm-security", "hash_r", "0", 0),
    ("otm-security", "delta", "inf", math.inf),
])
def test_bad_flag_value_fails_like_the_same_config_value(runner, tmp_path, monkeypatch, command,
                                                         key, text, value):
    # the rest of the configuration comes from a file, so each run differs
    # only in where the bad value comes from
    _no_draws(monkeypatch)
    rest = {k: v for k, v in _VALID[command].items() if k != key}
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(rest))
    by_flag = runner.invoke(main, [command, "--output-dir", str(out), "--config", str(cfg),
                                   "--" + key.replace("_", "-"), text])
    cfg.write_text(json.dumps(dict(rest, **{key: value})))
    by_config = runner.invoke(main, [command, "--output-dir", str(out), "--config", str(cfg)])
    message = _error_line(by_flag)
    assert message == _error_line(by_config) and key in message
    assert not out.exists()


@pytest.mark.parametrize("command, args, word", [
    ("tails", ["--bogus", "1"], "--bogus"),
    ("nets", ["--family"], "--family"),
    ("entropy", ["--eps-prime"], "--eps-prime"),
    ("otm-security", ["--seed", "1", "extra"], "extra"),
    ("theorem-bounds", ["--seed", "1"], "--seed"),
])
def test_flag_parse_errors_print_the_json_error(runner, tmp_path, monkeypatch, command, args,
                                                word):
    from otmlab import otm as otm_mod

    def no_compute(*a, **kw):
        raise AssertionError("a bound was computed before the flags parsed")

    _no_draws(monkeypatch)
    monkeypatch.setattr(otm_mod, "theorem_bound", no_compute)
    result = runner.invoke(main, [command, "--output-dir", str(tmp_path / "out")] + args)
    assert word in _error_line(result)
    assert not (tmp_path / "out").exists()


_COMMON_HELP = ["--config PATH JSON or YAML config file.",
                "--output-dir TEXT Output directory (default: $OTMLAB_OUTPUT_DIR or cwd).",
                "--out TEXT Artifact name prefix."]


@pytest.mark.parametrize("command, options", [
    ("tails", ["--kind [linear|quadratic]", "--ell INTEGER", "--r INTEGER", "--n INTEGER",
               "--trials INTEGER",
               "--lambda-grid TEXT Comma-separated thresholds; 0 rows report frequency 1.",
               "--mode [hash|rademacher] Sign source for quadratic instances.",
               "--seed INTEGER"]),
    ("nets", ["--family [separable|two-local]", "--m INTEGER", "--mu FLOAT",
              "--d INTEGER Circuit depth (two-local only).", "--samples INTEGER",
              "--seed INTEGER"]),
    ("entropy", ["--count INTEGER Random instances to draw.", "--n0 INTEGER", "--n1 INTEGER",
                 "--nz INTEGER", "--eps FLOAT", "--eps-prime FLOAT",
                 "--alpha FLOAT Joint level; defaults to each instance's smoothed entropy.",
                 "--seed INTEGER"]),
    ("otm-security", ["--hash-r INTEGER Independence order of the sampled F, G.",
                      "--delta FLOAT Outcome-negligibility level; defaults to params delta.",
                      "--seed INTEGER"]),
    ("theorem-bounds", []),
])
def test_help_lists_every_flag_with_its_help_and_choices(runner, command, options):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    text = " ".join(result.output.split())
    expected = _COMMON_HELP + options + ["--help Show this message and exit."]
    pos = [text.find(option) for option in expected]
    assert -1 not in pos and pos == sorted(pos), (text, expected)
    flags = [line.split()[0] for line in result.output.splitlines()
             if line.strip().startswith("--")]
    assert flags == [option.split()[0] for option in expected]
