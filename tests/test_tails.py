import csv
import hashlib
import math

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import bdtr
from scipy.stats import beta

from otmlab.cli import main
from otmlab.hashfam import BinaryField, HashFunction
from otmlab.tails import (
    CHUNK,
    LinearInstance,
    QuadraticInstance,
    _sign_chunks,
    _tally,
    clopper_pearson_upper,
    crayfish_bound,
    empirical_tail_linear,
    empirical_tail_quadratic,
    kite_bound,
)

from hash_oracle import seed_hash_bits


# ---------------------------------------------------------------------------
# Instance types
# ---------------------------------------------------------------------------

def test_linear_instance_caches_v():
    inst = LinearInstance([0.5, -0.5, 1.0])
    assert abs(inst.v - 1.5) <= 1e-12
    assert inst.n == 3
    with pytest.raises(ValueError):
        LinearInstance([])
    with pytest.raises(ValueError):
        LinearInstance([1.0, np.inf])


def test_quadratic_instance_norms_against_eigen_oracle():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8))
    a = a + a.T
    inst = QuadraticInstance(a)
    abs_a = np.abs(a)
    assert inst.abs_frobenius == pytest.approx(np.sqrt((abs_a ** 2).sum()), abs=1e-10)
    assert inst.abs_operator == pytest.approx(np.abs(np.linalg.eigvalsh(abs_a)).max(), abs=1e-10)
    assert inst.abs_operator <= inst.abs_frobenius + 1e-12


def test_quadratic_instance_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticInstance([[0.0, 1.0], [1.0 + 1e-15, 0.0]])
    with pytest.raises(ValueError, match="square"):
        QuadraticInstance([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        QuadraticInstance([[0.0, math.inf], [math.inf, 0.0]])


# ---------------------------------------------------------------------------
# Closed forms, against independent high-precision evaluation
# ---------------------------------------------------------------------------

def test_kite_value_t2():
    # 2 e^{1/12} sqrt(2 pi) * (2 / (100 e)) at v=1, lam=10
    with mpmath.workdps(60):
        expect = float(2 * mpmath.e ** (mpmath.mpf(1) / 12) * mpmath.sqrt(2 * mpmath.pi)
                       * (mpmath.mpf(2) / (100 * mpmath.e)))
    got = kite_bound(2, 1.0, 10.0)
    assert got == pytest.approx(expect, rel=1e-15)
    assert got == pytest.approx(0.0401, abs=5e-5)


def test_kite_zero_variance_and_monotone():
    assert kite_bound(4, 0.0, 0.5) == 0.0
    grid = np.geomspace(0.1, 100.0, 40)
    vals = [kite_bound(4, 1.0, lam) for lam in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def _kite_log2(t, v, lam):
    # log2 of 2 e^{1/(6t)} sqrt(pi t) (v t / (e lam^2))^{t/2}, in plain floats
    return (1.0 + 1.0 / (6 * t * math.log(2)) + 0.5 * math.log2(math.pi * t)
            + (t / 2) * (math.log2(v * t / lam ** 2) - 1.0 / math.log(2)))


def test_kite_log2_consistent_and_extreme():
    b = kite_bound(8, 2.5, 3.0)
    assert math.log2(b) == pytest.approx(_kite_log2(8, 2.5, 3.0), rel=1e-13)
    # t in the thousands: the log stays finite while the value saturates
    assert _kite_log2(2048, 1.0, 1e-3) > 1e4 and math.isinf(kite_bound(2048, 1.0, 1e-3))
    assert _kite_log2(2048, 1.0, 1e6) < -1e4 and kite_bound(2048, 1.0, 1e6) == 0.0
    # inside the float range the 2048-wise value still matches its log
    lam = math.sqrt(2048 / math.e) * 1.1
    assert math.log2(kite_bound(2048, 1.0, lam)) == pytest.approx(
        _kite_log2(2048, 1.0, lam), rel=1e-9)


def test_kite_rejects_bad_args():
    with pytest.raises(ValueError):
        kite_bound(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        kite_bound(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        kite_bound(2, 1.0, -0.5)
    with pytest.raises(ValueError):
        kite_bound(2, -1.0, 1.0)
    # lam = 0 is the vacuous boundary, not an error
    assert kite_bound(2, 1.0, 0.0) == math.inf
    assert crayfish_bound(2, 1.0, 0.5, 0.0) == math.inf


def test_crayfish_value_t2():
    with mpmath.workdps(60):
        t = mpmath.mpf(2)
        lam = mpmath.mpf(100)
        term1 = 4 * mpmath.e ** (1 / (6 * t)) * mpmath.sqrt(mpmath.pi * t) \
            * (4 * t / (mpmath.e * lam ** 2)) ** (t / 2)
        term2 = 4 * mpmath.e ** (1 / (12 * t)) * mpmath.sqrt(2 * mpmath.pi * t) \
            * (8 * t / (mpmath.e * lam)) ** t
        expect = float(term1 + term2)
    assert crayfish_bound(2, 1.0, 1.0, 100.0) == pytest.approx(expect, rel=1e-15)


def test_crayfish_zero_and_scaling():
    assert crayfish_bound(2, 0.0, 0.0, 1.0) == 0.0
    # doubling lam at t=2 reduces both terms at least 2x (each is ~lam^-2)
    for lam in (1.0, 5.0, 20.0):
        assert crayfish_bound(2, 1.0, 0.5, 2 * lam) <= crayfish_bound(2, 1.0, 0.5, lam) / 2
    assert math.isinf(crayfish_bound(2048, 1.0, 0.5, 1e-3))
    assert crayfish_bound(2048, 1.0, 0.5, 1e6) == 0.0


def test_crayfish_rejects_op_above_frob():
    with pytest.raises(ValueError):
        crayfish_bound(2, 1.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="lam"):
        crayfish_bound(2, 1.0, 0.5, -1.0)
    with pytest.raises(ValueError, match="norms"):
        crayfish_bound(2, -1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Clopper-Pearson
# ---------------------------------------------------------------------------

def test_clopper_pearson_values():
    # k=0: UCL solves (1-p)^n = 0.01, i.e. p = 1 - 0.01^(1/n)
    assert clopper_pearson_upper(0, 100) == pytest.approx(1 - 0.01 ** (1 / 100), rel=1e-10)
    assert clopper_pearson_upper(100, 100) == 1.0
    assert 0.0 < clopper_pearson_upper(5, 1000) < 1.0
    with pytest.raises(ValueError):
        clopper_pearson_upper(5, 4)


def test_clopper_pearson_matches_beta_quantile_and_binomial_tail():
    # the limit is the 0.99 quantile of Beta(k+1, n-k), and the binomial
    # lower tail Pr(X <= k) at that proportion is exactly the 1% left over
    for n in (10 ** 3, 10 ** 4, 5 * 10 ** 4, 10 ** 5):
        ks = sorted({0, 1, 2, 5, 10, 50, n // 100, n // 10, n // 2, n - 2, n - 1})
        for k in ks:
            upper = clopper_pearson_upper(k, n)
            assert upper == float(beta.ppf(0.99, k + 1, n - k))
            assert bdtr(k, n, upper) == pytest.approx(0.01, rel=1e-9)


# ---------------------------------------------------------------------------
# Monte Carlo: sign generation cross-check against direct hash evaluation
# ---------------------------------------------------------------------------

def test_sign_chunks_match_direct_hash_eval():
    ell, r, npts = 4, 3, 10
    seed = 99
    chunk = next(_sign_chunks(ell, r, npts, 64, np.random.default_rng(seed)))
    bits = np.random.default_rng(seed).integers(0, 2, size=(64, r * ell), dtype=np.uint8)
    for row in range(64):
        # seed bit i*ell + b is bit b of coefficient i
        coeffs = [sum(int(bits[row, i * ell + b]) << b for b in range(ell)) for i in range(r)]
        h = HashFunction(BinaryField(ell), coeffs)
        expect = np.array([1.0 - 2.0 * h(x) for x in range(npts)])
        assert np.array_equal(chunk[row], expect)


# ---------------------------------------------------------------------------
# Monte Carlo harnesses
# ---------------------------------------------------------------------------

def test_empirical_linear_trivial_cases():
    rng = np.random.default_rng(0)
    res = empirical_tail_linear(LinearInstance([0.0, 0.0]), 4, 2, [0.0, 0.5], 10 ** 4, rng)
    assert res["freqs"][0] == 1.0  # |Y| >= 0 always
    assert res["freqs"][1] == 0.0
    assert res["sample_mean"] == 0.0


def test_empirical_linear_two_point_distribution():
    # weights (1, 2) under pairwise independence: |Y| is 3 or 1, each w.p. 1/2
    rng = np.random.default_rng(1)
    res = empirical_tail_linear(LinearInstance([1.0, 2.0]), 4, 2, [0.5, 2.0, 3.5], 10 ** 4, rng)
    assert res["freqs"][0] == 1.0
    assert res["freqs"][1] == pytest.approx(0.5, abs=0.02)
    assert res["freqs"][2] == 0.0
    # mean-zero invariant at 5 standard errors
    assert abs(res["sample_mean"]) <= 5 * res["sample_std"] / math.sqrt(res["trials"])


def test_empirical_linear_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        empirical_tail_linear(LinearInstance([1.0]), 4, 2, [1.0], 10 ** 3, rng)
    with pytest.raises(ValueError):
        empirical_tail_linear(LinearInstance(np.ones(17)), 4, 2, [1.0], 10 ** 4, rng)
    with pytest.raises(ValueError):
        empirical_tail_linear(LinearInstance([1.0]), 4, 2, [-1.0], 10 ** 4, rng)
    with pytest.raises(ValueError, match="1-d"):
        empirical_tail_linear(LinearInstance([1.0]), 4, 2, [[1.0]], 10 ** 4, rng)
    # sample_hash's contract r <= 2^ell holds for the sampled seed bits too
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="exceeds domain size"):
        empirical_tail_linear(LinearInstance(np.ones(8)), 3, 9, [1.0], 10 ** 4, rng)
    assert rng.bit_generator.state == state


def test_empirical_quadratic_identity_matrix_cancels():
    # S = sum_x A_xx (xi_x^2 - 1) = 0 identically
    rng = np.random.default_rng(3)
    res = empirical_tail_quadratic(QuadraticInstance(np.eye(4)), 4, 2, [0.5, 1.0], 10 ** 4, rng)
    assert (res["freqs"] == 0.0).all()
    assert res["sample_mean"] == 0.0 and res["sample_std"] == 0.0


def test_empirical_quadratic_rademacher_mean_zero():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(16, 16))
    a = a + a.T
    inst = QuadraticInstance(a)
    res = empirical_tail_quadratic(inst, 4, 2, [1.0], 10 ** 4, np.random.default_rng(5),
                                   mode="rademacher")
    se = res["sample_std"] / math.sqrt(res["trials"])
    assert abs(res["sample_mean"]) <= 5 * se


def test_empirical_quadratic_mode_guards():
    rng = np.random.default_rng(0)
    inst = QuadraticInstance(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        empirical_tail_quadratic(inst, 3, 2, [1.0], 10 ** 4, rng, mode="bogus")
    with pytest.raises(ValueError, match="trials"):
        empirical_tail_quadratic(inst, 3, 2, [1.0], 10 ** 4 - 1, rng)
    with pytest.raises(ValueError):
        # hash mode needs 9 domain points but 2^3 = 8 are available
        empirical_tail_quadratic(QuadraticInstance(np.zeros((9, 9))), 3, 2, [1.0], 10 ** 4, rng)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_tails_reject_non_finite_thresholds(bad):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="finite"):
        empirical_tail_linear(LinearInstance([1.0, 2.0]), 4, 2, [bad, 0.5], 10 ** 4, rng)
    with pytest.raises(ValueError, match="finite"):
        empirical_tail_quadratic(QuadraticInstance(np.eye(2)), 4, 2, [0.5, bad], 10 ** 4, rng)
    assert rng.bit_generator.state == state  # rejected before any draw


def test_rademacher_domination_light():
    # light version of criterion 03's rademacher half: fully independent
    # signs are 2t-wise independent for every t, so the chaos bound applies
    rng = np.random.default_rng(7)
    a = rng.normal(size=(16, 16))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    inst = QuadraticInstance(a / np.linalg.norm(a))
    grid = np.geomspace(0.5, 30.0, 12)
    res = empirical_tail_quadratic(inst, 6, 2, grid, 2 * 10 ** 4,
                                   np.random.default_rng(8), mode="rademacher")
    asserted = 0
    for lam, ucl in zip(grid, res["upper_cl_99"]):
        bound = crayfish_bound(2, inst.abs_frobenius, inst.abs_operator, lam)
        if bound <= 1.0:
            assert ucl <= bound, (lam, ucl, bound)
            asserted += 1
    assert asserted >= 1




# ---------------------------------------------------------------------------
# Bit identity with the oracle pipeline: seed bits packed into coefficients,
# evaluated from per-coefficient-byte tables, signs in fresh arrays.  Neither
# the seed-byte tables nor the reused sign buffer may move a single bit of
# any result, sample_mean and sample_std included.
# ---------------------------------------------------------------------------

def _fresh_sign_chunks(draw, trials):
    done = 0
    while done < trials:
        c = min(CHUNK, trials - done)
        yield 1.0 - 2.0 * draw(c)
        done += c


def _fresh_hash_draw(ell, r, npoints, rng):
    return lambda c: seed_hash_bits(ell, r, np.arange(npoints),
                                    rng.integers(0, 2, size=(c, r * ell), dtype=np.uint8))


def _assert_same_result(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype and np.array_equal(got[key], value), key
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


TRIALS = 2 * CHUNK + 37  # two full chunks and a ragged one


@pytest.mark.parametrize("n", [37, 1024, 3001])
def test_linear_results_equal_fresh_array_path(n):
    ell, r, grid = 12, 4, [0.5, 1.0, 2.0, 3.0]
    w = np.random.default_rng(n).normal(size=n)
    inst = LinearInstance(w / np.linalg.norm(w))
    got = empirical_tail_linear(inst, ell, r, grid, TRIALS, np.random.default_rng(40 + n))
    draw = _fresh_hash_draw(ell, r, n, np.random.default_rng(40 + n))
    want = _tally((signs @ inst.weights for signs in _fresh_sign_chunks(draw, TRIALS)),
                  grid, TRIALS)
    _assert_same_result(got, want)


@pytest.mark.parametrize("ell,r,npoints", [(1, 2, 2), (3, 5, 7), (7, 3, 100), (10, 9, 1000),
                                           (63, 3, 13)])
def test_sign_chunks_equal_oracle_pipeline(ell, r, npoints):
    # r * ell is no multiple of 8 and the last chunk is ragged
    trials = CHUNK + 5
    got = [chunk.copy() for chunk in _sign_chunks(ell, r, npoints, trials,
                                                  np.random.default_rng(ell))]
    draw = _fresh_hash_draw(ell, r, npoints, np.random.default_rng(ell))
    want = list(_fresh_sign_chunks(draw, trials))
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("n,mode", [(32, "hash"), (300, "hash"), (32, "rademacher"),
                                    (300, "rademacher")])
def test_quadratic_results_equal_fresh_array_path(n, mode):
    ell, r, grid = 9, 8, [1.0, 5.0, 20.0]
    a = np.random.default_rng(n).normal(size=(n, n))
    inst = QuadraticInstance(a + a.T)
    got = empirical_tail_quadratic(inst, ell, r, grid, TRIALS, np.random.default_rng(50 + n),
                                   mode=mode)
    rng = np.random.default_rng(50 + n)
    if mode == "hash":
        draw = _fresh_hash_draw(ell, r, n, rng)
    else:
        def draw(c):
            return rng.integers(0, 2, size=(c, n)).astype(np.float64)
    tr = float(np.trace(inst.a))
    want = _tally((((signs @ inst.a) * signs).sum(axis=1) - tr
                   for signs in _fresh_sign_chunks(draw, TRIALS)), grid, TRIALS)
    _assert_same_result(got, want)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_tail_csv_round_trip(tmp_path):
    result = CliRunner().invoke(main, [
        "tails", "--output-dir", str(tmp_path), "--kind", "linear", "--ell", "3",
        "--r", "2", "--n", "2", "--trials", "10000", "--lambda-grid", "0.5,1,2",
        "--seed", "9"])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "tails.csv", newline="") as fh:
        back = list(csv.DictReader(fh))
    # the instance's weights are the run's first draw
    w = np.random.default_rng(9).normal(size=2)
    inst = LinearInstance(w / np.linalg.norm(w))
    assert len(back) == 3
    assert back[0]["bound_name"] == "kite" and back[0]["t"] == "2"
    assert float(back[1]["lambda"]) == 1.0
    # "%.17g" cells round-trip the closed form exactly
    assert float(back[2]["closed_form_bound"]) == kite_bound(2, inst.v, 2.0)
    assert back[0]["trials"] == str(10 ** 4) and back[0]["seed"] == "9"


_README_QUADRATIC = ("kind: quadratic\nell: 6\nr: 8\nn: 32\ntrials: 50000\n"
                     "lambda_grid: [0.1, 0.3, 0.9]\nmode: {mode}\nseed: 11\n")


@pytest.mark.parametrize("args, yaml_text, digest", [
    (["--kind", "linear", "--ell", "6", "--r", "4", "--n", "64", "--trials", "100000",
      "--lambda-grid", "0.2,0.4,0.8", "--seed", "7"], None,
     "25ee47ad3644520cb806c6121b6714017e42ac210977d290c62bbfeb9b85293d"),
    ([], _README_QUADRATIC.format(mode="hash"),
     "189f579106f0259d505e289315e515bee22b8d006a1604952d5cc50518853d32"),
    ([], _README_QUADRATIC.format(mode="rademacher"),
     "ac908e754e2933f8a67b161d669d58a7e7bfe1317f0d2c3137d5a250190232a6"),
    (["--kind", "linear", "--ell", "10", "--r", "8", "--n", "1024", "--trials", "100000",
      "--lambda-grid", "0.5,1.0,2.0,3.0,4.0,5.0", "--seed", "11"], None,
     "76d5265c063fe5a0ca83164eb41ac3551829667c9741d23e988e0e6ffa5db637"),
], ids=["readme-linear", "readme-quadratic-hash", "readme-quadratic-rademacher",
        "bench-linear"])
def test_tails_csv_is_pinned(tmp_path, args, yaml_text, digest):
    # the README's linear command and YAML quadratic config (in both modes),
    # and the benchmark's linear config; the digests are those of the
    # coefficient-byte pipeline with a two-pass sign fill.  The CSV holds
    # frequencies only, so a last-bit change in a BLAS sum cannot move it
    # unless a sum lands on a threshold.
    if yaml_text is not None:
        (tmp_path / "tails.yaml").write_text(yaml_text)
        args = ["--config", str(tmp_path / "tails.yaml")]
    result = CliRunner().invoke(main, ["tails", "--output-dir", str(tmp_path / "out")] + args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256((tmp_path / "out" / "tails.csv").read_bytes()).hexdigest() == digest
