import csv
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
    LinearInstance,
    QuadraticInstance,
    _sign_chunks,
    clopper_pearson_upper,
    crayfish_bound,
    empirical_tail_linear,
    empirical_tail_quadratic,
    hanson_wright_bound,
    kite_bound,
)


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


def test_hanson_wright_branches():
    assert hanson_wright_bound(1e-12, 1.0, 1.0) == pytest.approx(1.0)
    # linear branch: min(8/1, 64/1) = 8 -> exp(-1)
    assert hanson_wright_bound(8.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    # quadratic branch: min(1/1, 1/4) = 1/4 -> exp(-1/32)
    assert hanson_wright_bound(1.0, 2.0, 1.0) == pytest.approx(math.exp(-1.0 / 32), rel=1e-15)
    with pytest.raises(ValueError):
        hanson_wright_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        hanson_wright_bound(1.0, 0.0, 1.0)


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
    # light version of the acceptance run: grid kept where the bound is
    # well above the Monte Carlo resolution (~5e-4 at 1e4 trials)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(16, 16))
    a = a + a.T
    inst = QuadraticInstance(a)
    grid = np.geomspace(0.5 * inst.abs_frobenius, 6 * inst.abs_frobenius, 8)
    res = empirical_tail_quadratic(inst, 6, 2, grid, 2 * 10 ** 4,
                                   np.random.default_rng(8), mode="rademacher")
    for lam, ucl in zip(grid, res["signed_upper_cl_99"]):
        bound = hanson_wright_bound(lam, inst.abs_frobenius, inst.abs_operator)
        if 5e-3 <= bound <= 1.0:
            assert ucl <= bound, (lam, ucl, bound)



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
