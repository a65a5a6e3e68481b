import math

import numpy as np
import pytest
from scipy.optimize import linprog

import otmlab.entropy as entropy_mod
from otmlab.entropy import (
    CondDist,
    SmoothingEvent,
    SplitNotCertifiedError,
    entropy_split,
    joint_cond_dist,
    min_entropy,
    smoothed_min_entropy,
)


def _random_cond_dist(rng, nx, ny):
    t = rng.random((ny, nx)) + 0.01
    t /= t.sum(axis=1, keepdims=True)
    py = rng.random(ny) + 0.01
    py /= py.sum()
    return CondDist(t, py)


def _lp_smoothed(p, eps):
    """Brute-force LP oracle: minimize the cap h over retention weights w
    with w*P <= h cellwise and kept probability >= 1 - eps."""
    live = p.p_y > 0
    masses = p.p_x_given_y[live].ravel()
    budgets = np.repeat(p.p_y[live], p.nx)
    n = masses.size
    # variables: w_1..w_n, h
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((n + 1, n + 1))
    b_ub = np.zeros(n + 1)
    for i in range(n):
        a_ub[i, i] = masses[i]
        a_ub[i, -1] = -1.0
    a_ub[n, :n] = -budgets * masses
    b_ub[n] = -(1.0 - eps)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0.0, 1.0)] * n + [(0.0, None)], method="highs")
    assert res.success
    return -math.log2(res.x[-1])


# ---------------------------------------------------------------------------
# CondDist
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table, marginal", [
    ([[math.nan, 0.5]], [1.0]),
    ([[0.5, 0.5]], [math.nan]),
    ([[math.inf, 0.5]], [1.0]),
    ([[0.5, 0.5]], [-math.inf]),
    ([[math.nan]], [0.5, 0.5]),  # the finiteness check comes before the shape check
])
def test_cond_dist_rejects_non_finite(table, marginal):
    with pytest.raises(ValueError, match="finite"):
        CondDist(table, marginal)


def test_cond_dist_validation():
    with pytest.raises(ValueError):
        CondDist([[0.5, 0.6]], [1.0])  # slice sums to 1.1
    with pytest.raises(ValueError):
        CondDist([[0.5, -0.5]], [1.0])
    with pytest.raises(ValueError):
        CondDist([[1.0]], [0.5])  # marginal not normalized
    with pytest.raises(ValueError):
        CondDist([[1.0]], [1.0], x_alphabet=["a", "b"])
    # dead slice may sum to 0 or 1, anything else is rejected
    CondDist([[0.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
    CondDist([[1.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
    with pytest.raises(ValueError):
        CondDist([[0.3, 0.0], [0.5, 0.5]], [0.0, 1.0])


def test_smoothing_event_bounds():
    with pytest.raises(ValueError):
        SmoothingEvent([[1.2]])
    ev = SmoothingEvent([[0.0, 1.0]])
    assert ev.weights.shape == (1, 2)


# ---------------------------------------------------------------------------
# min-entropy
# ---------------------------------------------------------------------------

def test_min_entropy_basics():
    uniform = CondDist(np.full((1, 8), 1 / 8), [1.0])
    assert min_entropy(uniform) == pytest.approx(3.0)
    point = CondDist([[1.0, 0.0]], [1.0])
    assert min_entropy(point) == 0.0
    p = CondDist([[0.5, 0.25, 0.25]], [1.0])
    assert min_entropy(p) == pytest.approx(1.0)


def test_min_entropy_ignores_dead_slices():
    # the dead slice holds a point mass that would read as 0 bits if scanned
    p = CondDist([[1.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
    assert min_entropy(p) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# smoothed min-entropy
# ---------------------------------------------------------------------------

def test_smoothed_zero_eps_equals_min_entropy():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = _random_cond_dist(rng, 5, 3)
        assert smoothed_min_entropy(p, 0.0)["value"] == pytest.approx(min_entropy(p), abs=1e-12)


def test_smoothed_half_quarter_quarter():
    p = CondDist([[0.5, 0.25, 0.25]], [1.0])
    res = smoothed_min_entropy(p, 0.25)
    assert res["value"] == pytest.approx(2.0, abs=1e-12)
    assert res["event_probability"] == pytest.approx(0.75, abs=1e-12)
    # the witnessing event trims only the top mass
    assert np.allclose(res["event"].weights, [[0.5, 1.0, 1.0]])


def test_smoothed_witness_contract():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p = _random_cond_dist(rng, 6, 3)
        eps = float(rng.random() * 0.6)
        res = smoothed_min_entropy(p, eps)
        w = res["event"].weights
        assert res["event_probability"] >= 1.0 - eps - 1e-12
        smoothed = p.p_x_given_y * w
        assert smoothed.max() <= 2.0 ** (-res["value"]) + 1e-12


def test_smoothed_monotone_in_eps():
    rng = np.random.default_rng(14)
    p = _random_cond_dist(rng, 6, 3)
    values = [smoothed_min_entropy(p, e)["value"] for e in (0.0, 0.1, 0.2, 0.4, 0.6)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_smoothed_matches_lp_oracle():
    rng = np.random.default_rng(15)
    for _ in range(20):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(1, 4))
        p = _random_cond_dist(rng, nx, ny)
        eps = float(rng.random() * 0.5)
        wf = smoothed_min_entropy(p, eps)["value"]
        lp = _lp_smoothed(p, eps)
        assert wf == pytest.approx(lp, abs=1e-9)


def test_smoothed_rejects_bad_eps():
    p = CondDist([[1.0]], [1.0])
    with pytest.raises(ValueError):
        smoothed_min_entropy(p, 1.0)
    with pytest.raises(ValueError):
        smoothed_min_entropy(p, -0.1)


# ---------------------------------------------------------------------------
# entropy splitting
# ---------------------------------------------------------------------------

def test_split_uniform_vs_constant():
    # X0 uniform on 256 values, X1 constant, Z trivial, alpha = 8
    table = np.full((1, 256, 1), 1 / 256)
    p = joint_cond_dist(table, [1.0])
    res = entropy_split(p, 8.0, 0.0, 0.25)
    assert (res["C"] == 1.0).all()  # nothing is heavy; hidden variable is X0
    cert = res["certificate"]
    assert cert["bound"] == pytest.approx(8.0 / 2 - 1 - 2)
    assert cert["value"] >= cert["bound"]
    assert cert["rule"] == "heaviness"


def test_split_independent_uniform():
    ell = 3
    n = 1 << ell
    table = np.full((1, n, n), 1.0 / n ** 2)
    p = joint_cond_dist(table, [1.0])
    res = entropy_split(p, 2.0 * ell, 0.0, 0.5)
    cert = res["certificate"]
    assert cert["bound"] == pytest.approx(ell - 1 - 1)
    assert cert["value"] >= cert["bound"]
    # constant C: the heaviness rule never fires on a flat marginal
    assert np.unique(res["C"]).size == 1


def test_split_precondition_enforced():
    table = np.full((1, 4, 4), 1 / 16)
    p = joint_cond_dist(table, [1.0])
    with pytest.raises(ValueError):
        entropy_split(p, 10.0, 0.0, 0.25)  # joint entropy is only 4
    with pytest.raises(ValueError):
        entropy_split(p, 4.0, 0.0, 1.5)  # eps_prime out of range
    with pytest.raises(ValueError):
        entropy_split(p, 4.0, 0.6, 0.5)  # eps + eps_prime >= 1


def test_split_random_joints_always_certify():
    rng = np.random.default_rng(17)
    for _ in range(15):
        t = rng.random((2, 4, 4)) + 0.01
        t /= t.sum(axis=(1, 2), keepdims=True)
        pz = rng.random(2) + 0.1
        pz /= pz.sum()
        p = joint_cond_dist(t, pz)
        alpha = min_entropy(p)
        res = entropy_split(p, alpha, 0.0, 0.25)
        cert = res["certificate"]
        assert cert["value"] >= cert["bound"] - 1e-9
        # recompute certifiability from scratch on the extended alphabet
        hidden = entropy_mod._hidden_table(p, res["C"])
        again = smoothed_min_entropy(hidden, 0.25)["value"]
        assert again >= cert["bound"] - 1e-9
        # the returned event witnesses the stated value with budget to spare
        retained = hidden.p_x_given_y * cert["event"]
        assert retained.max() <= 2.0 ** (-cert["value"]) + 1e-12
        pr_event = float((hidden.p_y[:, None] * retained).sum())
        assert pr_event == pytest.approx(cert["event_probability"], abs=1e-12)
        assert pr_event >= 1.0 - 0.25 - 1e-9
        # the witness is the cheapest one: nothing below 2^{-bound} is touched
        untouched = hidden.p_x_given_y <= 2.0 ** (-cert["bound"]) + 1e-15
        assert np.all(cert["event"][untouched] == 1.0)


def test_hidden_table_hand_case():
    # joint on 2x2, trivial Z, deterministic C = [x0 == 1]
    table = np.array([[[0.4, 0.1], [0.2, 0.3]]])
    p = joint_cond_dist(table, [1.0])
    q = np.zeros((2, 2, 1))
    q[1, :, 0] = 1.0
    hidden = entropy_mod._hidden_table(p, q)
    assert np.allclose(hidden.p_y, [0.5, 0.5])
    # y = (z, 0): hidden is X1 with masses (0.4, 0.1)/0.5
    assert np.allclose(hidden.p_x_given_y[0], [0.0, 0.0, 0.8, 0.2])
    # y = (z, 1): hidden is X0, all mass on x0 = 1
    assert np.allclose(hidden.p_x_given_y[1], [0.0, 1.0, 0.0, 0.0])


def test_split_not_certified_error(monkeypatch):
    # the splitting lemma always holds for honest inputs, so the failure
    # branch is forced here by sabotaging the certificate recomputation
    table = np.full((1, 4, 4), 1 / 16)
    p = joint_cond_dist(table, [1.0])
    real = entropy_mod.smoothed_min_entropy

    def lowball(dist, eps):
        res = real(dist, eps)
        if isinstance(dist.x_alphabet[0], tuple) and dist.x_alphabet[0][0] in ("x0", "x1"):
            res = dict(res, value=res["value"] - 100.0)
        return res

    monkeypatch.setattr(entropy_mod, "smoothed_min_entropy", lowball)
    with pytest.raises(SplitNotCertifiedError) as exc:
        entropy_split(p, 4.0, 0.0, 0.9)
    assert exc.value.best_value < -90.0

