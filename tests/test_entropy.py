import math
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import otmlab.entropy as entropy_mod
import split_oracle
from otmlab.entropy import (
    CondDist,
    SplitNotCertifiedError,
    entropy_split,
    joint_cond_dist,
    min_entropy,
    smoothed_min_entropy,
)
from otmlab.otm import ClassicalLeakSim


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
    with pytest.raises(ValueError, match="matching p_y"):
        CondDist([[0.5, 0.5]], [0.5, 0.5])  # two marginal entries for one row
    with pytest.raises(ValueError, match="empty"):
        CondDist(np.zeros((1, 0)), [1.0])
    with pytest.raises(ValueError, match="shape"):
        joint_cond_dist([[0.5, 0.5]], [1.0])  # not (nz, n0, n1)
    with pytest.raises(ValueError, match="pair shape"):
        CondDist([[1.0]], [1.0], pair_shape=(1, 2))
    with pytest.raises(ValueError, match="pair shape"):
        CondDist([[0.5, 0.5]], [1.0], pair_shape=(2,))
    assert CondDist([[0.5, 0.5]], [1.0], pair_shape=(1, 2)).pair_shape == (1, 2)
    # dead slice may sum to 0 or 1, anything else is rejected
    CondDist([[0.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
    CondDist([[1.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
    with pytest.raises(ValueError):
        CondDist([[0.3, 0.0], [0.5, 0.5]], [0.0, 1.0])


def test_cond_dist_names_the_first_bad_slice():
    # a live slice and a dead slice both fail; the message names the first
    with pytest.raises(ValueError) as exc:
        CondDist([[0.5, 0.5], [0.5, 0.6], [0.3, 0.0]], [0.5, 0.5, 0.0])
    assert str(exc.value) == "conditional slice y=1 sums to np.float64(1.1)"
    with pytest.raises(ValueError) as exc:
        CondDist([[0.5, 0.5], [0.3, 0.0], [0.5, 0.6]], [0.5, 0.0, 0.5])
    assert str(exc.value) == "zero-probability slice y=1 sums to np.float64(0.3) (want 0 or 1)"


def test_smoothing_event_bounds():
    # the witnessing event is a read-only (ny, nx) weight array in [0, 1]
    rng = np.random.default_rng(15)
    for eps in (0.0, 0.3, 0.9):
        ev = smoothed_min_entropy(_random_cond_dist(rng, 4, 2), eps)["event"]
        assert ev.shape == (2, 4)
        assert ((0.0 <= ev) & (ev <= 1.0)).all()
        assert not ev.flags.writeable


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


def test_min_entropy_equals_live_max_oracle():
    # random tables with zero cells and dead slices, then the two faults
    # (no live slice; only zeros live), which CondDist itself never builds
    rng = np.random.default_rng(23)
    for _ in range(30):
        ny, nx = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        t, p_y = _random_stack(rng, 1, ny, nx, ny > 1 and rng.random() < 0.5)
        p = CondDist(t[0], p_y[0])
        assert repr(min_entropy(p)) == repr(split_oracle.min_entropy(p))
    for t, p_y in ((np.full((2, 3), 1 / 3), np.zeros(2)),
                   (np.zeros((2, 3)), np.array([1.0, 0.0]))):
        p = SimpleNamespace(p_x_given_y=t, p_y=p_y)
        with pytest.raises(ValueError) as want:
            split_oracle.min_entropy(p)
        with pytest.raises(ValueError) as got:
            min_entropy(p)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_min_entropy_ignores_dead_slices():
    # the dead slice holds a point mass that would read as 0 bits if scanned
    p = CondDist([[1.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
    assert min_entropy(p) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# smoothed min-entropy
# ---------------------------------------------------------------------------

def _waterfill_segment_loop(masses, budgets, eps):
    """The per-segment scan `_waterfill_level` replaced, kept as its oracle."""
    order = np.argsort(masses)[::-1]
    m = masses[order]
    b = budgets[order]
    cum_b = np.cumsum(b)
    cum_bm = np.cumsum(b * m)
    if eps <= 0:
        return float(m[0])
    for j in range(m.size):
        lower = m[j + 1] if j + 1 < m.size else 0.0
        if cum_b[j] <= 0:
            continue
        h = (cum_bm[j] - eps) / cum_b[j]
        if lower <= h <= m[j]:
            return float(max(h, 0.0))
    return 0.0


def _oracle_waterfill_level(masses, budgets, eps):
    """The per-table `_waterfill_level` the row-wise one replaced."""
    if eps <= 0:
        return float(masses.max())
    order = np.argsort(masses)[::-1]
    m = masses[order]
    b = budgets[order]
    cum_b = np.cumsum(b)
    cum_bm = np.cumsum(b * m)
    live = cum_b > 0
    h = np.divide(cum_bm - eps, cum_b, out=np.zeros_like(cum_b), where=live)
    lower = np.append(m[1:], 0.0)
    hit = np.flatnonzero(live & (lower <= h) & (h <= m))
    return float(max(h[hit[0]], 0.0)) if hit.size else 0.0


def _oracle_smoothed(p, eps):
    """The per-table `smoothed_min_entropy` the stacked smoothing replaced."""
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps=%r outside [0, 1)" % (eps,))
    live = p.p_y > 0
    if not live.any():
        raise ValueError("no y value has positive probability")
    t = p.p_x_given_y
    budgets = np.repeat(p.p_y, p.nx).reshape(p.ny, p.nx)
    flat_m = t[live].ravel()
    flat_b = budgets[live].ravel()
    if flat_m.max() <= 0:
        raise ValueError("empty support: all conditional masses are zero")
    h = _oracle_waterfill_level(flat_m, flat_b, eps)
    weights = np.ones_like(t)
    pos = t > 0
    np.minimum(1.0, np.divide(h, t, out=np.full_like(t, np.inf), where=pos), out=weights, where=pos)
    weights[~live, :] = 1.0
    pr_event = float((p.p_y[:, None] * t * weights).sum())
    if h <= 0:
        raise ValueError("smoothing removed the entire distribution (eps=%r)" % (eps,))
    return {"value": -math.log2(h), "event": weights,
            "event_probability": pr_event}


_unit = st.floats(0.0, 1.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_waterfill_level_matches_segment_loop(data):
    # rows of ny slices of nx cells; a pool of values shared by every row
    # makes ties within and across rows likely, zero budgets switch segments
    # off, and dead slices must never be hit
    rows = data.draw(st.integers(1, 4), label="rows")
    ny, nx = data.draw(st.integers(1, 4), label="ny"), data.draw(st.integers(1, 10), label="nx")
    pool = data.draw(st.lists(_unit, min_size=1, max_size=4), label="pool")

    def table(cell):
        return np.array(data.draw(st.lists(st.lists(cell, min_size=ny * nx, max_size=ny * nx),
                                           min_size=rows, max_size=rows)))

    masses = table(st.one_of(st.sampled_from(pool), _unit))
    budgets = table(st.one_of(st.just(0.0), _unit))
    live = np.repeat(np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=ny, max_size=ny),
                                                 min_size=rows, max_size=rows))), nx, axis=1)
    eps = []
    for m, b, keep in zip(masses, budgets, live):
        m, b = m[keep], b[keep]
        total = float((b * m).sum())
        near_total = [total, np.nextafter(total, 0.0), np.nextafter(total, 2.0)]
        # removal at a cell's own mass: the level sits on a segment boundary
        at_cell = [float((b * np.maximum(m - x, 0.0)).sum()) for x in m] or [0.0]
        eps.append(float(data.draw(st.one_of(
            st.just(0.0), st.sampled_from(near_total), st.sampled_from(at_cell),
            st.floats(0.0, max(total, 1e-300), allow_subnormal=False), _unit), label="eps")))
    got = entropy_mod._waterfill_level(masses, budgets, live, np.array(eps))
    for row, m, b, keep, e in zip(got.tolist(), masses, budgets, live, eps):
        if not keep.any():
            assert row == 0.0
            continue
        want = _waterfill_segment_loop(m[keep], b[keep], e)
        assert repr(row) == repr(want) == repr(_oracle_waterfill_level(m[keep], b[keep], e))


def test_smoothed_equals_per_table_oracle():
    # dead slices, zero cells and eps up to the whole mass, bit for bit,
    # including the error a fault raises
    rng = np.random.default_rng(16)
    for _ in range(200):
        ny, nx = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        t = rng.random((ny, nx)) * (rng.random((ny, nx)) < 0.7)
        t[:, 0] += 0.01 * (rng.random(ny) < 0.8)
        sums = t.sum(axis=1, keepdims=True)
        t = np.divide(t, sums, out=np.zeros_like(t), where=sums > 0)
        py = rng.random(ny) * (t.sum(axis=1) > 0) * (rng.random(ny) < 0.8)
        if py.sum() == 0:
            continue
        p = CondDist(t, py / py.sum())
        eps = float(rng.choice([0.0, rng.random() * 0.5, 0.999999]))
        try:
            want = _oracle_smoothed(p, eps)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                smoothed_min_entropy(p, eps)
            assert str(got.value) == str(exc)
            continue
        got = smoothed_min_entropy(p, eps)
        assert repr(got["value"]) == repr(want["value"])
        assert repr(got["event_probability"]) == repr(want["event_probability"])
        assert np.array_equal(got["event"], want["event"])


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
    assert np.allclose(res["event"], [[0.5, 1.0, 1.0]])


def test_smoothed_witness_contract():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p = _random_cond_dist(rng, 6, 3)
        eps = float(rng.random() * 0.6)
        res = smoothed_min_entropy(p, eps)
        w = res["event"]
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
    for eps in (-0.1, 1.0):
        with pytest.raises(ValueError, match="eps="):
            entropy_split(p, 4.0, eps, 0.25)


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
        hidden = _oracle_hidden_table(p, _pairs(p), res["C"])
        again = _oracle_smoothed(hidden, 0.25)["value"]
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


def _hidden(p, q):
    """`_hidden_tables` on one joint p and one C assignment q (n0, n1, nz)."""
    joint = p.p_x_given_y.reshape((1, p.ny) + p.pair_shape)
    q = np.ascontiguousarray(np.moveaxis(q, 2, 0))[None]
    table, p_y = entropy_mod._hidden_tables(joint, p.p_y[None], q)
    return CondDist(table[0], p_y[0])


def test_hidden_table_hand_case():
    # joint on 2x2, trivial Z, deterministic C = [x0 == 1]
    table = np.array([[[0.4, 0.1], [0.2, 0.3]]])
    p = joint_cond_dist(table, [1.0])
    q = np.zeros((2, 2, 1))
    q[1, :, 0] = 1.0
    hidden = _hidden(p, q)
    assert np.allclose(hidden.p_y, [0.5, 0.5])
    # y = (z, 0): hidden is X1 with masses (0.4, 0.1)/0.5
    assert np.allclose(hidden.p_x_given_y[0], [0.0, 0.0, 0.8, 0.2])
    # y = (z, 1): hidden is X0, all mass on x0 = 1
    assert np.allclose(hidden.p_x_given_y[1], [0.0, 1.0, 0.0, 0.0])


def _sabotage(monkeypatch, nz, lower, old=False):
    """Patch the stacked smoothing level `_level` (or, for the old kernels'
    `_certify`, `_smooth`): every hidden table (2 nz rows, where a joint has
    nz) for which lower(table, p_y) holds reads 100 bits low."""
    name, at = ("_smooth", 0) if old else ("_level", 1)  # where the value sits
    real = getattr(entropy_mod, name)

    def lowered(t, p_y, eps):
        out = list(real(t, p_y, eps))
        if t.shape[1] == 2 * nz:
            hit = np.array([lower(tk, pk) for tk, pk in zip(t, p_y)], dtype=bool)
            out[at] = np.where(hit, out[at] - 100.0, out[at])
        return tuple(out)

    monkeypatch.setattr(entropy_mod, name, lowered)


def _oracle_sabotaged(lower):
    """The oracle's smoothing, with the hidden tables `_sabotage` lowers
    (those without a pair shape) lowered alike."""
    def smooth(dist, eps):
        res = _oracle_smoothed(dist, eps)
        if dist.pair_shape is None and lower(dist.p_x_given_y, dist.p_y):
            res = dict(res, value=res["value"] - 100.0)
        return res

    return smooth


def test_split_not_certified_error(monkeypatch):
    # the splitting lemma always holds for honest inputs, so the failure
    # branch is forced here by sabotaging the certificate recomputation; at
    # n = 17 there is no fallback, so the best value is the heaviness rule's
    _sabotage(monkeypatch, 1, lambda t, p_y: True)
    for n in (4, 17):
        p = joint_cond_dist(np.full((1, n, n), 1 / n ** 2), [1.0])
        level = math.log2(n * n)
        with pytest.raises(SplitNotCertifiedError) as want:
            _oracle_split(p, level, 0.0, 0.9, _oracle_sabotaged(lambda t, p_y: True))
        with pytest.raises(SplitNotCertifiedError) as exc:
            entropy_split(p, level, 0.0, 0.9)
        assert exc.value.best_value < -90.0
        assert repr(exc.value.best_value) == repr(want.value.best_value)


def test_split_needs_a_pair_shape(monkeypatch):
    p = CondDist(np.full((1, 16), 1 / 16), [1.0])

    def no_smoothing(*args):
        raise AssertionError("smoothing ran before the shape check")

    monkeypatch.setattr(entropy_mod, "_level", no_smoothing)
    with pytest.raises(ValueError, match="pairs"):
        entropy_split(p, 4.0, 0.0, 0.25)


# ---------------------------------------------------------------------------
# the split against the tuple-alphabet implementation it replaced
# ---------------------------------------------------------------------------

def _oracle_split_sizes(pairs):
    a0, a1 = [], []
    for u, v in pairs:
        if u not in a0:
            a0.append(u)
        if v not in a1:
            a1.append(v)
    if len(a0) * len(a1) != len(pairs):
        raise ValueError("x alphabet is not a product of two alphabets")
    expect = [(u, v) for u in a0 for v in a1]
    if expect != list(pairs):
        raise ValueError("x alphabet is not in row-major product order")
    return a0, a1


def _oracle_hidden_table(p, pairs, q_c1):
    a0, a1 = _oracle_split_sizes(pairs)
    n0, n1, nz = len(a0), len(a1), p.ny
    joint = p.p_x_given_y.reshape(nz, n0, n1)
    qz = np.moveaxis(np.asarray(q_c1, dtype=float), 2, 0)
    table = np.zeros((2 * nz, n0 + n1))
    p_yc = np.zeros(2 * nz)
    for zi in range(nz):
        w0 = joint[zi] * (1.0 - qz[zi])
        w1 = joint[zi] * qz[zi]
        pc0 = w0.sum()
        pc1 = w1.sum()
        p_yc[2 * zi] = p.p_y[zi] * pc0
        p_yc[2 * zi + 1] = p.p_y[zi] * pc1
        if pc0 > 0:
            table[2 * zi, n0:] = w0.sum(axis=0) / pc0
        if pc1 > 0:
            table[2 * zi + 1, :n0] = w1.sum(axis=1) / pc1
    return CondDist(table, p_yc)


def _pairs(p):
    n0, n1 = p.pair_shape
    return [(u, v) for u in range(n0) for v in range(n1)]


def _oracle_split(p, alpha, eps, eps_prime, smooth=_oracle_smoothed):
    """`entropy_split` one joint at a time, as it was on tuple alphabets: the
    pair alphabet is rebuilt and taken apart by scans, and the hidden table
    is filled one z at a time.  `smooth` smooths the joint and every hidden
    table; it defaults to the per-table smoothing."""
    joint_h = smooth(p, eps)
    if joint_h["value"] < alpha - entropy_mod.CERT_TOL:
        raise ValueError("joint smoothed min-entropy %g is below alpha=%g"
                         % (joint_h["value"], alpha))
    pairs = _pairs(p)
    a0, a1 = _oracle_split_sizes(pairs)
    n0, n1, nz = len(a0), len(a1), p.ny
    bound = alpha / 2.0 - 1.0 - math.log2(1.0 / eps_prime)
    smoothed = p.p_x_given_y * joint_h["event"]
    heavy = smoothed.reshape(nz, n0, n1).sum(axis=2) > 2.0 ** (-alpha / 2.0)
    q_heavy = np.zeros((n0, n1, nz))
    for zi in range(nz):
        q_heavy[:, :, zi] = np.where(heavy[zi][:, None], 0.0, 1.0)

    def certify(q, rule):
        hidden = _oracle_hidden_table(p, pairs, q)
        res = smooth(hidden, eps + eps_prime)
        value, weights, pr_event = res["value"], res["event"], res["event_probability"]
        if value >= bound - entropy_mod.CERT_TOL:
            t = hidden.p_x_given_y
            pos = t > 0
            weights = np.ones_like(t)
            np.minimum(1.0, np.divide(2.0 ** (-bound), t, out=np.full_like(t, np.inf),
                                      where=pos), out=weights, where=pos)
            retained = float((t * weights).max())
            value = -math.log2(retained) if 0 < retained < 1 else max(bound, 0.0)
            pr_event = float((hidden.p_y[:, None] * t * weights).sum())
        return {"value": value, "bound": bound, "rule": rule,
                "joint_entropy": joint_h["value"], "hidden": hidden,
                "event": weights, "event_probability": pr_event}

    cert = certify(q_heavy, "heaviness")
    if cert["value"] >= bound - entropy_mod.CERT_TOL:
        return q_heavy, cert
    best_value = cert["value"]
    for axis, size in (("x0", n0), ("x1", n1)):
        if size * nz > 16:
            continue
        for code in range(1 << (size * nz)):
            q = np.zeros((n0, n1, nz))
            for zi in range(nz):
                for i in range(size):
                    bit = (code >> (zi * size + i)) & 1
                    if axis == "x0":
                        q[i, :, zi] = bit
                    else:
                        q[:, i, zi] = bit
            cert = certify(q, "exhaustive-%s" % axis)
            if cert["value"] >= bound - entropy_mod.CERT_TOL:
                return q, cert
            best_value = max(best_value, cert["value"])
    raise SplitNotCertifiedError("split-not-certified: best value %g falls short of bound %g"
                                 % (best_value, bound), best_value)


def _random_joint(rng, nz, n0, n1, sparse):
    t = rng.random((nz, n0, n1)) + 0.01
    pz = rng.random(nz) + 0.1
    if sparse:  # zero cells, and a dead z slice when there is more than one
        t[rng.random(t.shape) < 0.4] = 0.0
        t[:, 0, 0] += 0.01
        if nz > 1:
            pz[-1] = 0.0
    t /= t.sum(axis=(1, 2), keepdims=True)
    return joint_cond_dist(t, pz / pz.sum())


def _assert_splits_equal(got, want_q, want_cert):
    cert = got["certificate"]
    assert got["C"].dtype == want_q.dtype and np.array_equal(got["C"], want_q)
    for key in ("value", "bound", "rule", "joint_entropy", "event_probability"):
        assert repr(cert[key]) == repr(want_cert[key]), key
    assert np.array_equal(cert["event"], want_cert["event"])
    assert np.array_equal(cert["hidden"].p_x_given_y, want_cert["hidden"].p_x_given_y)
    assert np.array_equal(cert["hidden"].p_y, want_cert["hidden"].p_y)


@pytest.mark.parametrize("nz", [1, 2, 3])
@pytest.mark.parametrize("n0, n1", [(1, 3), (2, 2), (3, 2), (4, 5)])
@pytest.mark.parametrize("sparse", [False, True])
def test_split_equals_tuple_alphabet_oracle(nz, n0, n1, sparse):
    rng = np.random.default_rng([nz, n0, n1, int(sparse)])
    for _ in range(6):
        p = _random_joint(rng, nz, n0, n1, sparse)
        eps = float(rng.choice([0.0, 0.05, 0.2]))
        eps_prime = float(rng.choice([0.25, 0.5]))
        alpha = _oracle_smoothed(p, eps)["value"] * float(rng.choice([1.0, 0.5]))
        want_q, want_cert = _oracle_split(p, alpha, eps, eps_prime)
        _assert_splits_equal(entropy_split(p, alpha, eps, eps_prime), want_q, want_cert)


@pytest.mark.parametrize("nz, n0, n1", [(1, 128, 192), (3, 37, 5), (2, 1, 300)])
def test_hidden_table_equals_oracle(nz, n0, n1):
    # fractional C on every cell, so every pair enters both marginals
    rng = np.random.default_rng([nz, n0, n1])
    p = _random_joint(rng, nz, n0, n1, sparse=True)
    q = rng.random((n0, n1, nz))
    q[rng.random(q.shape) < 0.2] = float(rng.integers(2))
    want = _oracle_hidden_table(p, _pairs(p), q)
    got = _hidden(p, q)
    assert np.array_equal(got.p_x_given_y, want.p_x_given_y)
    assert np.array_equal(got.p_y, want.p_y)


def test_split_equals_oracle_on_a_large_joint():
    # 128 x 192 pairs: the pair sums span many pairwise-summation blocks
    p = _random_joint(np.random.default_rng(31), 1, 128, 192, sparse=True)
    alpha = _oracle_smoothed(p, 0.0)["value"]
    want_q, want_cert = _oracle_split(p, alpha, 0.0, 0.25)
    _assert_splits_equal(entropy_split(p, alpha, 0.0, 0.25), want_q, want_cert)


@pytest.mark.parametrize("nz, n0, n1", [(1, 2, 3), (2, 2, 2), (3, 2, 1), (2, 3, 2)])
def test_exhaustive_fallback_equals_oracle(monkeypatch, nz, n0, n1):
    # as in test_split_not_certified_error, sabotaged certificates force the
    # fallback: the first `skip` hidden-table smoothings read 100 bits low.
    # Blocks of three assignments make the fallback cross block boundaries.
    state = {"skip": 0, "calls": 0}

    def lower(t, p_y):
        state["calls"] += 1
        return state["calls"] <= state["skip"]

    def run(split, p, alpha):
        state["calls"] = 0
        try:
            return split(p, alpha, 0.0, 0.25)
        except SplitNotCertifiedError as exc:
            return exc.best_value

    def oracle(p, alpha, eps, eps_prime):
        return _oracle_split(p, alpha, eps, eps_prime, _oracle_sabotaged(lower))

    _sabotage(monkeypatch, nz, lower)
    monkeypatch.setattr(entropy_mod, "STACK_CELLS", 3 * nz * n0 * n1)
    rng = np.random.default_rng([nz, n0, n1])
    for skip in (1, 2, 5, math.inf):
        state["skip"] = skip
        p = _random_joint(rng, nz, n0, n1, sparse=False)
        alpha = _oracle_smoothed(p, 0.0)["value"]
        want, got = run(oracle, p, alpha), run(entropy_split, p, alpha)
        if skip == math.inf:  # nothing certifies
            assert repr(got) == repr(want) and got < -90.0
        else:
            assert want[1]["rule"].startswith("exhaustive-")
            _assert_splits_equal(got, *want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_joints_equals_per_instance_oracle(data):
    nz = data.draw(st.integers(1, 3), label="nz")
    n0, n1 = data.draw(st.integers(1, 4), label="n0"), data.draw(st.integers(1, 4), label="n1")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    joints = [_random_joint(rng, nz, n0, n1, data.draw(st.booleans(), label="sparse"))
              for _ in range(data.draw(st.integers(1, 4), label="joints"))]
    eps = data.draw(st.sampled_from([0.0, 0.05, 0.2]), label="eps")
    eps_prime = data.draw(st.sampled_from([0.25, 0.5]), label="eps_prime")
    # each joint's own level, or one level that later joints may fall below
    own = [_oracle_smoothed(p, eps)["value"] for p in joints]
    alpha = data.draw(st.sampled_from([None, own[0], max(own), 0.5 * own[0]]), label="alpha")
    # hidden tables read 100 bits low: none, a salted pseudo-random two
    # thirds of them (which forces the fallback), or all (not certified)
    modes = ["none", "some"] + (["all"] if (1 << n0 * nz) + (1 << n1 * nz) <= 64 else [])
    mode = data.draw(st.sampled_from(modes), label="sabotage")
    salt = data.draw(st.integers(0, 2), label="salt")
    calls = []

    def lower(t, p_y):
        calls.append(1)
        return mode == "all" or (mode == "some" and (zlib.crc32(t.tobytes()) + salt) % 3 != 0)

    want, want_exc = [], None
    for p, level in zip(joints, own):
        try:
            want.append(_oracle_split(p, level if alpha is None else alpha, eps, eps_prime,
                                      _oracle_sabotaged(lower)))
        except ValueError as exc:
            want_exc = exc
            break
    oracle_certified = len(calls)
    tables = np.stack([p.p_x_given_y.reshape(nz, n0, n1) for p in joints])
    got, got_exc = None, None
    with pytest.MonkeyPatch.context() as mp:
        _sabotage(mp, nz, lower)
        try:
            got = entropy_mod.split_joints(tables, np.stack([p.p_y for p in joints]), alpha,
                                           eps, eps_prime)
        except ValueError as exc:
            got_exc = exc
    if want_exc is not None:
        assert type(got_exc) is type(want_exc) and str(got_exc) == str(want_exc)
        if isinstance(want_exc, SplitNotCertifiedError):
            assert repr(got_exc.best_value) == repr(want_exc.best_value)
        return
    assert got_exc is None
    # one heaviness certificate per joint, then the fallback's assignments
    assert got["fallback_candidates"] == oracle_certified - len(joints)
    for i, (q, cert) in enumerate(want):
        assert np.array_equal(np.moveaxis(got["C"][i], 0, 2), q)
        for key in ("value", "bound", "joint_entropy", "event_probability"):
            assert repr(float(got[key][i])) == repr(cert[key]), key
        assert got["rule"][i] == cert["rule"]
        assert np.array_equal(got["event"][i], cert["event"])
        assert np.array_equal(got["hidden"][i], cert["hidden"].p_x_given_y)
        assert np.array_equal(got["hidden_p"][i], cert["hidden"].p_y)


# ---------------------------------------------------------------------------
# the smoothing and hidden-table kernels against the ones they replaced
# ---------------------------------------------------------------------------

def _random_stack(rng, rows, ny, nx, dead):
    """rows tables (ny, nx) with zero cells, and a dead slice (P(y) = 0) in
    every row when `dead`; a dead slice holds a normalised or an empty row."""
    t = rng.random((rows, ny, nx)) + 0.01
    t[rng.random(t.shape) < 0.3] = 0.0
    t[:, :, 0] += 0.01
    t /= t.sum(axis=2, keepdims=True)
    p_y = rng.random((rows, ny)) + 0.1
    if dead:
        p_y[:, -1] = 0.0
        t[rng.random(rows) < 0.5, -1] = 0.0
    return t, p_y / p_y.sum(axis=1, keepdims=True)


def _assert_smooth_equal(got, want):
    value, weights, pr_event, fault = got
    assert value.tobytes() == want[0].tobytes()
    assert weights.tobytes() == want[1].tobytes()
    assert pr_event.tobytes() == want[2].tobytes()
    assert np.array_equal(fault, want[3])


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.05, 0.2, 0.6])
def test_smooth_equals_masked_oracle(eps):
    # random stacks with zero cells and dead slices, the dyadic classical
    # posteriors, and rows that fault, bit for bit
    rng = np.random.default_rng([17, int(eps * 1000)])
    for _ in range(40):
        ny, nx = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        t, p_y = _random_stack(rng, int(rng.integers(1, 6)), ny, nx, ny > 1 and rng.random() < 0.5)
        _assert_smooth_equal(entropy_mod._smooth(t, p_y, eps), split_oracle.smooth(t, p_y, eps))
    for ell, beta in ((2, 0.5), (5, 0.3), (8, 0.25)):
        model = ClassicalLeakSim(ell, beta)
        t = np.stack([model.conditional_joint(o).reshape(1, -1) for o in model.outcome_set(1.0)])
        p_y = np.ones((len(t), 1))
        _assert_smooth_equal(entropy_mod._smooth(t, p_y, eps), split_oracle.smooth(t, p_y, eps))
    faulty = np.zeros((2, 2, 3))
    faulty[1, 1] = 1.0 / 3.0  # row 0: nothing live; row 1: only zeros live
    p_y = np.array([[0.0, 0.0], [1.0, 0.0]])
    _assert_smooth_equal(entropy_mod._smooth(faulty, p_y, eps),
                         split_oracle.smooth(faulty, p_y, eps))


def test_cap_weights_equals_masked_oracle():
    rng = np.random.default_rng(18)
    t = rng.random((6, 3, 7))
    t[rng.random(t.shape) < 0.3] = 0.0
    level = np.array([0.0, 1e-300, 0.1, 0.5, 1.0, 2.0])
    got = entropy_mod._cap_weights(level, t)
    assert got.tobytes() == split_oracle.cap_weights(level, t).tobytes()


@pytest.mark.parametrize("nz, n0, n1", [(1, 256, 256), (3, 8, 8), (2, 5, 3), (3, 1, 7)])
def test_hidden_tables_equal_full_c_oracle(nz, n0, n1):
    # C per (z, x0), per (z, x1), fractional, and one joint against a stack
    # of assignments as the fallback hands them over, bit for bit
    rng = np.random.default_rng([nz, n0, n1])
    k = 4
    joint, _ = _random_stack(rng, k * nz, 1, n0 * n1, dead=False)
    joint = joint.reshape(k, nz, n0, n1)
    p_z = rng.random((k, nz)) + 0.1
    p_z[:, -1] = 0.0 if nz > 1 else p_z[:, -1]
    p_z /= p_z.sum(axis=1, keepdims=True)
    choices = [(rng.random((k, nz, n0, 1)) < 0.5).astype(float),
               (rng.random((k, nz, 1, n1)) < 0.5).astype(float),
               rng.random((k, nz, n0, 1)), rng.random((k, nz, n0, n1))]
    for q in choices:
        for j, pz in ((joint, p_z), (joint[0], p_z[:1])):
            got = entropy_mod._hidden_tables(j, pz, q)
            want = split_oracle.hidden_tables(j, pz, q)
            assert all(g.shape == w.shape and g.tobytes() == w.tobytes()
                       for g, w in zip(got, want))


def _assert_split_results_equal(got, want):
    assert got.keys() == want.keys()
    for key in got:
        if key in ("rule", "fallback_candidates"):
            assert np.array_equal(got[key], want[key]), key
        else:
            assert got[key].shape == want[key].shape, key
            assert np.array(got[key]).tobytes() == np.array(want[key]).tobytes(), key


def _split_both_ways(monkeypatch, tables, p_z, alpha, eps, eps_prime, sabotage=None):
    """split_joints with the library's kernels, then with the replaced ones; each
    run starts the sabotage (nz, lower, reset) afresh."""
    results = []
    for old in (False, True):
        with monkeypatch.context() as mp:
            if old:
                split_oracle.use_old_kernels(mp)
            if sabotage is not None:
                nz, lower, reset = sabotage
                reset()
                _sabotage(mp, nz, lower, old)
            results.append(entropy_mod.split_joints(tables, p_z, alpha, eps, eps_prime))
    return results


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
def test_split_joints_equals_old_kernels_on_stacks(monkeypatch, eps):
    # stacked random joints, each with a dead z slice, at each joint's own
    # level and at a common lower one
    rng = np.random.default_rng([19, int(eps * 100)])
    for nz, n0, n1 in ((3, 8, 8), (2, 4, 5), (1, 16, 3)):
        t, _ = _random_stack(rng, 6 * nz, 1, n0 * n1, dead=False)
        p_z = rng.random((6, nz)) + 0.1
        if nz > 1:
            p_z[:, -1] = 0.0
        p_z /= p_z.sum(axis=1, keepdims=True)
        tables = t.reshape(6, nz, n0, n1)
        for alpha in (None, 1.0):
            got, want = _split_both_ways(monkeypatch, tables, p_z, alpha, eps, 0.25)
            _assert_split_results_equal(got, want)


@pytest.mark.parametrize("ell, beta, positions", [
    (2, 0.5, None), (3, 0.25, None), (4, 0.25, (1, 6)), (5, 0.3, None),
    (6, 0.5, (0, 3, 4, 7, 9, 10)), (7, 0.25, None), (8, 0.125, (2, 15)), (8, 0.25, None)])
def test_split_joints_equals_old_kernels_on_classical_posteriors(monkeypatch, ell, beta, positions):
    # the dyadic posteriors otm splits, stacked as otm stacks them
    model = ClassicalLeakSim(ell, beta, positions)
    tables = np.stack([model.conditional_joint(o) for o in model.outcome_set(1.0)])[:, None]
    level = model.certified_entropy(0)
    for alpha, eta in ((level, 2.0 ** -1.5), (0.5 * level, 0.5)):
        got, want = _split_both_ways(monkeypatch, tables, np.ones((len(tables), 1)), alpha, 0.0,
                                     eta)
        _assert_split_results_equal(got, want)


@pytest.mark.parametrize("nz, eps, skip, rule", [
    (1, 0.0, 1, "exhaustive-x0"), (1, 0.0, 3, "exhaustive-x0"), (1, 0.0, 5, "exhaustive-x1"),
    (1, 0.0, 7, "exhaustive-x1"), (2, 0.05, 2, "exhaustive-x0"), (2, 0.05, 19, "exhaustive-x1")],
    ids=["1-exhaustive-x0", "3-exhaustive-x0", "5-exhaustive-x1", "7-exhaustive-x1",
         "dead-z-eps-2-exhaustive-x0", "dead-z-eps-19-exhaustive-x1"])
def test_split_joints_equals_old_kernels_in_the_fallback(monkeypatch, nz, eps, skip, rule):
    # sabotaged certificates: the first `skip` hidden-table smoothings read
    # 100 bits low, so with n0 = 2 (1 heaviness + 4^nz x0 assignments) the
    # fallback certifies on the x0 axis or on the x1 axis; at nz = 2 the
    # second z slice is dead and the joint is smoothed at eps > 0
    state = {"calls": 0}

    def lower(t, p_y):
        state["calls"] += 1
        return state["calls"] <= skip

    def reset():
        state["calls"] = 0

    monkeypatch.setattr(entropy_mod, "STACK_CELLS", 3 * nz * 2 * 3)
    rng = np.random.default_rng(skip)
    t, _ = _random_stack(rng, nz, 1, 2 * 3, dead=False)
    tables, p_z = t.reshape(1, nz, 2, 3), np.eye(1, nz)
    got, want = _split_both_ways(monkeypatch, tables, p_z, None, eps, 0.25, (nz, lower, reset))
    assert got["rule"][0] == rule
    _assert_split_results_equal(got, want)
