import hashlib
import json
import math

import mpmath
import numpy as np
import pytest

import split_oracle
from otmlab import entropy as entropy_mod
from otmlab import otm as otm_module
from otmlab.entropy import entropy_split, joint_cond_dist
from otmlab.hashfam import BinaryField, HashFunction, sample_hash
from otmlab.otm import (
    ClassicalLeakSim,
    continuity_check,
    DegenerateHashError,
    evaluate_security,
    hash_bias_tail,
    hummingbird_distance,
    IdealBitOtm,
    program_ideal,
    r_tail_bound,
    ReductionParams,
    theorem_bound,
    WiesnerToyOtm,
)
from otmlab.quantum import NumericalConsistencyError, PovmElement

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _leak_value(model, s, t):
    """The outcome token a ClassicalLeakSim produces for the pair (s, t):
    bit i is the value at interleaved position positions[i]."""
    v = 0
    for i, p in enumerate(model.positions):
        bit = (s >> (p // 2)) & 1 if p % 2 == 0 else (t >> (p // 2)) & 1
        v |= bit << i
    return v


def _params(**kw):
    base = dict(k=8, ell=8, theta=2.0, delta0=0.25, alpha=1.5, eps0=0.25, gamma=1.0, m=16)
    base.update(kw)
    return ReductionParams(**base)


def test_reduction_params_derived_quantities():
    p = _params()
    assert p.r == 4 * 2 * 8 ** 4
    assert p.eta0 == pytest.approx(1.5 / 8.0)
    assert p.delta == pytest.approx(2.0 ** -2)
    assert p.tau == p.delta
    assert p.eps == pytest.approx(2.0 ** -2)
    assert p.eta == pytest.approx(2.0 ** -1.5)
    assert p.mu_log2 == pytest.approx(-(1.5 / 6.0) * 8 - 4 * 0.25 * 8 - 2 * 16)
    assert p.mu == pytest.approx(2.0 ** p.mu_log2)
    assert p.lam == pytest.approx(2.0 ** (-(1.5 / 6.0) * 8) * 2 * p.r)
    d = p.as_dict()
    assert d["r"] == p.r and d["depth_mode"] is False


def test_reduction_params_depth_mode():
    p = ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=2.0, eps0=0.5,
                        gamma=1.0, phi=1.0, d=2, depth_mode=True)
    assert p.r == 4 * math.ceil(2.0 * 2 ** 3)
    flat = ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=2.0,
                           eps0=0.5, gamma=1.0)
    assert flat.r == 4 * math.ceil(2.0 * 2 ** 2)


def test_reduction_params_invariants_rejected():
    with pytest.raises(ValueError):
        _params(ell=7)  # ell < k
    with pytest.raises(ValueError):
        _params(m=7)  # m < k
    with pytest.raises(ValueError):
        _params(m=65)  # m > k^theta = 64
    with pytest.raises(ValueError):
        _params(theta=0.5)
    with pytest.raises(ValueError):
        _params(alpha=0.0)
    with pytest.raises(ValueError):
        _params(k=0)
    with pytest.raises(ValueError):
        _params(gamma=-1.0)
    with pytest.raises(ValueError):
        ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=2.0, eps0=0.5,
                        gamma=1.0, depth_mode=True)  # phi and d missing
    with pytest.raises(ValueError, match="depth d"):
        _params(depth_mode=True, phi=1.0, d=0)
    # r = 4 ceil((gamma + 1) k^{2 theta}) past the float range has no integer
    # value: a ValueError, not an OverflowError
    for bad in [dict(gamma=math.inf), dict(gamma=1e308), dict(theta=math.inf),
                dict(k=10 ** 6, ell=10 ** 6, theta=60, m=None)]:
        with pytest.raises(ValueError, match="float range"):
            _params(**bad)
    assert _params(alpha=math.inf).eta == 0.0


def test_theorem_bound_spec_point_twelve_digits():
    p = ReductionParams(k=16, ell=16, theta=1.0, delta0=0.25, alpha=1.0,
                        eps0=0.25, gamma=1.0)
    assert p.r == 2048
    out = theorem_bound(p)
    with mpmath.workdps(40):
        t1 = mpmath.mpf(4) * mpmath.mpf(2) ** (-4)
        t2 = mpmath.mpf(2) * mpmath.mpf(2) ** (-4)
        t3 = mpmath.mpf(2) * mpmath.mpf(2) ** (-2)  # (alpha/8) * k = 2
        t4 = mpmath.mpf(4) * 2049 * mpmath.mpf(2) ** (mpmath.mpf(-16) / 6)
        total = t1 + t2 + t3 + t4
    assert out["terms"]["delta_term"] == pytest.approx(float(t1), rel=1e-12)
    assert out["terms"]["eps_term"] == pytest.approx(float(t2), rel=1e-12)
    assert out["terms"]["eta_term"] == pytest.approx(float(t3), rel=1e-12)
    assert out["terms"]["tail_term"] == pytest.approx(float(t4), rel=1e-12)
    assert out["total"] == pytest.approx(float(total), rel=1e-12)
    assert 2.0 ** out["total_log2"] == pytest.approx(out["total"], rel=1e-9)


def test_theorem_bound_alpha_limit_and_monotonicity():
    p = _params(alpha=math.inf)
    out = theorem_bound(p)
    assert out["terms"]["eta_term"] == 0.0 and out["terms"]["tail_term"] == 0.0
    assert out["total"] == pytest.approx(out["terms"]["delta_term"] + out["terms"]["eps_term"])
    small = theorem_bound(ReductionParams(k=16, ell=16, theta=1.0, delta0=0.25,
                                          alpha=1.0, eps0=0.25, gamma=1.0))
    big = theorem_bound(ReductionParams(k=32, ell=32, theta=1.0, delta0=0.25,
                                        alpha=1.0, eps0=0.25, gamma=1.0))
    for name in small["terms"]:
        assert big["terms"][name] < small["terms"][name]


def test_theorem_bound_envelope_and_depth_flag():
    p = ReductionParams(k=16, ell=16, theta=1.0, delta0=0.25, alpha=1.0,
                        eps0=0.25, gamma=16.0, m=16)
    out = theorem_bound(p)
    assert out["envelope_log2"] == pytest.approx(16.0 * 16 ** 2)
    assert out["net_log2"] == pytest.approx(4 * 16 * (math.log2(9 * 16) - p.mu_log2))
    assert out["envelope_holds"]
    deep = ReductionParams(k=4, ell=4, theta=1.0, delta0=0.25, alpha=1.0,
                           eps0=0.25, gamma=16.0, phi=1.0, d=2, depth_mode=True)
    dout = theorem_bound(deep)
    assert dout["envelope_log2"] == pytest.approx(16.0 * 4 ** 3)
    assert dout["depth_mode"]


def test_tail_bound_closed_forms():
    with mpmath.workdps(40):
        oracle = (mpmath.mpf(8) * mpmath.e ** (mpmath.mpf(1) / 12)
                  * mpmath.sqrt(4 * mpmath.pi)
                  * (8 * mpmath.mpf("0.01") * 16 / (mpmath.e ** 2 * 1.0)))
    assert r_tail_bound(4, 0.01, 1.0) == pytest.approx(float(oracle), rel=1e-10)
    assert r_tail_bound(8, 0.0, 1.0) == 0.0
    for bad in [(6, 0.01, 1.0), (4, -0.1, 1.0), (4, 0.01, 0.0)]:
        with pytest.raises(ValueError):
            r_tail_bound(*bad)
    # about 5.34e300 at lam = 1e-149: finite, though above 1e300; inf only
    # past float overflow
    with mpmath.workdps(40):
        lam = mpmath.mpf(1e-149)
        oracle = (mpmath.mpf(8) * mpmath.e ** (mpmath.mpf(1) / 12)
                  * mpmath.sqrt(4 * mpmath.pi)
                  * (8 * mpmath.mpf(1) * 16 / (mpmath.e ** 2 * lam ** 2)))
    assert 5e300 < float(oracle) < 6e300
    assert r_tail_bound(4, 1.0, 1e-149) == pytest.approx(float(oracle), rel=1e-10)
    assert r_tail_bound(4, 1.0, 1e-160) == math.inf


def test_classical_leak_construction_and_reads():
    model = ClassicalLeakSim(4, 0.25)
    assert model.leak_count == 2
    assert model.positions == (0, 1)
    assert _leak_value(model, 0b0011, 0b0101) == 0b11  # s_0 = 1, t_0 = 1
    _check_reads(model)


def _check_reads(model):
    """An IdealBitOtm over `model` refuses reads until programmed and a
    `which` other than 0 or 1, and reads back what it was programmed with."""
    low_bit = HashFunction(BinaryField(model.ell), (0, 1))
    otm = IdealBitOtm(low_bit, low_bit, model)
    with pytest.raises(ValueError, match="device is not programmed"):
        otm.read_bit(0)
    program_ideal(otm, 1, 0, np.random.default_rng(3))
    assert otm.s & 1 == 1 and otm.t & 1 == 0
    assert otm.read_bit(0) == 1 and otm.read_bit(1) == 0
    with pytest.raises(ValueError, match=r"which=2 must be 0 \(read s\) or 1 \(read t\)"):
        otm.read_bit(2)


def test_classical_leak_posteriors_exact():
    model = ClassicalLeakSim(4, 0.25)
    outcomes = model.outcome_set(0.5)
    assert outcomes == [0, 1, 2, 3]
    assert sum(model.outcome_probability(v) for v in outcomes) == pytest.approx(1.0)
    for v in outcomes:
        P = model.conditional_joint(v)
        assert P.sum() == pytest.approx(1.0)
        live = np.argwhere(P > 0)
        assert len(live) == 64  # 2^(2*4-2) consistent completions
        for s, t in live:
            assert _leak_value(model, int(s), int(t)) == v
        assert np.unique(P[P > 0]).size == 1  # uniform over completions
        assert model.certified_entropy(v) == pytest.approx(-math.log2(P.max()))
    with pytest.raises(ValueError):
        model.conditional_joint(4)


def test_classical_leak_validation():
    with pytest.raises(ValueError):
        ClassicalLeakSim(4, 1.5)
    with pytest.raises(ValueError):
        ClassicalLeakSim(0, 0.5)
    with pytest.raises(ValueError):
        ClassicalLeakSim(4, 0.25, positions=(0, 0))
    with pytest.raises(ValueError):
        ClassicalLeakSim(4, 0.25, positions=(0, 1, 2))  # wrong count
    with pytest.raises(ValueError):
        ClassicalLeakSim(4, 0.25, positions=(0, 9))
    with pytest.raises(ValueError, match="outside the advertised set"):
        ClassicalLeakSim(4, 0.25).outcome_probability(4)  # outcomes are 0..3
    # position 2 leaks bit 1 of s, position 5 bit 2 of t, as outcome bits 0, 1
    custom = ClassicalLeakSim(4, 0.25, positions=(2, 5))
    s, t = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    for v in custom.outcome_set(1.0):
        live = custom.conditional_joint(v) > 0
        assert np.array_equal(live, (((s >> 1) & 1) == (v & 1)) & (((t >> 2) & 1) == (v >> 1)))


_PARAMS = dict(k=4, ell=4, theta=1.0, delta0=0.5, alpha=1.5, eps0=0.5, gamma=1.0)


@pytest.mark.parametrize("build, name", [
    (lambda: ClassicalLeakSim(True, 0.5), "ell"),
    (lambda: ClassicalLeakSim(4, True), "beta"),
    (lambda: ClassicalLeakSim(np.bool_(True), 0.5), "ell"),
    (lambda: WiesnerToyOtm(True), "m"),
    (lambda: ReductionParams(**dict(_PARAMS, k=True)), "k"),
    (lambda: ReductionParams(**dict(_PARAMS, ell=True, k=1)), "ell"),
    (lambda: ReductionParams(**dict(_PARAMS, m=True, k=1, ell=1)), "m"),
    (lambda: ReductionParams(**dict(_PARAMS, theta=True)), "theta"),
    (lambda: ReductionParams(**dict(_PARAMS, gamma=True)), "gamma"),
    (lambda: ReductionParams(**dict(_PARAMS, depth_mode=True, phi=1.0, d=True)), "d"),
], ids=["leak-ell", "leak-beta", "leak-numpy-bool-ell", "wiesner-m", "params-k", "params-ell",
        "params-m", "params-theta", "params-gamma", "params-d"])
def test_models_and_params_refuse_bools(build, name):
    # True passes int(x) == x and every range check as 1, so each would build
    with pytest.raises(ValueError, match="^%s=.*True.* must be a number, not a bool" % name):
        build()


def test_wiesner_posterior_hand_values():
    model = WiesnerToyOtm(1)
    assert np.abs(model.average_state() - np.eye(2) / 2).max() < 1e-12
    P = model.conditional_joint(0)  # outcome |0><0|
    assert P[0, 0] == pytest.approx(3 / 8, abs=1e-12)
    assert P[0, 1] == pytest.approx(3 / 8, abs=1e-12)
    assert P[1, 0] == pytest.approx(1 / 8, abs=1e-12)
    assert P[1, 1] == pytest.approx(1 / 8, abs=1e-12)
    assert model.outcome_probability(0) == pytest.approx(0.5)
    assert model.certified_entropy(0) == pytest.approx(math.log2(8 / 3))
    # Hadamard-basis projector pins down t the same way
    had = WiesnerToyOtm(1)
    had.povm = [PovmElement(_H @ np.diag([1.0, 0.0]) @ _H), PovmElement(_H @ np.diag([0.0, 1.0]) @ _H)]
    Ph = had.conditional_joint(0)
    assert Ph[0, 0] == pytest.approx(3 / 8, abs=1e-12)
    assert Ph[1, 0] == pytest.approx(3 / 8, abs=1e-12)
    assert Ph[0, 1] == pytest.approx(1 / 8, abs=1e-12)


def test_wiesner_validation_and_reads():
    with pytest.raises(ValueError):
        WiesnerToyOtm(4)
    with pytest.raises(ValueError):
        WiesnerToyOtm(1).born_joint(np.zeros((2, 2)))
    model = WiesnerToyOtm(2)
    _check_reads(model)
    assert model.outcome_set(1.0) == [0, 1, 2, 3]


def _random_elements(dim, rng):
    """A random separable element (a product of single-qubit elements, as a
    PovmElement) and a random Hermitian matrix, both on log2(dim) qubits."""
    prod = np.eye(1)
    for _ in range(dim.bit_length() - 1):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = x @ x.conj().T
        prod = np.kron(prod, a / np.linalg.eigvalsh(a).max())
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return PovmElement(prod), x + x.conj().T


@pytest.mark.parametrize("m", [1, 2, 3])
def test_born_joint_matches_per_state_loop(m):
    # oracle: one density matrix per (s, t) from chained np.kron, one trace each
    ket = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    model = WiesnerToyOtm(m)
    n = 1 << m
    states = {}
    for s in range(n):
        for t in range(n):
            rho = None
            for i in range(m):
                si, ti = (s >> i) & 1, (t >> i) & 1
                f = 0.5 * (np.outer(ket[si], ket[si]) + _H @ np.outer(ket[ti], ket[ti]) @ _H)
                rho = f if rho is None else np.kron(np.asarray(rho, dtype=complex), np.asarray(f, dtype=complex))
            states[(s, t)] = rho
    rng = np.random.default_rng(30 + m)
    elements = list(model.povm)
    for _ in range(100):
        elements.extend(_random_elements(n, rng))
    for element in elements:
        mat = element.matrix if isinstance(element, PovmElement) else element
        born = np.empty((n, n))
        for (s, t), rho in states.items():
            born[s, t] = max(float(np.trace(mat @ rho).real), 0.0)
        if born.sum() <= 0.0:
            with pytest.raises(ValueError):
                model.born_joint(element)
            continue
        P, prob = model.born_joint(element)
        assert P.tobytes() == (born / born.sum()).tobytes()
        assert prob == born.sum() * 4.0 ** (-m)


def test_ideal_bit_otm_programs_and_reads_back():
    rng = np.random.default_rng(5)
    F = sample_hash(4, 4, rng)
    G = sample_hash(4, 4, rng)
    otm = IdealBitOtm(F, G, ClassicalLeakSim(4, 0.25))
    for a0 in (0, 1):
        for a1 in (0, 1):
            program_ideal(otm, a0, a1, rng)
            assert otm.read_bit(0) == a0
            assert otm.read_bit(1) == a1
            assert F(otm.s) == a0 and G(otm.t) == a1
    with pytest.raises(ValueError):
        IdealBitOtm(F, G, ClassicalLeakSim(5, 0.25))
    with pytest.raises(ValueError):
        IdealBitOtm("f", G, ClassicalLeakSim(4, 0.25))
    with pytest.raises(ValueError):
        program_ideal(otm, 2, 0, rng)


@pytest.mark.parametrize("model", [ClassicalLeakSim(8, 0.125), WiesnerToyOtm(2)],
                         ids=["leak-8", "wiesner-2"])
def test_ideal_bit_otms_over_one_model_read_their_own_bits(model):
    # the model holds no strings, so wrappers sharing it stay independent;
    # lowbit(c * x) with c != 0 is balanced, so every program succeeds
    rng = np.random.default_rng(5)
    field = BinaryField(model.ell)

    def linear():
        return HashFunction(field, (0, int(rng.integers(1, 1 << model.ell))))

    for _ in range(200):
        pair = [IdealBitOtm(linear(), linear(), model) for _ in range(2)]
        program_ideal(pair[0], 0, 1, rng)
        program_ideal(pair[1], 1, 0, rng)
        assert [(o.read_bit(0), o.read_bit(1)) for o in pair] == [(0, 1), (1, 0)]


def test_program_ideal_degenerate_hash():
    rng = np.random.default_rng(6)
    field = BinaryField(4)
    constant = HashFunction(field, (0,))
    balanced = HashFunction(field, (0, 1))
    otm = IdealBitOtm(constant, balanced, ClassicalLeakSim(4, 0.25))
    with pytest.raises(DegenerateHashError, match="degenerate-hash"):
        program_ideal(otm, 1, 0, rng)
    program_ideal(otm, 0, 1, rng)  # the value it does take still programs
    assert otm.read_bit(0) == 0


def test_program_ideal_rejection_statistics():
    rng = np.random.default_rng(7)
    total = 0
    runs = 4000
    model = ClassicalLeakSim(8, 0.25)
    for _ in range(runs):
        otm = IdealBitOtm(sample_hash(8, 8, rng), sample_hash(8, 8, rng), model)
        program_ideal(otm, int(rng.integers(2)), int(rng.integers(2)), rng)
        total += otm.rejections
    assert 1.7 <= total / runs <= 2.4  # two geometric(1/2) trials per pair


def test_compute_Q_R_against_double_sum_oracle():
    rng = np.random.default_rng(8)
    n = 4
    for _ in range(20):
        P = rng.random((n, n))
        P /= P.sum()
        C = rng.random((n, n))
        E = rng.random((2, n, n))
        F = sample_hash(2, 2, rng)
        G = sample_hash(2, 2, rng)
        pc, weights = otm_module._weights(P, C, E)
        Q, R = otm_module._fourier(pc, weights, *otm_module._signs(F, G, 2))
        for c in (0, 1):
            qc = C if c == 1 else 1.0 - C
            num_q = num_r = den = 0.0
            for s in range(n):
                for t in range(n):
                    w = P[s, t] * qc[s, t]
                    den += w
                    sign_f = (-1.0) ** F(s)
                    sign_g = (-1.0) ** G(t)
                    hidden = sign_f if c == 0 else sign_g
                    num_q += w * E[c, s, t] * hidden
                    num_r += w * E[c, s, t] * sign_f * sign_g
            assert pc[c] == pytest.approx(den, abs=1e-12)
            assert Q[c] == pytest.approx(num_q / den, abs=1e-12)
            assert R[c] == pytest.approx(num_r / den, abs=1e-12)


def test_compute_Q_R_edge_conventions():
    n = 4
    P = np.full((n, n), 1.0 / 16.0)
    ones = np.ones((n, n))
    signs = np.ones(n)

    def fourier(C, E):
        pc, weights = otm_module._weights(P, C, E)
        return (pc,) + otm_module._fourier(pc, weights, signs, signs)

    # E never occurs
    _, Q, R = fourier(0.5 * ones, np.zeros((2, n, n)))
    assert Q == [0.0, 0.0] and R == [0.0, 0.0]
    # deterministic hidden bit 0 with E certain
    pc, Q, R = fourier(np.zeros((n, n)), np.stack([ones, ones]))
    assert Q[0] == 1.0 and R[0] == 1.0
    # a c with zero probability yields exactly 0.0
    assert pc[1] == 0.0 and Q[1] == 0.0 and R[1] == 0.0


def test_signs_forms():
    low_bit = HashFunction(BinaryField(2), (0, 1))
    table = np.array([1.0, -1.0, -1.0, 1.0])
    sF, sG = otm_module._signs(low_bit, table, 2)
    assert sF.tolist() == [1.0, -1.0, 1.0, -1.0] and sG.tolist() == table.tolist()
    with pytest.raises(ValueError, match="sign table entries must be"):
        otm_module._signs(low_bit, np.array([1.0, 0.5, 1.0, 1.0]), 2)
    with pytest.raises(ValueError, match="expected 4 sign entries"):
        otm_module._signs(np.ones(5), low_bit, 2)
    with pytest.raises(ValueError, match="hash domain 2\\^2 does not match model ell=3"):
        otm_module._signs(table, low_bit, 3)


def _horner_signs(h):
    return np.array([1.0 - 2.0 * h(x) for x in range(1 << h.ell)])


def test_signs_match_scalar_evaluation():
    # unequal r pads the shorter hash with zero coefficients in one evaluation
    rng = np.random.default_rng(21)
    for ell, rF, rG in ((1, 2, 2), (4, 3, 3), (8, 8, 8), (4, 4, 3), (8, 8, 3), (8, 2, 16)):
        F, G = sample_hash(ell, rF, rng), sample_hash(ell, rG, rng)
        for h, signs in zip((F, G), otm_module._signs(F, G, ell)):
            assert signs.dtype == np.float64
            assert signs.tobytes() == _horner_signs(h).tobytes()


def _count_table_builds(monkeypatch):
    builds = []

    class CountingTables(otm_module.HashTables):
        def __init__(self, ell, r, points):
            builds.append((ell, r))
            super().__init__(ell, r, points)

    monkeypatch.setattr(otm_module, "HashTables", CountingTables)
    return builds


def test_signs_build_one_table_per_call(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    rng = np.random.default_rng(22)
    table = np.array([1.0, -1.0, -1.0, 1.0] * 4)
    for F, G, want in (
            (sample_hash(4, 4, rng), sample_hash(4, 4, rng), [(4, 4)]),
            (sample_hash(4, 3, rng), sample_hash(4, 5, rng), [(4, 5)]),
            (table, sample_hash(4, 3, rng), [(4, 3)]),
            (table, -table, [])):
        builds.clear()
        sF, sG = otm_module._signs(F, G, 4)
        assert builds == want
        for h, signs in ((F, sF), (G, sG)):
            want_signs = _horner_signs(h) if isinstance(h, HashFunction) else h
            assert signs.tobytes() == want_signs.tobytes()


def test_security_and_continuity_build_the_tables_once(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    rng = np.random.default_rng(23)
    model = ClassicalLeakSim(4, 0.25)
    otm = IdealBitOtm(sample_hash(4, 4, rng), sample_hash(4, 4, rng), model)
    params = ReductionParams(k=4, ell=4, theta=1.0, delta0=0.5, alpha=1.0,
                             eps0=0.5, gamma=1.0)
    evaluate_security(otm, params.delta, params)
    assert builds == [(4, 4)]
    builds.clear()
    wiesner = WiesnerToyOtm(1)
    M = np.diag([1.0, 0.0])
    rep = continuity_check(wiesner, sample_hash(1, 2, rng), sample_hash(1, 2, rng), M, M,
                           mu=0.01, tau=0.1, delta=0.1, alpha_k=1.4, eta=0.5)
    assert rep["hypothesis_ok"] and builds == [(1, 2)]


def test_hummingbird_hand_values_and_identity():
    out = hummingbird_distance([[0.25, 0.25], [0.25, 0.25]])
    assert out["l1"] == 0.0 and out["Q"] == 0.0 and out["R"] == 0.0
    out = hummingbird_distance([[0.5, 0.0], [0.0, 0.5]])
    assert out["Q"] == pytest.approx(0.0)
    assert out["R"] == pytest.approx(1.0)
    assert out["l1"] == pytest.approx(1.0)
    u = np.array([0.5, 0.5])
    d = np.array([0.5, -0.5])
    rng = np.random.default_rng(9)
    for _ in range(2000):
        p = rng.random((2, 2))
        p *= rng.random() / p.sum()  # random subnormalized table
        out = hummingbird_distance(p)
        q_oracle = 4.0 * float(np.einsum("a,b,ab->", d, u, p))
        r_oracle = 4.0 * float(np.einsum("a,b,ab->", d, d, p))
        assert out["Q"] == pytest.approx(q_oracle, abs=1e-12)
        assert out["R"] == pytest.approx(r_oracle, abs=1e-12)
        assert out["l1"] <= abs(out["Q"]) + abs(out["R"]) + 1e-12
        assert out["l1"] == pytest.approx(max(abs(out["Q"]), abs(out["R"])), abs=1e-12)
    with pytest.raises(ValueError):
        hummingbird_distance([[0.9, 0.3], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hummingbird_distance([[-0.1, 0.2], [0.1, 0.2]])
    with pytest.raises(ValueError, match="2x2"):
        hummingbird_distance([0.25, 0.25, 0.25, 0.25])


def test_evaluate_security_zero_leakage_balanced_hashes():
    model = ClassicalLeakSim(2, 0.0)
    field = BinaryField(2)
    F = HashFunction(field, (0, 1))
    G = HashFunction(field, (0, 1))
    otm = IdealBitOtm(F, G, model)
    params = ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=2.0,
                             eps0=0.5, gamma=1.0)
    report = evaluate_security(otm, params.delta, params)
    assert report.aggregated_l1 == pytest.approx(0.0, abs=1e-12)
    assert abs(report.direct_l1 - report.aggregated_l1) < 1e-9
    assert report.certified_mass == pytest.approx(1.0)
    assert report.unadvertised_mass == pytest.approx(0.0)
    assert report.rows[0]["smoothing_deficit"] == pytest.approx(0.0, abs=1e-12)
    assert "bad-c1" in report.rows[0]["flags"]


def test_evaluate_security_full_s_leak_driven_by_G_bias():
    model = ClassicalLeakSim(4, 0.5, positions=(0, 2, 4, 6))  # s leaks entirely
    field = BinaryField(4)
    params = ReductionParams(k=4, ell=4, theta=1.0, delta0=0.5, alpha=1.0,
                             eps0=0.5, gamma=1.0)
    for coeffs, bias in (((0,), 1.0), ((0, 1), 0.0)):
        G = HashFunction(field, coeffs)
        otm = IdealBitOtm(sample_hash(4, 4, np.random.default_rng(1)), G, model)
        report = evaluate_security(otm, params.delta, params)
        assert report.aggregated_l1 == pytest.approx(bias, abs=1e-12)
        for row in report.rows:
            assert row["pr_c"][1] == pytest.approx(1.0)  # hidden string is t
            assert "bad-c0" in row["flags"]
    # a random G: the distance is exactly the G sign bias
    G = sample_hash(4, 4, np.random.default_rng(3))
    otm = IdealBitOtm(sample_hash(4, 4, np.random.default_rng(2)), G, model)
    report = evaluate_security(otm, params.delta, params)
    expected = abs(np.mean([(-1.0) ** G(t) for t in range(16)]))
    assert report.aggregated_l1 == pytest.approx(expected, abs=1e-12)
    assert abs(report.direct_l1 - report.aggregated_l1) < 1e-9


def test_evaluate_security_hypothesis_gating():
    model = WiesnerToyOtm(1)
    model.povm = [PovmElement(np.diag([1.0, 0.2])), PovmElement(np.diag([0.0, 0.8]))]
    ent = [model.certified_entropy(i) for i in (0, 1)]
    assert ent[0] > 1.5 > ent[1]
    field = BinaryField(1)
    F = HashFunction(field, (0, 1))
    otm = IdealBitOtm(F, HashFunction(field, (0, 1)), model)
    params = ReductionParams(k=1, ell=1, theta=1.0, delta0=1.0, alpha=1.5,
                             eps0=1.0, gamma=1.0)
    report = evaluate_security(otm, 0.5, params)
    assert len(report.violations) == 1
    flagged = [r for r in report.rows if "hypothesis-violation" in r["flags"]]
    assert len(flagged) == 1
    assert flagged[0]["Q"] == [None, None]
    assert report.certified_mass == pytest.approx(0.6)
    with pytest.raises(ValueError):
        evaluate_security(otm, 0.6, params)  # 2*delta > 1


def test_security_report_serialization():
    model = ClassicalLeakSim(2, 0.25)
    field = BinaryField(2)
    otm = IdealBitOtm(HashFunction(field, (0, 1)), HashFunction(field, (0, 1)), model)
    params = ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=1.5,
                             eps0=0.5, gamma=1.0)
    report = evaluate_security(otm, params.delta, params)
    doc = json.loads(report.to_json())
    assert doc["negligible_convention"] == "C=0"
    assert len(doc["outcomes"]) == 2
    assert doc["bound"]["r"] == params.r


def test_hash_bias_tail_matches_scalar_oracle():
    grid = np.geomspace(1.0 / 64.0, 2.0, 40)
    trials = 1000
    for model, alpha_k, eta, r in ((ClassicalLeakSim(4, 0.25), 6.0, 0.25, 4),
                                   (WiesnerToyOtm(2), 2.5, 0.5, 4),
                                   (WiesnerToyOtm(3), 4.0, 0.5, 8)):
        n = 1 << model.ell
        out = hash_bias_tail(model, 0.25, r, trials, np.random.default_rng(404),
                             alpha_k=alpha_k, eta=eta, lambda_grid=grid)
        # oracle: the same instances, and per-trial signs from scalar Horner
        u_list, v_list = [], []
        for token in model.outcome_set(0.5):
            if model.certified_entropy(token) < alpha_k - 1e-9:
                continue
            P = model.conditional_joint(token)
            art = otm_module._split_outcome(P, alpha_k, eta)
            for c in (0, 1):
                q_c = art["C"] if c == 1 else (1.0 - art["C"])
                pc = float((P * q_c).sum())
                if pc > 0.0:
                    weight = P * q_c * art["E"][c] / pc
                    u_list.append((weight.sum(axis=1) if c == 0 else weight.sum(axis=0), c))
                    v_list.append(weight)
        assert out["instances"] == len(v_list) > 0
        V = np.stack(v_list)
        rng = np.random.default_rng(404)
        max_q, max_r = [], []
        for _ in range(trials):
            F = sample_hash(model.ell, r, rng)
            G = sample_hash(model.ell, r, rng)
            sF = np.array([1.0 - 2.0 * F(x) for x in range(n)])
            sG = np.array([1.0 - 2.0 * G(x) for x in range(n)])
            max_q.append(max(abs(float(u @ (sF if c == 0 else sG))) for u, c in u_list))
            max_r.append(np.abs(np.einsum("s,kst,t->k", sF, V, sG)).max())
        max_q, max_r = np.array(max_q), np.array(max_r)
        stat = np.maximum(max_q, max_r)
        assert out["exceed_q"] == [int((max_q >= lam).sum()) / trials for lam in grid]
        assert out["exceed_r"] == [int((max_r >= lam).sum()) / trials for lam in grid]
        assert out["exceed"] == [int((stat >= lam).sum()) / trials for lam in grid]
        assert 0.0 < out["exceed"][0] and out["exceed"][-1] < 1.0


@pytest.mark.parametrize("model, params", [
    (ClassicalLeakSim(4, 0.25), dict(k=4, ell=4, theta=1.0, delta0=0.5, alpha=1.5,
                                     eps0=0.5, gamma=1.0)),
    (WiesnerToyOtm(2), dict(k=2, ell=2, theta=1.0, delta0=1.0, alpha=1.0,
                            eps0=1.0, gamma=1.0)),
    (WiesnerToyOtm(3), dict(k=3, ell=3, theta=1.0, delta0=1.0, alpha=1.0,
                            eps0=1.0, gamma=1.0)),
])
def test_direct_scan_tables_match_nested_loop(monkeypatch, model, params):
    # oracle: the per-c 2x2 tables from two bit arrays and a nested a, b loop
    params = ReductionParams(**params)
    rng = np.random.default_rng(31)
    otm = IdealBitOtm(sample_hash(model.ell, 2, rng), sample_hash(model.ell, 2, rng), model)
    seen = []
    exact = otm_module.hummingbird_distance

    def recording(table):
        seen.append(table.copy())
        return exact(table)

    monkeypatch.setattr(otm_module, "hummingbird_distance", recording)
    report = evaluate_security(otm, params.delta, params)
    n = 1 << model.ell
    bitsF = np.array([otm.F(x) for x in range(n)])
    bitsG = np.array([otm.G(x) for x in range(n)])
    level = params.alpha * params.k
    expected = []
    for token in model.outcome_set(2.0 * params.delta):
        if model.certified_entropy(token) < level - 1e-9:
            continue
        P = model.conditional_joint(token)
        art = otm_module._split_outcome(P, level, params.eta)
        for c in (0, 1):
            q = art["C"] if c == 1 else 1.0 - art["C"]
            pr_c = float((P * q).sum())
            if pr_c <= 0.0:
                continue
            weight = P * q * art["E"][c]
            hidden = bitsF[:, None] if c == 0 else bitsG[None, :]
            other = bitsG[None, :] if c == 0 else bitsF[:, None]
            table = np.zeros((2, 2))
            for a in (0, 1):
                for b in (0, 1):
                    table[a, b] = weight[(hidden == a) & (other == b)].sum()
            expected.append(table / pr_c)
    assert len(seen) == len(expected) > 0
    for got, want in zip(seen, expected):
        assert got.tobytes() == want.tobytes()
    assert abs(report.direct_l1 - report.aggregated_l1) <= 1e-9


def test_evaluate_security_raises_on_disagreeing_paths(monkeypatch):
    model = ClassicalLeakSim(2, 0.25)
    field = BinaryField(2)
    otm = IdealBitOtm(HashFunction(field, (0, 1)), HashFunction(field, (1, 1)), model)
    params = ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=1.5,
                             eps0=0.5, gamma=1.0)
    evaluate_security(otm, params.delta, params)
    exact = otm_module._fourier

    def perturbed(*args):
        Q, R = exact(*args)
        return [q + 1e-6 for q in Q], R

    monkeypatch.setattr(otm_module, "_fourier", perturbed)
    with pytest.raises(NumericalConsistencyError, match="Fourier coefficients"):
        evaluate_security(otm, params.delta, params)


def _split_outcome_oracle(P, alpha_k, eta):
    """The one-outcome split through `CondDist`: joint_cond_dist, then
    entropy_split, then the flip to the hidden-string convention."""
    n = P.shape[0]
    split = entropy_split(joint_cond_dist(P[None, :, :], [1.0]), alpha_k, 0.0, eta)
    ev = split["certificate"]["event"]  # rows: C_split=0, C_split=1
    E = np.stack([np.repeat(ev[1, :n][:, None], n, axis=1),
                  np.repeat(ev[0, n:][None, :], n, axis=0)])
    return {"C": 1.0 - split["C"][:, :, 0], "E": E,
            "event_probability": split["certificate"]["event_probability"],
            "collision_log2": -split["certificate"]["value"]}


def _posteriors(model, rng):
    """Every advertised posterior of the model, plus, for a Wiesner model,
    the posteriors of a few random separable elements."""
    tables = [model.conditional_joint(token) for token in model.outcome_set(1.0)]
    if isinstance(model, WiesnerToyOtm):
        for _ in range(6):
            tables.append(model.born_joint(_random_elements(1 << model.m, rng)[0])[0])
    return tables


@pytest.mark.parametrize("model", [ClassicalLeakSim(4, 0.25), ClassicalLeakSim(8, 0.125),
                                   WiesnerToyOtm(2), WiesnerToyOtm(3)],
                         ids=["leak-4", "leak-8", "wiesner-2", "wiesner-3"])
def test_split_outcome_equals_cond_dist_route(model):
    rng = np.random.default_rng(77)
    for P in _posteriors(model, rng):
        level = -math.log2(P.max())
        for alpha_k, eta in ((level, 0.25), (0.5 * level, 0.5)):
            got = otm_module._split_outcome(P, alpha_k, eta)
            want = _split_outcome_oracle(P, alpha_k, eta)
            assert got.keys() == want.keys()
            n = P.shape[0]
            assert got["C"].shape in ((n, 1), (1, n))
            assert np.broadcast_to(got["C"], (n, n)).tobytes() == want["C"].tobytes()
            assert got["E"][0].shape == (n, 1) and got["E"][1].shape == (1, n)
            for c in (0, 1):
                full = np.broadcast_to(got["E"][c], (n, n))
                assert full.tobytes() == want["E"][c].tobytes(), c
            for key in ("event_probability", "collision_log2"):
                assert type(got[key]) is float and repr(got[key]) == repr(want[key]), key


@pytest.mark.parametrize("cell, other", [(math.nan, 0.0), (-0.25, 0.25), (0.5, 0.0)])
def test_split_outcome_refuses_bad_posteriors(cell, other):
    P = np.full((4, 4), 1.0 / 16.0)
    P[0, 0] += cell  # NaN, a negative cell with total 1, or total 1.5
    P[0, 1] += other
    with pytest.raises(ValueError, match="posterior"):
        otm_module._split_outcome(P, 2.0, 0.25)


def test_evaluate_security_refuses_an_unnormalised_posterior():
    class Unnormalised(ClassicalLeakSim):
        def conditional_joint(self, outcome):
            return 2.0 * super().conditional_joint(outcome)

    params = ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=1.5,
                             eps0=0.5, gamma=1.0)
    field = BinaryField(2)
    otm = IdealBitOtm(HashFunction(field, (0, 1)), HashFunction(field, (1, 1)),
                      Unnormalised(2, 0.25))
    with pytest.raises(ValueError, match="posterior"):
        evaluate_security(otm, params.delta, params)
    # every outcome of the honest model holds 3 bits, below alpha*k = 4
    otm = IdealBitOtm(otm.F, otm.G, ClassicalLeakSim(2, 0.25))
    params = ReductionParams(k=2, ell=2, theta=1.0, delta0=0.5, alpha=2.0,
                             eps0=0.5, gamma=1.0)
    with pytest.raises(ValueError, match="no advertised outcome"):
        evaluate_security(otm, params.delta, params)


def test_hash_bias_tail_degenerate_model():
    model = ClassicalLeakSim(4, 0.0)
    rng = np.random.default_rng(11)
    out = hash_bias_tail(model, 0.5, 4, 1000, rng, alpha_k=4.0, eta=0.5,
                         lambda_grid=[0.5, 1.0, 2.0])
    assert out["instances"] == 1
    assert out["exceed"][-1] == 0.0  # |Q|, |R| <= 1 always
    for i in range(3):
        assert out["ucl_q"][i] <= min(1.0, out["union_bound_sharp"][i]) + 1e-12
    # reproducibility from an identical stream
    again = hash_bias_tail(model, 0.5, 4, 1000, np.random.default_rng(11),
                           alpha_k=4.0, eta=0.5, lambda_grid=[0.5, 1.0, 2.0])
    assert again["exceed"] == out["exceed"]
    with pytest.raises(ValueError):
        hash_bias_tail(model, 0.5, 6, 1000, rng, alpha_k=4.0, eta=0.5)
    with pytest.raises(ValueError):
        hash_bias_tail(model, 0.5, 4, 500, rng, alpha_k=4.0, eta=0.5)
    with pytest.raises(ValueError):
        hash_bias_tail(model, 0.5, 4, 1000, rng, alpha_k=4.0, eta=0.5,
                       lambda_grid=[0.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        hash_bias_tail(model, 0.5, 4, 1000, rng, alpha_k=4.0, eta=0.5, lambda_grid=[])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hash_bias_tail_rejects_non_finite_thresholds(bad, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran before the grid was checked")

    monkeypatch.setattr(otm_module, "sample_hash", no_trials)
    with pytest.raises(ValueError, match="finite"):
        hash_bias_tail(ClassicalLeakSim(4, 0.0), 0.5, 4, 1000, np.random.default_rng(11),
                       alpha_k=4.0, eta=0.5, lambda_grid=[bad, 0.5])


@pytest.mark.parametrize("delta", [0.8, -0.1])
def test_hash_bias_tail_refuses_delta_as_evaluate_security_does(delta):
    # one admission rule: 2*delta outside (0, 1] is refused, neither clamped
    # to 1 nor reported doubled
    model = ClassicalLeakSim(4, 0.25)
    field = BinaryField(4)
    otm = IdealBitOtm(HashFunction(field, (0, 1)), HashFunction(field, (1, 1)), model)
    params = ReductionParams(k=4, ell=4, theta=1.0, delta0=0.5, alpha=1.5, eps0=0.5, gamma=1.0)
    with pytest.raises(ValueError) as want:
        evaluate_security(otm, delta, params)
    rng = np.random.default_rng(13)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as got:
        hash_bias_tail(model, delta, 4, 1000, rng, alpha_k=6.0, eta=0.5)
    assert str(got.value) == str(want.value) == "delta=%r leaves 2*delta outside (0, 1]" % delta
    assert rng.bit_generator.state == state


def test_hash_bias_tail_refuses_r_above_domain_before_any_work(monkeypatch):
    def no_split(*args):
        raise AssertionError("an outcome was split before r was checked")

    monkeypatch.setattr(otm_module, "_split_outcome", no_split)
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="exceeds domain size"):
        hash_bias_tail(ClassicalLeakSim(2, 0.0), 0.5, 8, 1000, rng, alpha_k=2.0, eta=0.5)
    assert rng.bit_generator.state == state


def test_continuity_check_identical_outcomes():
    model = WiesnerToyOtm(1)
    F = np.array([1.0, -1.0])
    G = np.array([1.0, -1.0])
    M = np.diag([1.0, 0.0])
    rep = continuity_check(model, F, G, M, M, mu=0.01, tau=0.1, delta=0.1,
                           alpha_k=1.4, eta=0.5)
    assert rep["hypothesis_ok"]
    assert rep["m_tilde_delta_non_negligible"]
    assert rep["event_lower_bound_ok"]
    assert rep["bad_c_count"] == 0
    for entry in rep["per_c"]:
        assert entry["ok"]
        assert entry["Q_delta"] == pytest.approx(0.0, abs=1e-12)
        assert entry["R_delta"] == pytest.approx(0.0, abs=1e-12)


def test_continuity_check_perturbed_outcome():
    model = WiesnerToyOtm(1)
    F = np.array([1.0, -1.0])
    G = np.array([1.0, -1.0])
    M = np.diag([1.0, 0.0])
    M_tilde = np.diag([0.995, 0.005])
    rep = continuity_check(model, F, G, M, M_tilde, mu=0.01, tau=0.1, delta=0.1,
                           alpha_k=1.4, eta=0.5)
    assert rep["hypothesis_ok"]
    assert rep["hypotheses"]["distance"] == pytest.approx(0.005)
    assert rep["m_tilde_delta_non_negligible"]
    assert rep["event_lower_bound_ok"]
    assert rep["qr_bound"] == pytest.approx(2 * 0.01 * (2.0 / (0.1 * 0.1)) ** 2)
    for entry in rep["per_c"]:
        assert entry["ok"]


def test_continuity_check_bad_c_and_bad_hypotheses():
    model = WiesnerToyOtm(1)
    F = np.array([1.0, -1.0])
    G = np.array([1.0, -1.0])
    M = np.diag([1.0, 0.0])
    # tau above Pr(C=0 | Z=M) = 1/4 forces the bad-c branch for c=0
    rep = continuity_check(model, F, G, M, M, mu=0.01, tau=0.3, delta=0.3,
                           alpha_k=1.4, eta=0.5)
    assert rep["hypothesis_ok"]
    assert rep["bad_c_count"] == 1
    bad = rep["per_c"][0]
    assert bad["bad"] and bad["Q_M"] == 0.0 and bad["R_M"] == 0.0 and bad["ok"]
    # a norm violation is reported, not silently accepted
    rep = continuity_check(model, F, G, 0.5 * M, 0.5 * M, mu=0.01, tau=0.1,
                           delta=0.1, alpha_k=1.4, eta=0.5)
    assert not rep["hypothesis_ok"]
    assert not rep["hypotheses"]["norm_one"]
    assert "per_c" not in rep
    # mu too large for the perturbation lemma's hypothesis
    rep = continuity_check(model, F, G, M, M, mu=0.2, tau=0.1, delta=0.1,
                           alpha_k=1.4, eta=0.5)
    assert not rep["hypothesis_ok"]
    # a delta with 2*delta outside (0, 1] is reported, neither raised nor clamped
    for delta in (-0.1, 0.6):
        rep = continuity_check(model, F, G, M, M, mu=0.0, tau=0.1, delta=delta,
                               alpha_k=1.4, eta=0.5)
        assert not rep["hypothesis_ok"]
        assert not rep["hypotheses"]["delta_range_ok"]
        assert not rep["hypotheses"]["M_2delta_non_negligible"]


def test_continuity_check_refuses_hashes_on_another_domain():
    model = WiesnerToyOtm(2)
    rng = np.random.default_rng(19)
    M = model.povm[0]
    for F, G in ((sample_hash(3, 4, rng), sample_hash(2, 4, rng)),
                 (sample_hash(2, 4, rng), sample_hash(3, 4, rng))):
        with pytest.raises(ValueError, match="hash domain"):
            continuity_check(model, F, G, M, M, mu=0.01, tau=0.1, delta=0.2,
                             alpha_k=1.0, eta=0.5)
        # the wrapper refuses them the same way, with the same message
        with pytest.raises(ValueError) as got:
            IdealBitOtm(F, G, model)
        assert str(got.value) == "hash domain 2^3 does not match model ell=2"


def _digest(doc):
    text = json.dumps(doc, sort_keys=True, default=lambda o: o.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def test_hash_bias_tail_and_continuity_check_are_pinned():
    # hash_bias_tail at the hash-bias benchmark's configuration
    out = hash_bias_tail(ClassicalLeakSim(8, 0.125), 0.25, 8, 1000, np.random.default_rng(9),
                         alpha_k=12.0, eta=2.0 ** -1.5)
    assert _digest(out) == "4a44316e16dc833272e42937d344bcb4bc2e05cbe9c173af53e64ac784124efc"
    # a Wiesner m=2 report with both c good, so both transferred E tables count
    rng = np.random.default_rng(2)
    F, G = sample_hash(2, 4, rng), sample_hash(2, 4, rng)
    M = np.diag([1.0, 0.0, 0.0, 0.0])
    rep = continuity_check(WiesnerToyOtm(2), F, G, M, 0.996 * M + 0.001 * np.eye(4), mu=0.01,
                           tau=0.1, delta=0.1, alpha_k=2.5, eta=0.5)
    assert rep["hypothesis_ok"] and rep["bad_c_count"] == 0
    assert _digest(rep) == "750a3e150be7ecd2bb1d0191b9f2a4a0c84e5c82c16789ad226edcf2735cf4f0"


def _old_split_outcome(P, alpha_k, eta):
    """One posterior through `split_joints` alone, C as a full table."""
    n = P.shape[0]
    split = entropy_mod.split_joints(P[None, None], np.ones((1, 1)), alpha_k, 0.0, eta)
    ev = split["event"][0]
    return 1.0 - split["C"][0, 0], (ev[1, :n][:, None], ev[0, n:][None, :])


@pytest.mark.parametrize("model", [
    ClassicalLeakSim(2, 0.5), ClassicalLeakSim(3, 0.25), ClassicalLeakSim(4, 0.25, (1, 6)),
    ClassicalLeakSim(5, 0.3), ClassicalLeakSim(6, 0.5, (0, 3, 4, 7, 9, 10)),
    ClassicalLeakSim(7, 0.25), ClassicalLeakSim(8, 0.125, (2, 15)), ClassicalLeakSim(8, 0.25),
    WiesnerToyOtm(2), WiesnerToyOtm(3)],
    ids=["leak-2", "leak-3", "leak-4-positions", "leak-5", "leak-6-positions", "leak-7",
         "leak-8-positions", "leak-8", "wiesner-2", "wiesner-3"])
def test_outcome_pass_equals_old_kernels(monkeypatch, model):
    # `_split_outcome`, `_weights` and `_fourier` against the same split on
    # the replaced entropy kernels and the replaced `_weights` and
    # `_fourier`: bit for bit on the dyadic classical posteriors, to 1e-12
    # on random Wiesner posteriors
    rng = np.random.default_rng([78, model.ell])
    tables = _posteriors(model, rng)
    sF, sG = otm_module._signs(sample_hash(model.ell, 2, rng), sample_hash(model.ell, 2, rng),
                               model.ell)
    exact = isinstance(model, ClassicalLeakSim)
    for alpha_k, eta in ((min(-math.log2(P.max()) for P in tables), 0.25), (1.0, 0.5)):
        got = []
        for P in tables:
            art = otm_module._split_outcome(P, alpha_k, eta)
            pc, weights = otm_module._weights(P, art["C"], art["E"])
            got.append((pc, weights) + otm_module._fourier(pc, weights, sF, sG))
        with monkeypatch.context() as mp:
            split_oracle.use_old_kernels(mp)
            want = []
            for P in tables:
                pc, weights = split_oracle.weights(P, *_old_split_outcome(P, alpha_k, eta))
                want.append((pc, weights) + split_oracle.fourier(pc, weights, sF, sG))
        assert len(got) == len(want) == len(tables)
        for (pc, weights, Q, R), (pc_w, weights_w, Q_w, R_w) in zip(got, want):
            if exact:
                assert repr((pc, Q, R)) == repr((pc_w, Q_w, R_w))
                assert all(w.tobytes() == v.tobytes() for w, v in zip(weights, weights_w))
            else:
                assert np.allclose(pc + Q + R, pc_w + Q_w + R_w, rtol=0.0, atol=1e-12)
                assert all(np.allclose(w, v, rtol=0.0, atol=1e-12)
                           for w, v in zip(weights, weights_w))
