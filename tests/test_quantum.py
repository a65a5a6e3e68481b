import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from otmlab.quantum import (
    POVM_SPECTRUM_TOL,
    KrausLayer,
    NumericalConsistencyError,
    PovmElement,
    SeparableOutcome,
    TwoLocalOutcome,
    _herm2_spectrum,
    _layer_operators,
    assemble_two_local,
    assemble_two_local_stack,
    born_probability,
    is_delta_non_negligible,
    negligible_mass,
    opnorms,
    tensor_stack,
    validate_povm_stack,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def _random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_povm_element(rng, d):
    h = _random_hermitian(rng, d)
    w, v = np.linalg.eigh(h)
    return PovmElement((v * np.clip(w, 0.0, 1.0)) @ v.conj().T)


def _random_complete_povm(rng, d, n):
    # conjugate random PSD pieces by the inverse square root of their sum
    pieces = []
    for _ in range(n):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        pieces.append(a @ a.conj().T)
    s = sum(pieces)
    w, v = np.linalg.eigh(s)
    isqrt = (v / np.sqrt(w)) @ v.conj().T
    return [isqrt @ p @ isqrt for p in pieces]


# ---------------------------------------------------------------------------
# tensor_stack
# ---------------------------------------------------------------------------

def test_tensor_identities():
    assert np.array_equal(tensor_stack([[I2, I2]])[0], np.eye(4))
    p01 = tensor_stack([[KET0, KET1]])[0]
    expect = np.zeros((4, 4), dtype=complex)
    expect[1, 1] = 1.0
    assert np.array_equal(p01, expect)


def test_tensor_operator_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = float(opnorms(tensor_stack([[a, b]])[0]))
        rhs = np.linalg.svd(a, compute_uv=False)[0] * np.linalg.svd(b, compute_uv=False)[0]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_tensor_dimension_cap():
    with pytest.raises(ValueError):
        tensor_stack(np.zeros((1, 13, 2, 2)))  # 2^13 > 2^12
    with pytest.raises(ValueError):
        tensor_stack(np.zeros((1, 2, 128, 128)))  # 2^14 > 2^12
    # 2^12 exactly is allowed; an empty stack checks the cap without the
    # 256 MB product
    assert tensor_stack(np.zeros((0, 2, 64, 64))).shape == (0, 1 << 12, 1 << 12)


def test_tensor_rejects_non_square():
    with pytest.raises(ValueError):
        tensor_stack(np.ones((1, 2, 2, 3)))
    with pytest.raises(ValueError):
        tensor_stack(np.ones((2, 2)))  # not a (K, m, d, d) stack


# ---------------------------------------------------------------------------
# opnorms
# ---------------------------------------------------------------------------

def test_norms_identity_and_zero():
    assert opnorms(I2) == pytest.approx(1.0)
    assert opnorms(np.zeros((3, 3))) == 0.0
    assert opnorms(np.stack([I2, 2.0 * I2, np.zeros((2, 2))])) == pytest.approx([1.0, 2.0, 0.0])


def test_norms_hermitian_eigen_oracle():
    rng = np.random.default_rng(3)
    hs = np.stack([_random_hermitian(rng, 4) for _ in range(30)])
    got = opnorms(hs)
    assert got.shape == (30,)
    for h, op in zip(hs, got):
        ev = np.linalg.eigvalsh(h)
        assert op == pytest.approx(np.abs(ev).max(), rel=1e-12, abs=1e-12)
        assert opnorms(h) == op


def test_norms_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        m = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            opnorms(m)
        with pytest.raises(ValueError, match="non-finite"):
            opnorms(np.stack([I2, m]))


def _stacks():
    rng = np.random.default_rng(19)
    yield rng.random((4, 256, 256)) / 256.0  # real, as the bilinear forms' V
    yield rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
    for n in (2, 3, 4, 8, 16, 32):
        yield rng.normal(size=(5, n, n))
        yield rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))


def test_opnorms_bit_equal_to_linalg_norm():
    for stack in _stacks():
        got = opnorms(stack)
        assert got.shape == stack.shape[:1]
        for x, op in zip(stack, got):
            want = np.linalg.norm(x, 2)
            assert op.tobytes() == want.tobytes()
            assert opnorms(x).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Born rule
# ---------------------------------------------------------------------------

def test_born_probability_basics():
    assert born_probability(KET0, KET0) == pytest.approx(1.0)
    assert born_probability(KET0, KET1) == pytest.approx(0.0)
    assert born_probability(KET0, I2 / 2) == pytest.approx(0.5)


def test_born_probability_clamps_and_errors():
    # tiny negative excursion: clamped silently
    m = -5e-10 * I2
    assert born_probability(m, I2 / 2) == 0.0
    # moderate excursion: clamped with a warning
    with pytest.warns(UserWarning):
        assert born_probability(-5e-8 * I2, I2 / 2) == 0.0
    # gross violation: numerical-consistency error
    with pytest.raises(NumericalConsistencyError):
        born_probability(-1e-3 * I2, I2 / 2)
    with pytest.raises(NumericalConsistencyError):
        born_probability(2.0 * I2, I2 / 2)


def test_born_probability_dimension_mismatch():
    with pytest.raises(ValueError):
        born_probability(I2, np.eye(4) / 4)


# ---------------------------------------------------------------------------
# delta-non-negligibility and negligible mass
# ---------------------------------------------------------------------------

def test_non_negligible_boundary_cases():
    assert is_delta_non_negligible(I2, I2 / 2, 1.0)  # equality counts
    assert not is_delta_non_negligible(KET0, KET1, 0.1)  # 0 < 0.05
    assert is_delta_non_negligible(KET0, I2 / 2, 0.5)  # 0.5 >= 0.25


def test_non_negligible_rejects_bad_delta():
    for delta in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            is_delta_non_negligible(I2, I2 / 2, delta)


def test_non_negligible_scaling_invariance():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = _random_povm_element(rng, 4)
        rho = _random_state(rng, 4)
        base = is_delta_non_negligible(m, rho, 0.3)
        top = 1.0 / float(opnorms(m.matrix))
        for c in (1e-6, 0.01, 0.5, 0.999 * top, top):
            assert is_delta_non_negligible(c * m.matrix, rho, 0.3) == base


def test_negligible_mass_symmetric_case():
    for m in (1, 2):
        d = 1 << m
        povm = [np.zeros((d, d), dtype=complex) for _ in range(d)]
        for z in range(d):
            povm[z][z, z] = 1.0
        rho = np.eye(d) / d
        for delta in (0.1, 0.5, 1.0):
            assert negligible_mass(povm, rho, delta) == 0.0


def test_negligible_mass_zero_probability_outcome():
    assert negligible_mass([KET0, KET1], KET0, 0.5) == 0.0


def test_negligible_mass_incomplete_rejected():
    with pytest.raises(ValueError):
        negligible_mass([KET0, KET0], I2 / 2, 0.5)
    with pytest.raises(ValueError, match="empty"):
        negligible_mass([], I2 / 2, 0.5)
    with pytest.raises(ValueError, match="dimensions"):
        negligible_mass([KET0, np.eye(4)], I2 / 2, 0.5)
    with pytest.raises(ValueError, match="square"):
        negligible_mass([np.ones((2, 3))], I2 / 2, 0.5)


def test_negligible_mass_strictly_below_delta_randomized():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = rng.choice([2, 4])
        povm = _random_complete_povm(rng, int(d), int(rng.integers(2, 6)))
        rho = _random_state(rng, int(d))
        for delta in (0.05, 0.1, 0.3, 0.5, 0.9, 1.0):
            assert negligible_mass(povm, rho, delta) < delta


# ---------------------------------------------------------------------------
# wrapper type invariants
# ---------------------------------------------------------------------------

def test_povm_element_validation():
    with pytest.raises(ValueError):
        PovmElement(np.diag([1.2, 0.0]))
    with pytest.raises(ValueError):
        PovmElement(np.diag([-0.2, 0.0]))
    with pytest.raises(ValueError, match=r"\(K, d, d\)"):
        validate_povm_stack(np.eye(2))
    m = PovmElement(np.diag([1.0, 0.0]))
    assert m.dim == 2
    assert not m.matrix.flags.writeable


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_povm_validation_refuses_nonfinite_entries(dim, bad):
    # a 2x2 spectrum in closed form and a LAPACK one alike: one ValueError
    # before any spectrum is taken
    m = np.eye(dim, dtype=complex) / 2.0
    m[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_povm_stack(m[None])
    with pytest.raises(ValueError, match="non-finite"):
        PovmElement(m)


_ENTRY = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _hermitian_2x2(draw):
    """[[a, b], [conj(b), d]]: general, diagonal (b = 0) or degenerate
    (a = d, b = 0, so the radius is 0)."""
    kind = draw(st.sampled_from(["general", "diagonal", "degenerate"]))
    a = draw(_ENTRY)
    d = a if kind == "degenerate" else draw(_ENTRY)
    b = 0j if kind != "general" else complex(draw(_ENTRY), draw(_ENTRY))
    return np.array([[a, b], [np.conj(b), d]], dtype=complex)


@seed(14)
@settings(max_examples=300, deadline=None)
@given(_hermitian_2x2())
def test_herm2_spectrum_matches_eigvalsh(x):
    mean, _, rad = _herm2_spectrum(x[0, 0].real, x[1, 1].real, x[0, 1])
    # eigvalsh's own error grows with the entries, so 1e-13 is relative to them
    tol = 1e-13 * max(1.0, float(np.abs(x).max()))
    assert np.abs(np.array([mean - rad, mean + rad]) - np.linalg.eigvalsh(x)).max() <= tol


def test_two_by_two_spectrum_check_keeps_its_tolerance():
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    good = np.stack([(q * lam) @ q.conj().T for lam in ([0.0, 1.0], [0.5, 1.0 + 5e-11],
                                                         [-5e-11, 0.25])])
    assert validate_povm_stack(good).shape == (3, 2, 2)
    message = r"POVM element spectrum \[.*\] outside \[0, 1\] to %g" % POVM_SPECTRUM_TOL
    for lam in ([0.5, 1.0 + 2e-10], [-2e-10, 0.5]):
        bad = np.concatenate([good, ((q * lam) @ q.conj().T)[None]])
        with pytest.raises(ValueError, match=message):
            validate_povm_stack(bad)
        with pytest.raises(ValueError, match=message):
            PovmElement(np.diag(lam))
    with pytest.raises(ValueError, match="not Hermitian to %g" % POVM_SPECTRUM_TOL):
        validate_povm_stack(np.array([[[0.5, 0.1], [0.1 + 2e-10, 0.5]]]))


def test_separable_outcome_materializes_to_povm_element():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        out = SeparableOutcome([_random_povm_element(rng, 2) for _ in range(m)])
        mat = out.assemble()
        assert isinstance(mat, PovmElement)
        assert mat.dim == 1 << m
    with pytest.raises(ValueError):
        SeparableOutcome([])
    with pytest.raises(ValueError):
        SeparableOutcome([np.eye(4)])


# ---------------------------------------------------------------------------
# 2-local assembly
# ---------------------------------------------------------------------------

def test_kraus_layer_validation():
    with pytest.raises(ValueError):
        KrausLayer([(0, 1), (1, 2)], [np.eye(4), np.eye(4)])  # overlap
    with pytest.raises(ValueError):
        KrausLayer([(0, 2)], [np.eye(4)])  # qubit 1 missing
    with pytest.raises(ValueError, match=r"exceeds 1 \+"):
        KrausLayer([(0, 1)], [2.0 * np.eye(4)])  # operator norm 2
    with pytest.raises(ValueError, match=r"must be 4x4, got shape \(2, 2\)"):
        KrausLayer([(0, 1)], [np.eye(2)])
    with pytest.raises(ValueError, match="got 2 factors for 1 pairs"):
        KrausLayer([(0, 1)], [np.eye(4), np.eye(4)])
    with pytest.raises(ValueError, match="pairs"):
        KrausLayer([(0, 1, 2)], [np.eye(4)])  # a triple, not a pair


def test_kraus_layer_holds_factors_as_one_array():
    rng = np.random.default_rng(43)
    fs = [_random_hermitian(rng, 4) for _ in range(2)]
    fs = [f / np.linalg.norm(f, 2) for f in fs]
    layer = KrausLayer([(0, 2), (1, 3)], fs)
    assert layer.factors.shape == (2, 4, 4) and layer.factors.dtype == complex
    assert layer.factors.tobytes() == np.asarray(fs, dtype=complex).tobytes()
    assert layer.m == 4 and layer.pairing == [(0, 2), (1, 3)]


def test_contraction_check_refuses_norm_one_plus_1e9():
    # a unitary scaled to norm 1 + 1e-9 is refused by the layer and by the
    # stacked assembly; 1 + 5e-11 is inside the 1e-10 tolerance of both
    rng = np.random.default_rng(47)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for scale, refused in ((1.0 + 1e-9, True), (1.0 + 5e-11, False)):
        f = np.stack([q, scale * q])
        stack = np.stack([np.eye(4), f[1]])[None, None]
        if refused:
            with pytest.raises(ValueError, match=r"factor operator norm .* exceeds 1 \+ 1e-10"):
                KrausLayer([(0, 1), (2, 3)], f)
            with pytest.raises(ValueError, match=r"factor operator norm .* exceeds 1 \+ 1e-10"):
                assemble_two_local_stack([[[(0, 1), (2, 3)]]], stack)
        else:
            KrausLayer([(0, 1), (2, 3)], f)
            assemble_two_local_stack([[[(0, 1), (2, 3)]]], stack)


def test_two_local_identity_layers():
    t = TwoLocalOutcome([KrausLayer([(0, 1)], [np.eye(4)])])
    m = assemble_two_local(t)
    assert np.allclose(m.matrix, np.eye(4), atol=1e-12)


def test_two_local_projector_layer():
    p = np.zeros((4, 4), dtype=complex)
    p[2, 2] = 1.0  # |10><10| on the pair
    t = TwoLocalOutcome([KrausLayer([(0, 1)], [p])])
    m = assemble_two_local(t)
    assert np.allclose(m.matrix, p, atol=1e-12)


def test_two_local_crossed_pairing_matches_loop_oracle():
    # pairing (0,2),(1,3): entry M[(a0a1a2a3),(b0b1b3b3)] must factor as
    # F[(a0a2),(b0b2)] * G[(a1a3),(b1b3)]
    rng = np.random.default_rng(31)
    f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    f /= np.linalg.norm(f, 2)
    g /= np.linalg.norm(g, 2)
    k = _layer_operators(np.stack([f, g])[None], [(0, 2), (1, 3)])[0]
    expect = np.zeros((16, 16), dtype=complex)
    for a in range(16):
        a0, a1, a2, a3 = (a >> 3) & 1, (a >> 2) & 1, (a >> 1) & 1, a & 1
        for b in range(16):
            b0, b1, b2, b3 = (b >> 3) & 1, (b >> 2) & 1, (b >> 1) & 1, b & 1
            expect[a, b] = f[(a0 << 1) | a2, (b0 << 1) | b2] * g[(a1 << 1) | a3, (b1 << 1) | b3]
    assert np.allclose(k, expect, atol=1e-12)


def test_two_local_random_layers_spectrum():
    rng = np.random.default_rng(37)
    for _ in range(10):
        layers = []
        for _ in range(2):
            fs = []
            for _ in range(2):
                a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                fs.append(a / np.linalg.norm(a, 2))
            pairing = [(0, 1), (2, 3)] if rng.integers(2) else [(0, 2), (1, 3)]
            layers.append(KrausLayer(pairing, fs))
        m = assemble_two_local(TwoLocalOutcome(layers))
        ev = np.linalg.eigvalsh(m.matrix)
        assert ev.min() >= -1e-10 and ev.max() <= 1.0 + 1e-10


def test_two_local_separable_layer_matches_separable_outcome():
    rng = np.random.default_rng(41)
    for _ in range(10):
        facs = [_random_povm_element(rng, 2) for _ in range(4)]
        sep = SeparableOutcome(facs).assemble()
        # Kraus factor sqrt(Ma) (x) sqrt(Mb) per pair gives K^dag K = Ma (x) Mb
        def msqrt(p):
            w, v = np.linalg.eigh(p.matrix)
            return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        layer = KrausLayer([(0, 1), (2, 3)],
                           [np.kron(msqrt(facs[0]), msqrt(facs[1])),
                            np.kron(msqrt(facs[2]), msqrt(facs[3]))])
        m = assemble_two_local(TwoLocalOutcome([layer]))
        assert np.abs(m.matrix - sep.matrix).max() <= 1e-10


def test_two_local_caps():
    layer8 = KrausLayer([(0, 1), (2, 3), (4, 5), (6, 7)], [np.eye(4)] * 4)
    with pytest.raises(ValueError):
        assemble_two_local(TwoLocalOutcome([layer8]))  # m = 8 > 6
    layer2 = KrausLayer([(0, 1)], [np.eye(4)])
    with pytest.raises(ValueError):
        assemble_two_local(TwoLocalOutcome([layer2] * 9))  # d = 9 > 8


def test_two_local_inconsistent_layers_rejected():
    l2 = KrausLayer([(0, 1)], [np.eye(4)])
    l4 = KrausLayer([(0, 1), (2, 3)], [np.eye(4), np.eye(4)])
    with pytest.raises(ValueError):
        TwoLocalOutcome([l2, l4])
    with pytest.raises(ValueError, match="layer"):
        TwoLocalOutcome([])
    with pytest.raises(ValueError, match="pairings"):
        assemble_two_local_stack([], np.eye(4)[None, None, None])  # 0 pairings for 1 row

