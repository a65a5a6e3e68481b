r"""Dense complex-matrix quantum core.

POVM elements, tensor structure, operator norms, the Born rule,
delta-non-negligibility of measurement outcomes, and the separable /
2-local-depth-d outcome representations used by the net and security
modules.  Everything is dense and desk-scale: operators live in dimension
at most 2^12, and 2-local assembly is capped at m <= 6 qubits.
`opnorms` is the one operator-norm computation; the 4x4 contractions
(|K| <= 1) of 2-local outcomes are checked through it, a stack at a time.

States are plain density matrices.  POVM elements may be passed either as
raw numpy arrays or as `PovmElement`, which validates 0 <= M <= I at
construction and is immutable afterwards.
"""

import warnings

import numpy as np

MAX_TENSOR_DIM = 1 << 12
POVM_SPECTRUM_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
ASSEMBLY_SPECTRUM_TOL = 1e-9
BORN_CLAMP_WARN = 1e-9
BORN_CLAMP_ERROR = 1e-6
TWO_LOCAL_MAX_QUBITS = 6
TWO_LOCAL_MAX_DEPTH = 8


class NumericalConsistencyError(ValueError):
    """A computed quantity violates a bound that holds exactly in theory."""


def _as_matrix(x):
    if isinstance(x, PovmElement):
        return x.matrix
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (m.shape,))
    return m


def _hermitize(m):
    return (m + m.conj().T) / 2.0


class PovmElement:
    """A measurement operator M with 0 <= M <= I (spectrum tolerance 1e-10)."""

    def __init__(self, matrix):
        self.matrix = validate_povm_stack(_as_matrix(matrix)[None])[0]
        self.dim = self.matrix.shape[0]

    @classmethod
    def from_validated(cls, matrix):
        """Wrap one member of a stack returned by `validate_povm_stack`
        without repeating its checks; the matrix is held read-only."""
        self = cls.__new__(cls)
        self.matrix = matrix.view()
        self.matrix.setflags(write=False)
        self.dim = matrix.shape[0]
        return self

    def __repr__(self):
        return "PovmElement(dim=%d)" % self.dim


class SeparableOutcome:
    """A product measurement outcome: one single-qubit factor per qubit."""

    def __init__(self, factors):
        self.factors = [f if isinstance(f, PovmElement) else PovmElement(f) for f in factors]
        if not self.factors:
            raise ValueError("need at least one factor")
        for f in self.factors:
            if f.dim != 2:
                raise ValueError("separable factors must be 2x2, got dim %d" % f.dim)
        self.m = len(self.factors)

    def assemble(self):
        """Materialize the tensor product of the factors as a PovmElement."""
        stack = np.stack([f.matrix for f in self.factors])[None]
        return PovmElement.from_validated(validate_povm_stack(tensor_stack(stack))[0])

    def __repr__(self):
        return "SeparableOutcome(m=%d)" % self.m


class KrausLayer:
    """One layer of a 2-local operation: a perfect matching of the m qubits
    and one 4x4 operator of operator norm <= 1 per matched pair, held as
    the (m/2, 4, 4) array `factors` in pairing order."""

    def __init__(self, pairing, factors):
        pairing = [tuple(int(q) for q in p) for p in pairing]
        if any(len(p) != 2 for p in pairing):
            raise ValueError("pairing must consist of qubit pairs")
        touched = [q for p in pairing for q in p]
        m = 2 * len(pairing)
        if sorted(touched) != list(range(m)):
            raise ValueError("pairing %r is not a perfect matching of %d qubits" % (pairing, m))
        factors = np.asarray(factors, dtype=complex)
        if len(factors) != len(pairing):
            raise ValueError("got %d factors for %d pairs" % (len(factors), len(pairing)))
        if factors.shape[1:] != (4, 4):
            raise ValueError("2-local factors must be 4x4, got shape %r" % (factors.shape[1:],))
        _check_contractions(factors)
        self.pairing = pairing
        self.factors = factors
        self.m = m

    def __repr__(self):
        return "KrausLayer(m=%d, pairing=%r)" % (self.m, self.pairing)


class TwoLocalOutcome:
    """A depth-d 2-local measurement outcome M = (K_d...K_1)^dag (K_d...K_1).

    Each layer may use its own perfect matching of the qubits; the qubit
    count m must be even and identical across layers.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("need at least one layer")
        self.m = self.layers[0].m
        if any(l.m != self.m for l in self.layers):
            raise ValueError("layers act on inconsistent qubit counts")
        self.d = len(self.layers)

    def __repr__(self):
        return "TwoLocalOutcome(m=%d, d=%d)" % (self.m, self.d)


def tensor_stack(factors):
    """Kronecker products of a stack of factor lists, one product per row.

    Parameters
    ----------
    factors : (K, m, d, d) array; row k holds sample k's factors in order

    Returns
    -------
    (K, d^m, d^m) ndarray whose row k is factors[k, 0] x ... x factors[k, m-1]
    (bit for bit what chained `np.kron` calls give); rejected if d^m exceeds
    2^12.
    """
    f = np.asarray(factors, dtype=complex)
    if f.ndim != 4 or f.shape[1] == 0 or f.shape[2] != f.shape[3]:
        raise ValueError("expected a (K, m, d, d) stack, got shape %r" % (f.shape,))
    if f.shape[2] ** f.shape[1] > MAX_TENSOR_DIM:
        raise ValueError("tensor dimension %d exceeds cap %d"
                         % (f.shape[2] ** f.shape[1], MAX_TENSOR_DIM))
    out = f[:, 0]
    for j in range(1, f.shape[1]):
        b = f[:, j]
        # the broadcast product np.kron forms, per row
        out = (out[:, :, None, :, None] * b[:, None, :, None, :]).reshape(
            len(f), out.shape[1] * b.shape[1], out.shape[2] * b.shape[2])
    return out


def _dagger(x):
    return np.conj(np.swapaxes(x, -1, -2))


def _herm2_spectrum(a, d, b):
    """(mean, half, rad) of Hermitian 2x2 [[a, b], [conj(b), d]], vectorized:
    half = (a - d)/2, rad = sqrt(half^2 + |b|^2), eigenvalues mean -/+ rad."""
    mean = (a + d) / 2.0
    half = (a - d) / 2.0
    return mean, half, np.sqrt(half ** 2 + np.abs(b) ** 2)


def validate_povm_stack(mats):
    """Check a stack of POVM elements at once: the checks of `PovmElement`.

    Each matrix must be finite, Hermitian to 1e-10 in entrywise l-inf and
    have its spectrum in [0, 1] to 1e-10; it is then replaced by its
    Hermitian part.
    A 2x2 spectrum is taken in closed form (mean +/- radius), any other by
    LAPACK `eigvalsh`.

    Parameters
    ----------
    mats : (K, d, d) array

    Returns
    -------
    (K, d, d) read-only ndarray of the Hermitized matrices; members can be
    wrapped with `PovmElement.from_validated`.
    """
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("expected a (K, d, d) stack, got shape %r" % (m.shape,))
    if not np.isfinite(m).all():
        raise ValueError("POVM element has non-finite entries")
    if m.size:
        mh = _dagger(m)
        if np.abs(m - mh).max() > POVM_SPECTRUM_TOL:
            raise ValueError("POVM element is not Hermitian to %g" % POVM_SPECTRUM_TOL)
        m = (m + mh) / 2.0
        if m.shape[1] == 2:
            mean, _, rad = _herm2_spectrum(m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1])
            lo, hi = (mean - rad).min(), (mean + rad).max()
        else:
            eig = np.linalg.eigvalsh(m)
            lo, hi = eig.min(), eig.max()
        if lo < -POVM_SPECTRUM_TOL or hi > 1.0 + POVM_SPECTRUM_TOL:
            raise ValueError("POVM element spectrum [%g, %g] outside [0, 1] to %g"
                             % (lo, hi, POVM_SPECTRUM_TOL))
    else:
        m = m.copy()
    m.setflags(write=False)
    return m


def _layer_operators(factors, pairing):
    """Kraus operators of K layers sharing one pairing: factors is
    (K, m/2, 4, 4); returns (K, 2^m, 2^m), qubits in natural order."""
    op = tensor_stack(factors)
    m = 2 * factors.shape[1]
    perm = [q for p in pairing for q in p]
    if perm == list(range(m)):
        return op
    # op's row multi-index i_j addresses qubit perm[j]; relabel to natural
    # order by permuting both row and column axes of the 2x...x2 tensor.
    axes = [1 + perm.index(q) for q in range(m)]
    t = op.reshape((len(op),) + (2,) * (2 * m))
    t = t.transpose([0] + axes + [m + a for a in axes])
    return np.ascontiguousarray(t.reshape(len(op), 1 << m, 1 << m))


def opnorms(x):
    """Operator norms (largest singular values) of a matrix, or of each
    matrix of a (..., p, q) stack; per matrix, bit for bit what
    `np.linalg.norm(matrix, 2)` gives.  Non-finite entries are refused."""
    x = np.asarray(x)
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def _check_contractions(factors):
    """Refuse a stack of operators if any has operator norm above 1 + 1e-10."""
    s = opnorms(factors).max(initial=0.0)
    if s > 1.0 + POVM_SPECTRUM_TOL:
        raise ValueError("factor operator norm %g exceeds 1 + %g" % (s, POVM_SPECTRUM_TOL))


def born_probability(m, rho):
    """Outcome probability Tr(M rho), clamped into [0, 1].

    The real part of the trace is taken; a clamp of more than 1e-9 is
    reported through `warnings`, and a clamp of more than 1e-6 raises
    NumericalConsistencyError (a legitimate POVM element and state cannot
    stray that far).

    Parameters
    ----------
    m : PovmElement or matrix
    rho : density matrix

    Returns
    -------
    float in [0, 1]
    """
    mm = _as_matrix(m)
    rr = _as_matrix(rho)
    if mm.shape != rr.shape:
        raise ValueError("dimension mismatch: M is %r, rho is %r" % (mm.shape, rr.shape))
    p = float(np.trace(mm @ rr).real)
    clamp = max(0.0, -p, p - 1.0)
    if clamp > BORN_CLAMP_ERROR:
        raise NumericalConsistencyError("Born probability %r outside [0,1] by %g" % (p, clamp))
    if clamp > BORN_CLAMP_WARN:
        warnings.warn("Born probability clamped by %g" % clamp)
    return min(1.0, max(0.0, p))


def is_delta_non_negligible(m, rho, delta):
    """Whether outcome M is delta-non-negligible on state rho.

    The defining inequality is Tr(M rho) >= delta * Tr(M) / dim.  Both
    operands are symmetrized (M -> (M + M^dag)/2, likewise rho) before the
    traces are formed, and the comparison itself is exact -- no extra slack
    is added, so the boundary case Tr(M rho) = delta*Tr(M)/dim counts as
    non-negligible.

    Parameters
    ----------
    m : PovmElement or matrix
    rho : density matrix
    delta : float in (0, 1]

    Returns
    -------
    bool
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta=%r outside (0, 1]" % (delta,))
    mm = _hermitize(_as_matrix(m))
    rr = _hermitize(_as_matrix(rho))
    if mm.shape != rr.shape:
        raise ValueError("dimension mismatch: M is %r, rho is %r" % (mm.shape, rr.shape))
    d = mm.shape[0]
    lhs = float(np.trace(mm @ rr).real)
    rhs = delta * float(np.trace(mm).real) / d
    return lhs >= rhs


def negligible_mass(outcomes, rho, delta):
    """Total Born probability carried by delta-negligible outcomes.

    Parameters
    ----------
    outcomes : iterable of PovmElement or matrix
        Must form a complete POVM: the elements sum to the identity to 1e-9
        in entrywise l-inf, else the call is rejected.
    rho : density matrix
    delta : float in (0, 1]

    Returns
    -------
    float -- always < delta for a genuine POVM and state (strict bound;
    the test suite asserts strictness).
    """
    mats = [_as_matrix(m) for m in outcomes]
    if not mats:
        raise ValueError("empty POVM")
    d = mats[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("POVM elements have inconsistent dimensions")
        total += m
    if np.abs(total - np.eye(d)).max() > COMPLETENESS_TOL:
        raise ValueError("POVM incomplete: sum deviates from identity by %g"
                         % np.abs(total - np.eye(d)).max())
    mass = 0.0
    for m in mats:
        if not is_delta_non_negligible(m, rho, delta):
            mass += born_probability(m, rho)
    return mass


def assemble_two_local(t):
    """Materialize a TwoLocalOutcome as a PovmElement.

    Layers are applied in list order, K = K_d ... K_2 K_1, and the outcome
    operator is M = K^dag K.  Since every 4x4 factor has operator norm <= 1,
    M must satisfy 0 <= M <= I; a spectrum violation beyond 1e-9 raises
    NumericalConsistencyError.

    Parameters
    ----------
    t : TwoLocalOutcome with m <= 6 qubits and depth d <= 8

    Returns
    -------
    PovmElement of dimension 2^m
    """
    factors = np.array([[layer.factors for layer in t.layers]])
    stack = assemble_two_local_stack([[layer.pairing for layer in t.layers]], factors)
    return PovmElement.from_validated(stack[0])


def assemble_two_local_stack(pairings, factors):
    """`assemble_two_local` for K outcomes at once, one per row.

    Parameters
    ----------
    pairings : K sequences of d perfect matchings; pairings[k][l] is the
        matching of sample k's layer l
    factors : (K, d, m/2, 4, 4) array of operators of norm <= 1 (to 1e-10)

    Returns
    -------
    (K, 2^m, 2^m) read-only stack of validated POVM elements, each bit for
    bit the matrix `assemble_two_local` gives for its row
    """
    f = np.asarray(factors, dtype=complex)
    if f.ndim != 5 or f.shape[2] == 0 or f.shape[3:] != (4, 4) or len(pairings) != len(f):
        raise ValueError("expected K pairings and a (K, d, m/2, 4, 4) stack, got %d and %r"
                         % (len(pairings), f.shape))
    count, d, half = f.shape[:3]
    if 2 * half > TWO_LOCAL_MAX_QUBITS:
        raise ValueError("2-local assembly capped at m <= %d, got m=%d" % (TWO_LOCAL_MAX_QUBITS, 2 * half))
    if d > TWO_LOCAL_MAX_DEPTH:
        raise ValueError("2-local assembly capped at depth d <= %d, got d=%d" % (TWO_LOCAL_MAX_DEPTH, d))
    _check_contractions(f)
    dim = 1 << (2 * half)
    k = np.repeat(np.eye(dim, dtype=complex)[None], count, axis=0)
    for layer in range(d):
        rows_by_pairing = {}
        for row, sample in enumerate(pairings):
            key = tuple(tuple(int(q) for q in p) for p in sample[layer])
            rows_by_pairing.setdefault(key, []).append(row)
        ops = np.empty_like(k)
        for pairing, rows in rows_by_pairing.items():
            ops[rows] = _layer_operators(f[rows, layer], pairing)
        k = ops @ k
    m = _dagger(k) @ k
    m = (m + _dagger(m)) / 2.0
    w, v = np.linalg.eigh(m)
    if count and (w.min() < -ASSEMBLY_SPECTRUM_TOL or w.max() > 1.0 + ASSEMBLY_SPECTRUM_TOL):
        raise NumericalConsistencyError("assembled spectrum [%g, %g] violates 0 <= M <= I"
                                        % (w.min(), w.max()))
    # within tolerance: snap rounding noise back onto [0, 1] so the result
    # passes the (tighter) POVM spectrum check
    return validate_povm_stack((v * np.clip(w, 0.0, 1.0)[..., None, :]) @ _dagger(v))

