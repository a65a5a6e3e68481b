r"""Epsilon-net constructions for measurement-outcome sets.

Single-qubit elements U = {0 <= X <= I} are covered by a grid over the
ambient Hermitian box V = {X = X^dag, |X|_linf <= sqrt(2)} (4 real
parameters, spacing delta*sqrt(2)), with each grid point rounded into U by
eigenvalue clamping.  A grid point within half a spacing per axis is within
sqrt(3)*delta of X in operator norm, and clamping (the operator-norm
projection onto U) at most doubles that, so every X in U has a net point
within 4*delta: with delta = mu/(4m), tensoring m per-qubit nets and
telescoping gives a mu-net for separable outcomes with at most (9m/mu)^{4m}
points.

General 4x4 contractions {|X| <= 1} are covered the same way from the box
{|X|_linf <= 2} (32 real parameters), rounding by singular-value clamping;
the per-factor radius is 8*delta.  A depth-d 2-local net uses delta =
mu/(8dm): each layer is a tensor of m/2 factors (error 4m*delta per layer),
and M = K^dag K telescopes across 2d layer slots to 8dm*delta = mu, with
cardinality at most (24 d m^{17/16} / mu)^{16md}.

The 32-parameter grid is never materializable (even 2 points per axis is
2^32 elements), so nets are lazily indexed: cardinalities are exact counts
of the index space, and membership queries go through the constructive
snap-to-grid map (O(1), lands on a net member by construction).  No Kraus
net member is ever stored.

The single-qubit net is built on first use and held as one read-only
(P, 2, 2) array of members, made with one clamp, one `np.unique` over
64-bit fingerprints of the rounded entries (checked exactly, with 64-byte
keys on a collision) and one closed-form batched POVM check;
`QubitNet.points` hands out `PovmElement`s on access.  Covering is
batched, one path per family: `SeparableNetSpec.covering_indices` snaps a
(K, m, 2, 2) stack by index arithmetic, `_snap_kraus` snaps a (K, 4, 4)
stack onto the Kraus grid axis `TwoLocalNetSpec` holds, and
`SeparableNetSpec.covering_index` and `TwoLocalNetSpec.covering_map` cover
one outcome through them.
`covering_distances` samples random outcomes in stacks, in the same draw
order as the one-at-a-time samplers, and measures their distance to the
net cover; every number equals the one-at-a-time computation bit for bit.
"""

import collections.abc
import functools
import math
import operator

import numpy as np

from .quantum import (
    TWO_LOCAL_MAX_DEPTH,
    TWO_LOCAL_MAX_QUBITS,
    KrausLayer,
    PovmElement,
    SeparableOutcome,
    TwoLocalOutcome,
    _as_matrix,
    _herm2_spectrum,
    assemble_two_local_stack,
    opnorms,
    tensor_stack,
    validate_povm_stack,
)

MAX_GRID_POINTS = 10 ** 7
QUBIT_BOX = math.sqrt(2.0)  # |X|_linf bound on the Hermitian ambient box
KRAUS_BOX = 2.0             # |X|_linf bound on the 4x4 ambient box


def _axis_values(half_width, spacing, dims=1):
    """Centered grid on [-half_width, half_width]; consecutive values are
    `spacing` apart and every point of the interval is within spacing/2.
    Refused before any array exists if the grid of `dims` such axes would
    exceed MAX_GRID_POINTS, or the spacing underflowed to 0."""
    span = 2.0 * half_width / spacing if spacing > 0.0 else math.inf
    n = int(span) + 1 if span < math.inf else math.inf
    if n ** dims > MAX_GRID_POINTS:
        raise ValueError("%d-d grid of %.4g points per axis exceeds the 10^7 cap; increase mu"
                         % (dims, n))
    start = -half_width + (2.0 * half_width - (n - 1) * spacing) / 2.0
    return start + spacing * np.arange(n)


def _snap(values, x):
    """Indices of the nearest grid values (values ascending, uniformly
    spaced) for an array x of finite reals."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("cannot snap non-finite parameters to the grid")
    if values.size == 1:
        return np.zeros(x.shape, dtype=np.int64)
    i = np.clip(np.round((x - values[0]) / (values[1] - values[0])), 0, values.size - 1)
    return i.astype(np.int64)


def _clamp01_herm2_batch(a, d, b):
    """Eigenvalue clamp of Hermitian 2x2 [[a, b], [conj(b), d]] into [0, I],
    vectorized over flat parameter arrays.  Returns (N, 2, 2) complex."""
    mean, half, rad = _herm2_spectrum(a, d, b)
    hi = np.clip(mean + rad, 0.0, 1.0)
    lo = np.clip(mean - rad, 0.0, 1.0)
    out = np.zeros(a.shape + (2, 2), dtype=complex)
    safe = rad > 1e-15
    # X = hi*P+ + lo*P-, with P+/- = (X - lam_-/+ I) / (lam_+ - lam_-)
    coef = np.where(safe, (hi - lo) / np.where(safe, 2.0 * rad, 1.0), 0.0)
    base = (hi + lo) / 2.0
    out[..., 0, 0] = base + coef * half
    out[..., 1, 1] = base - coef * half
    out[..., 0, 1] = coef * b
    out[..., 1, 0] = coef * np.conj(b)
    return out


class _Members(collections.abc.Sequence):
    """Read-only sequence over a validated (P, 2, 2) member array; each item
    is a PovmElement made on access, without repeating the check."""

    def __init__(self, stack):
        self._stack = stack

    def __len__(self):
        return len(self._stack)

    def __getitem__(self, i):
        return PovmElement.from_validated(self._stack[operator.index(i)])


class QubitNet:
    """Grid-plus-clamp net over single-qubit POVM elements.

    members is the read-only (P, 2, 2) array of deduplicated net members
    (all in U), and points the same members as PovmElements; grid_params and
    point_index record the construction trace (which grid point rounded to
    which member).  Covering radius in operator norm: 4*delta.
    """

    def __init__(self, delta, members, grid_params, point_index, axis):
        self.delta = delta
        self.members = members
        self.points = _Members(members)
        self.grid_params = grid_params
        self.point_index = point_index
        self.axis = axis

    def __len__(self):
        return len(self.members)

    def snap_indices(self, xs):
        """Member indices for a (..., 2, 2) stack: snap each matrix's four
        real parameters to the grid and clamp.  Each member is within
        4*delta of its matrix whenever that matrix is in U."""
        x = np.asarray(xs, dtype=complex)
        if x.ndim < 2 or x.shape[-2:] != (2, 2):
            raise ValueError("expected a stack of 2x2 matrices, got shape %r" % (x.shape,))
        n = self.axis.size
        flat = np.zeros(x.shape[:-2], dtype=np.int64)
        # mixed-radix grid index, in the (a, d, Re b, Im b) order of the build
        for param in (x[..., 0, 0].real, x[..., 1, 1].real, x[..., 0, 1].real, x[..., 0, 1].imag):
            flat = flat * n + _snap(self.axis, param)
        return self.point_index[flat]

    def __repr__(self):
        return "QubitNet(delta=%g, points=%d)" % (self.delta, len(self))


def _qubit_axis(delta):
    """Grid axis of the delta-resolution qubit net, after the argument and
    4-d grid size checks; cheap, so they run before any grid exists."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta=%r outside (0, 1]" % (delta,))
    return _axis_values(QUBIT_BOX, delta * math.sqrt(2.0), dims=4)


# one salt per word position, so equal words in different places mix apart
_ROW_SALTS = np.uint64(0x9E3779B97F4A7C15) * np.arange(1, 9, dtype=np.uint64)


def _fingerprints(words):
    """One 64-bit fingerprint per row of an (N, 8) uint64 array: the
    wrapping sum of its salted words, each put through splitmix64's mixer,
    a column at a time so no temporary outgrows one column."""
    out = np.zeros(len(words), dtype=np.uint64)
    for column, salt in zip(words.T, _ROW_SALTS):
        h = column + salt
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        out += h ^ (h >> np.uint64(31))
    return out


def _group_rows(words):
    """(first, inverse) of `np.unique` over the rows of an (N, 8) uint64 array
    as 64-byte keys: by fingerprint, or by key if a group's rows differ."""
    _, first, inverse = np.unique(_fingerprints(words), return_index=True,
                                  return_inverse=True)
    rep = first[inverse]
    if not all(np.array_equal(column[rep], column) for column in words.T):
        keys = np.ascontiguousarray(words).view(np.dtype((np.void, 64))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def build_qubit_net(delta):
    """Construct the delta-resolution single-qubit net.

    Every grid point is clamped into U; grid points whose clamped entries
    agree to 12 decimals (as bytes, so -0.0 and 0.0 differ) share one
    member, numbered by first occurrence in grid order, and all members
    pass one batched POVM check.

    Parameters
    ----------
    delta : float in (0, 1]

    Returns
    -------
    QubitNet with at most (2/delta + 1)^4 members, each a valid POVM
    element; rejected if the raw grid would exceed 10^7 points.
    """
    axis = _qubit_axis(delta)
    aa, dd, rb, ib = [g.ravel() for g in np.meshgrid(axis, axis, axis, axis, indexing="ij")]
    clamped = _clamp01_herm2_batch(aa, dd, rb + 1j * ib)
    first, inverse = _group_rows(np.round(clamped, 12).view(np.uint64).reshape(len(clamped), 8))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    members = validate_povm_stack(clamped[first[order]])
    grid_params = np.column_stack([aa, dd, rb, ib])
    return QubitNet(delta, members, grid_params, rank[inverse], axis)


class SeparableNetSpec:
    """Lazy mu-net over m-qubit separable outcomes: the m-fold product of a
    per-qubit net at delta = mu/(4m), built on first use."""

    def __init__(self, m, mu):
        self.m = m
        self.mu = mu
        self.delta = mu / (4.0 * m)
        _qubit_axis(self.delta)

    @functools.cached_property
    def qubit_net(self):
        return build_qubit_net(self.delta)

    @property
    def size(self):
        return len(self.qubit_net) ** self.m

    @property
    def log2_size(self):
        return self.m * math.log2(len(self.qubit_net))

    def factors_at(self, index):
        """Mixed-radix decode of a net index into per-qubit members."""
        if not (0 <= index < self.size):
            raise ValueError("index %d outside [0, %d)" % (index, self.size))
        base = len(self.qubit_net)
        out = []
        for _ in range(self.m):
            out.append(self.qubit_net.points[index % base])
            index //= base
        return out

    def point(self, index):
        return SeparableOutcome(self.factors_at(index)).assemble()

    def _snap_factors(self, factors):
        f = np.asarray(factors, dtype=complex)
        if f.ndim != 4 or f.shape[1:] != (self.m, 2, 2):
            raise ValueError("expected a (K, %d, 2, 2) stack, got shape %r" % (self.m, f.shape))
        return self.qubit_net.snap_indices(f)

    def covering_indices(self, factors):
        """Net indices for a (K, m, 2, 2) stack of single-qubit factors, one
        per row: each factor snaps to its nearest-by-construction member,
        and the telescoping bound keeps each row's assembled operator
        distance at or below mu."""
        digits = self._snap_factors(factors)
        base = len(self.qubit_net)
        dtype = np.int64 if self.size <= np.iinfo(np.int64).max else object
        idx = np.zeros(len(digits), dtype=dtype)
        for j in reversed(range(self.m)):
            idx = idx * base + digits[:, j].astype(dtype)
        return idx

    def covering_index(self, factors):
        """`covering_indices` for one list of m single-qubit factors
        (PovmElements or matrices)."""
        if len(factors) != self.m:
            raise ValueError("expected %d factors, got %d" % (self.m, len(factors)))
        mats = np.stack([_as_matrix(f) for f in factors])
        return int(self.covering_indices(mats[None])[0])

    def covering_distances(self, samples, rng):
        """Operator distances between `samples` random separable outcomes
        (factors drawn as by `sample_qubit_element`, sample by sample) and
        their covering net members."""
        out = []
        for count in _chunk_counts(samples, 2 ** self.m):
            factors = sample_qubit_elements(rng, count, self.m)
            near = self.qubit_net.members[self._snap_factors(factors)]
            out.append(opnorms(validate_povm_stack(tensor_stack(factors))
                               - validate_povm_stack(tensor_stack(near))))
        return np.concatenate(out)

    def __repr__(self):
        return "SeparableNetSpec(m=%d, mu=%g)" % (self.m, self.mu)


def separable_net(m, mu):
    """Lazy mu-net for m-qubit separable outcomes (per-qubit delta = mu/(4m)).

    The per-qubit grid size is checked here; the grid itself is built on
    first use.

    Parameters
    ----------
    m : int >= 1
    mu : float in (0, 1]

    Returns
    -------
    SeparableNetSpec; its index-space size never exceeds (9m/mu)^{4m}.
    """
    if m < 1:
        raise ValueError("m=%d must be >= 1" % m)
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu=%r outside (0, 1]" % (mu,))
    return SeparableNetSpec(m, mu)


def svd_clamp(x):
    """Round a 4x4 (or any) matrix, or each matrix of a (..., n, n) stack,
    into {|X| <= 1} by clamping singular values; the operator-norm
    projection, and the identity on contractions (an input with nothing to
    clamp is returned as is)."""
    x = np.asarray(x, dtype=complex)
    stack = x.reshape((-1,) + x.shape[-2:])
    u, s, vh = np.linalg.svd(stack)
    big = s[:, 0] > 1.0
    if not big.any():
        return x
    out = stack.copy()
    out[big] = (u[big] * np.clip(s[big], None, 1.0)[:, None, :]) @ vh[big]
    return out.reshape(x.shape)


def _snap_kraus(axis, xs):
    """Snap all 32 real parameters of each matrix of a (K, 4, 4) stack to the
    Kraus grid on `axis`, then clamp; each result is a net member within
    8*delta of its matrix whenever that matrix is a contraction."""
    x = np.asarray(xs, dtype=complex)
    if x.ndim != 3 or x.shape[1:] != (4, 4):
        raise ValueError("expected a (K, 4, 4) stack, got shape %r" % (x.shape,))
    vals = axis[_snap(axis, np.stack([x.real, x.imag]))]
    return svd_clamp(vals[0] + 1j * vals[1])


def _perfect_matchings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in _perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


class TwoLocalNetSpec:
    """Lazy mu-net over depth-d 2-local outcomes on m qubits.

    Per-layer index space: a perfect matching of the qubits times one Kraus
    net member per pair, on the grid `axis` (axis.size^32 points per
    factor); d layers multiply.  delta = mu/(8dm).
    """

    def __init__(self, m, d, mu):
        self.m = m
        self.d = d
        self.mu = mu
        self.delta = mu / (8.0 * d * m)
        self.axis = _axis_values(KRAUS_BOX, self.delta * math.sqrt(2.0))
        self.pairings = _pairings(m)

    @property
    def log2_size(self):
        per_layer = math.log2(len(self.pairings)) + (self.m / 2) * (32.0 * math.log2(self.axis.size))
        return self.d * per_layer

    def covering_map(self, outcome):
        """Snap every 4x4 factor of a TwoLocalOutcome into the Kraus net,
        keeping the pairings; the result assembles to within mu (operator
        norm) of the input's assembly."""
        if outcome.m != self.m or outcome.d != self.d:
            raise ValueError("outcome shape (m=%d, d=%d) does not match net (m=%d, d=%d)"
                             % (outcome.m, outcome.d, self.m, self.d))
        factors = np.array([layer.factors for layer in outcome.layers])
        snapped = _snap_kraus(self.axis, factors.reshape(-1, 4, 4)).reshape(factors.shape)
        return TwoLocalOutcome([KrausLayer(layer.pairing, s)
                                for layer, s in zip(outcome.layers, snapped)])

    def covering_distances(self, samples, rng):
        """Operator distances between `samples` random outcomes (drawn as by
        `sample_two_local_outcome`, sample by sample) and their covers."""
        out = []
        for count in _chunk_counts(samples, 2 ** self.m):
            choice, factors = _sample_two_local_stack(self.m, self.d, count, rng)
            pairings = [[self.pairings[i] for i in row] for row in choice]
            snapped = _snap_kraus(self.axis, factors.reshape(-1, 4, 4)).reshape(factors.shape)
            out.append(opnorms(assemble_two_local_stack(pairings, factors)
                               - assemble_two_local_stack(pairings, snapped)))
        return np.concatenate(out)

    def __repr__(self):
        return "TwoLocalNetSpec(m=%d, d=%d, mu=%g, log2_size=%g)" % (
            self.m, self.d, self.mu, self.log2_size)


def two_local_net(m, d, mu):
    """Lazy mu-net for depth-d 2-local outcomes (Kraus delta = mu/(8dm)).

    Parameters
    ----------
    m : even int, 2 <= m <= 6 (odd m is excluded, not padded)
    d : int, 1 <= d <= 8 (the caps of 2-local assembly)
    mu : float in (0, 1]

    Returns
    -------
    TwoLocalNetSpec; its index-space log2-size never exceeds
    16 m d log2(24 d m^{17/16} / mu).
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("m=%d must be even and >= 2" % m)
    if d < 1:
        raise ValueError("d=%d must be >= 1" % d)
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu=%r outside (0, 1]" % (mu,))
    if m > TWO_LOCAL_MAX_QUBITS or d > TWO_LOCAL_MAX_DEPTH:
        raise ValueError("2-local nets are capped at m <= %d and d <= %d, got m=%d, d=%d"
                         % (TWO_LOCAL_MAX_QUBITS, TWO_LOCAL_MAX_DEPTH, m, d))
    return TwoLocalNetSpec(m, d, mu)


def cardinality_bounds(m, mu, d=None, envelope=None):
    """log2 of the closed-form net cardinality bounds, plus envelope checks.

    Parameters
    ----------
    m : qubit count
    mu : net radius, must satisfy mu <= 1 (the separable bound's proviso)
    d : optional depth; adds the 2-local bound
    envelope : optional dict with keys gamma, k, theta (and phi for the
        2-local case); adds the seed-length envelopes gamma*k^{2 theta}
        and gamma*k^{2 theta + phi} and whether they dominate the bounds

    Returns
    -------
    dict with separable_log2, optionally two_local_log2, and for each
    envelope the pair (envelope_*_log2, envelope_*_holds)
    """
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu=%r outside (0, 1]" % (mu,))
    if m < 1:
        raise ValueError("m=%d must be >= 1" % m)
    out = {"separable_log2": 4.0 * m * math.log2(9.0 * m / mu)}
    if d is not None:
        if d < 1:
            raise ValueError("d=%d must be >= 1" % d)
        out["two_local_log2"] = 16.0 * m * d * math.log2(24.0 * d * m ** (17.0 / 16.0) / mu)
    if envelope is not None:
        gamma = envelope["gamma"]
        k = envelope["k"]
        theta = envelope["theta"]
        env_sep = gamma * k ** (2.0 * theta)
        out["envelope_separable_log2"] = env_sep
        out["envelope_separable_holds"] = out["separable_log2"] <= env_sep
        if d is not None and "phi" in envelope:
            env_two = gamma * k ** (2.0 * theta + envelope["phi"])
            out["envelope_two_local_log2"] = env_two
            out["envelope_two_local_holds"] = out["two_local_log2"] <= env_two
    return out


# Covering experiments run in chunks of at most this many matrix entries.
CHUNK_ENTRIES = 1 << 18


def _chunk_counts(samples, dim):
    size = max(1, CHUNK_ENTRIES // (dim * dim))
    return [min(size, samples - start) for start in range(0, samples, size)]


def _qubit_elements(g, lam):
    """Q diag(lam) Q^dag with Q from the QR of g, for one matrix or a stack."""
    q, _ = np.linalg.qr(g)
    return (q * lam[..., None, :]) @ np.conj(np.swapaxes(q, -1, -2))


def _contractions(g, sv):
    """U diag(sv) V^dag from the SVD of g, for one matrix or a stack."""
    u, _, vh = np.linalg.svd(g)
    return (u * sv[..., None, :]) @ vh


def sample_qubit_element(rng):
    """A random element of U: Haar-ish eigenbasis, eigenvalues uniform [0,1]."""
    return PovmElement.from_validated(sample_qubit_elements(rng, 1, 1)[0, 0])


def sample_qubit_elements(rng, count, m):
    """count x m random elements of U, drawn in row order exactly as m calls
    of `sample_qubit_element` per row would draw them: per element, one
    (2, 2, 2) `normal` call (real, then imaginary parts) and `random(2)`.

    Returns
    -------
    (count, m, 2, 2) read-only stack of validated POVM elements
    """
    z = np.empty((count * m, 2, 2, 2))
    lam = np.empty((count * m, 2))
    normal, random = rng.normal, rng.random
    for i in range(count * m):
        z[i] = normal(size=(2, 2, 2))
        lam[i] = random(2)
    g = z[:, 0] + 1j * z[:, 1]
    return validate_povm_stack(_qubit_elements(g, lam)).reshape(count, m, 2, 2)


def _pairings(m):
    return [tuple(p) for p in _perfect_matchings(list(range(m)))]


def _sample_two_local_stack(m, d, count, rng):
    """count random outcomes as (pairing choices (count, d), factors
    (count, d, m/2, 4, 4)), drawn as `sample_two_local_outcome` draws them."""
    npairings = len(_pairings(m))
    choice = np.empty((count, d), dtype=np.int64)
    z = np.empty((count, d, m // 2, 2, 4, 4))
    sv = np.empty((count, d, m // 2, 4))
    integers, normal, random = rng.integers, rng.normal, rng.random
    for k in range(count):
        for layer in range(d):
            choice[k, layer] = integers(0, npairings)
            for j in range(m // 2):
                z[k, layer, j] = normal(size=(2, 4, 4))
                sv[k, layer, j] = random(4)
    return choice, _contractions(z[..., 0, :, :] + 1j * z[..., 1, :, :], sv)


def sample_two_local_outcome(m, d, rng):
    """A random TwoLocalOutcome: random pairings and random contractions."""
    pairings = _pairings(m)
    choice, factors = _sample_two_local_stack(m, d, 1, rng)
    return TwoLocalOutcome([KrausLayer(pairings[i], f) for i, f in zip(choice[0], factors[0])])

