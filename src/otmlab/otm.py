r"""Ideal-bit one-time memories built from leaky string OTMs, and the
security accounting that relates the two.

A leaky string OTM stores a pair of ell-bit strings (s, t) and leaks a
measurement outcome Z to the adversary; the models here are stateless
simulations that expose exact posteriors P(s, t | Z=M).  The ideal-bit
wrapper programs two single bits (a0, a1) by rejection-sampling s in
F^{-1}(a0) and t in G^{-1}(a1) for a pair of r-wise independent hashes and
holds (s, t) itself, so the adversary's knowledge of the bit pair
(F(S), G(T)) is governed by hash-averaged exponential sums.

Security is measured per adversary outcome M through a choice bit C and a
smoothing event E produced by the min-entropy splitting machinery: with
the convention that C = c marks the pair whose *first* member (s when
c = 0, t when c = 1) is the hidden, high-entropy string,

    Q_c(M) = E(1_E (-1)^{A_c} | C=c, Z=M),   A_0 = F(S), A_1 = G(T),
    R_c(M) = E(1_E (-1)^{A_0 + A_1} | C=c, Z=M),

and the distance of (A_C, given the revealed bit) from uniform obeys the
exact 2x2 Fourier identity l1 = max(|Q|, |R|) <= |Q| + |R|.

Over the hash family, Q_c is a linear and R_c a bilinear form in r-wise
independent signs: with W_c(s, t) = P(s,t|M) Pr(C=c|s,t) E_c(s,t) and u_c
the sums of W_c over the revealed string,

    Q_c = u_c . s_hidden / Pr(C=c | Z=M),   R_c = sF . W_c . sG / Pr(C=c | Z=M).

`_admitted` splits each advertised outcome (`_split_outcome`: (C, E) as
(n, 1)/(1, n) views) and forms its weights once (`_weights`); `_forms`
states (u_c, W_c) for each c of positive probability.  `_fourier`
evaluates them at one sign pair, `hash_bias_tail` stacks them for its
trials, and the direct scan of `evaluate_security` reads the same weights.
The moment tail bounds from `tails` control both forms; aggregating over
outcomes and adding the smoothing and negligible-outcome losses gives the
closed-form bound

    4*2^{-delta0 k} + 2*2^{-eps0 k} + 2*2^{-(alpha/8) k}
        + 4 (r+1) * 2^{-(alpha/6) k}.

Outcomes below the non-negligibility threshold are not visited: their
mass is reported as unadvertised.  Outcomes failing the alpha*k entropy
hypothesis are flagged and carry no security numbers.
"""

import json
import math

import mpmath
import numpy as np

from .entropy import SLICE_TOL, split_joints
from .hashfam import HashFunction, HashTables, family, sample_hash, seed_bits
from .quantum import (NumericalConsistencyError, PovmElement, _as_matrix, is_delta_non_negligible,
                      opnorms, tensor_stack)
from .tails import BOUND_DPS, CHUNK, _tally, _to_float, crayfish_bound, kite_bound

MAX_REJECTIONS = 10 ** 6
PREIMAGE_SCAN_LIMIT = 1 << 20


class DegenerateHashError(ValueError):
    """Raised when a requested hash value has an empty preimage."""


def _refuse_bad_numbers(integers, **values):
    """Refuse a bool for a number (int() and range checks take True for 1), and
    nan or inf for one of the `integers` (int() fails on them without a name)."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError("%s=%r must be a number, not a bool" % (name, value))
        if name in integers and isinstance(value, float) and not math.isfinite(value):
            raise ValueError("%s=%r must be a finite integer" % (name, value))


class ReductionParams:
    """Scalar parameters of the ideal-bit reduction, validated together.

    Derived quantities are fixed by the primitive inputs: eta0 = alpha/8,
    delta = 2^{-delta0 k}, eps = 2^{-eps0 k}, eta = 2^{-eta0 k}, tau =
    delta, r = 4 ceil((gamma+1) k^{2 theta}) (exponent 2 theta + phi in
    depth mode), mu = 2^{-(alpha/6) k} delta^4 / 4^m and lam =
    2^{-(alpha/6) k} * 2 r.  log2 companions are kept for regimes where
    the plain floats underflow; inputs that put r or lam past the float
    range are refused.

    Parameters
    ----------
    k : security parameter (positive int)
    ell : string length, ell >= k
    theta : device-size exponent, >= 1; k <= m <= k^theta
    delta0, eps0 : positive decay rates for delta and eps
    alpha : entropy rate (may be math.inf for limiting algebra)
    gamma : positive envelope constant
    m : device qubit count, defaults to k
    phi, d : depth-mode exponent and depth (required iff depth_mode)
    depth_mode : selects the deeper-circuit variant of r and the envelope
    """

    def __init__(self, k, ell, theta, delta0, alpha, eps0, gamma,
                 m=None, phi=None, d=None, depth_mode=False):
        _refuse_bad_numbers(("k", "ell", "m", "d"), k=k, ell=ell, theta=theta, delta0=delta0,
                      alpha=alpha, eps0=eps0, gamma=gamma, m=m, phi=phi, d=d)
        if int(k) != k or k < 1:
            raise ValueError("k=%r must be a positive integer" % (k,))
        if int(ell) != ell or ell < k:
            raise ValueError("ell=%r must be an integer >= k=%d" % (ell, k))
        if not (theta >= 1.0):
            raise ValueError("theta=%r must be >= 1" % (theta,))
        if not (alpha > 0):
            raise ValueError("alpha=%r must be positive" % (alpha,))
        for name, val in (("delta0", delta0), ("eps0", eps0), ("gamma", gamma)):
            if not (val > 0):
                raise ValueError("%s=%r must be positive" % (name, val))
        if depth_mode:
            if phi is None or not (phi > 0):
                raise ValueError("depth mode requires phi > 0, got %r" % (phi,))
            if d is None or int(d) != d or d < 1:
                raise ValueError("depth mode requires a positive integer depth d, got %r" % (d,))
        exponent = 2.0 * theta + (phi if depth_mode else 0.0)
        try:
            self.r = 4 * math.ceil((gamma + 1.0) * k ** exponent)
            self.lam_log2 = -(alpha / 6.0) * k + 1.0 + math.log2(self.r)
            self.lam = 2.0 ** self.lam_log2
        except OverflowError:
            raise ValueError("gamma=%r and k^%r put r or lam past the float range"
                             % (gamma, exponent)) from None
        if m is None:
            m = k
        if int(m) != m or not (k <= m <= k ** theta + 1e-9):
            raise ValueError("m=%r must be an integer with k <= m <= k^theta" % (m,))
        self.k = int(k)
        self.ell = int(ell)
        self.m = int(m)
        self.theta = float(theta)
        self.delta0 = float(delta0)
        self.eps0 = float(eps0)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.phi = None if phi is None else float(phi)
        self.d = None if d is None else int(d)
        self.depth_mode = bool(depth_mode)
        self.eta0 = self.alpha / 8.0
        self.delta = 2.0 ** (-self.delta0 * self.k)
        self.eps = 2.0 ** (-self.eps0 * self.k)
        self.eta = 2.0 ** (-self.eta0 * self.k)
        self.tau = self.delta
        self.mu_log2 = -(self.alpha / 6.0) * self.k - 4.0 * self.delta0 * self.k - 2.0 * self.m
        self.mu = 2.0 ** self.mu_log2

    def as_dict(self):
        return {"k": self.k, "ell": self.ell, "m": self.m, "theta": self.theta,
                "delta0": self.delta0, "eps0": self.eps0, "alpha": self.alpha,
                "eta0": self.eta0, "gamma": self.gamma, "phi": self.phi,
                "d": self.d, "depth_mode": self.depth_mode, "r": self.r,
                "delta": self.delta, "eps": self.eps, "eta": self.eta,
                "tau": self.tau, "mu": self.mu, "mu_log2": self.mu_log2,
                "lam": self.lam, "lam_log2": self.lam_log2}

    def __repr__(self):
        return ("ReductionParams(k=%d, ell=%d, m=%d, theta=%g, alpha=%g, r=%d%s)"
                % (self.k, self.ell, self.m, self.theta, self.alpha, self.r,
                   ", depth" if self.depth_mode else ""))


def _log2_add(a, b):
    """log2(2^a + 2^b) without leaving log space."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def theorem_bound(params):
    """The closed-form security bound and its four terms.

    Evaluates 4*2^{-delta0 k} + 2*2^{-eps0 k} + 2*2^{-(alpha/8) k} +
    4 (r+1) 2^{-(alpha/6) k} exactly (values and log2s), along with the
    lambda threshold, the net-cardinality log2 the union bound pays for,
    and whether the gamma k^{2 theta (+ phi)} envelope dominates it.

    Parameters
    ----------
    params : ReductionParams (its depth_mode selects the depth variant)

    Returns
    -------
    dict with terms, terms_log2, total, total_log2, r, lam, net_log2,
    envelope_log2, envelope_holds, depth_mode
    """
    k = params.k
    terms_log2 = {
        "delta_term": 2.0 - params.delta0 * k,
        "eps_term": 1.0 - params.eps0 * k,
        "eta_term": 1.0 - (params.alpha / 8.0) * k,
        "tail_term": 2.0 + math.log2(params.r + 1) - (params.alpha / 6.0) * k,
    }
    terms = {name: 2.0 ** lg for name, lg in terms_log2.items()}
    total = math.fsum(terms.values())
    total_log2 = -math.inf
    for lg in terms_log2.values():
        total_log2 = _log2_add(total_log2, lg)
    if params.depth_mode:
        net_log2 = 16.0 * params.m * params.d * (
            math.log2(24.0 * params.d * params.m ** (17.0 / 16.0)) - params.mu_log2)
        envelope_log2 = params.gamma * k ** (2.0 * params.theta + params.phi)
    else:
        net_log2 = 4.0 * params.m * (math.log2(9.0 * params.m) - params.mu_log2)
        envelope_log2 = params.gamma * k ** (2.0 * params.theta)
    return {
        "terms": terms,
        "terms_log2": terms_log2,
        "total": total,
        "total_log2": total_log2,
        "r": params.r,
        "lam": params.lam,
        "lam_log2": params.lam_log2,
        "net_log2": net_log2,
        "envelope_log2": envelope_log2,
        "envelope_holds": net_log2 <= envelope_log2,
        "depth_mode": params.depth_mode,
    }


def r_tail_bound(r, collision, lam):
    """Hash-averaged tail of the bilinear form: Pr(|R_c(M)| >= lam) <=
    8 e^{1/(3r)} sqrt(pi r) (8 * collision * r^2 / (e^2 lam^2))^{r/4}."""
    if int(r) != r or r < 4 or r % 4 != 0:
        raise ValueError("r=%r must be a positive multiple of 4" % (r,))
    if collision < 0:
        raise ValueError("collision=%r must be nonnegative" % (collision,))
    if lam <= 0:
        raise ValueError("lam=%r must be positive" % (lam,))
    if collision == 0:
        return 0.0
    with mpmath.workdps(BOUND_DPS):
        r_ = mpmath.mpf(r)
        log = (mpmath.log(8) + 1 / (3 * r_) + mpmath.log(mpmath.pi * r_) / 2
               + (r_ / 4) * (mpmath.log(8 * mpmath.mpf(collision)) + 2 * mpmath.log(r_)
                             - 2 - 2 * mpmath.log(mpmath.mpf(lam))))
        return _to_float(mpmath.e ** log)


class ClassicalLeakSim:
    """String OTM that leaks a fixed subset of the interleaved bits.

    The 2*ell physical bit positions alternate [s_0, t_0, s_1, t_1, ...];
    the adversary learns the values at `positions` (by default the first
    floor(beta * 2 ell) of them) and nothing else, so each outcome is one
    of the 2^{|J|} leak values, every outcome has probability 2^{-|J|},
    the posterior is uniform over consistent completions, and
    H_inf(S, T | Z) = 2 ell - |J| exactly (no smoothing needed).
    """

    def __init__(self, ell, beta, positions=None):
        _refuse_bad_numbers(("ell",), ell=ell, beta=beta)
        if int(ell) != ell or not (1 <= ell <= 12):
            raise ValueError("ell=%r outside the desk-scale range 1..12" % (ell,))
        if not (0.0 <= beta <= 1.0):
            raise ValueError("beta=%r outside [0, 1]" % (beta,))
        self.ell = int(ell)
        self.beta = float(beta)
        count = int(math.floor(beta * 2 * ell))
        positions = tuple(range(count) if positions is None else positions)
        if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in positions):
            raise ValueError("leak positions %r must be integers" % (positions,))
        positions = tuple(sorted(int(p) for p in positions))
        if len(set(positions)) != len(positions):
            raise ValueError("leak positions repeat")
        if positions and not (0 <= positions[0] and positions[-1] < 2 * ell):
            raise ValueError("leak positions outside 0..%d" % (2 * ell - 1))
        if len(positions) != count:
            raise ValueError("got %d positions for |J| = floor(beta*2*ell) = %d"
                             % (len(positions), count))
        self.positions = positions

    @property
    def leak_count(self):
        return len(self.positions)

    def outcome_set(self, delta):
        if not (0.0 < delta <= 1.0):
            raise ValueError("delta=%r outside (0, 1]" % (delta,))
        # every leak value has probability exactly 1/#outcomes
        return list(range(1 << self.leak_count))

    def _consistency_masks(self, outcome):
        n = 1 << self.ell
        xs = np.arange(n)
        mask_s = np.ones(n, dtype=bool)
        mask_t = np.ones(n, dtype=bool)
        for i, p in enumerate(self.positions):
            bit = (outcome >> i) & 1
            which = mask_s if p % 2 == 0 else mask_t
            which &= ((xs >> (p // 2)) & 1) == bit
        return mask_s, mask_t

    def conditional_joint(self, outcome):
        if not (0 <= outcome < (1 << self.leak_count)):
            raise ValueError("outcome %r outside the advertised set" % (outcome,))
        mask_s, mask_t = self._consistency_masks(outcome)
        # uniform over the consistent pairs: each of them holds 1 / (their count)
        return np.outer(mask_s, mask_t * (1.0 / (int(mask_s.sum()) * int(mask_t.sum()))))

    def outcome_probability(self, outcome):
        if not (0 <= outcome < (1 << self.leak_count)):
            raise ValueError("outcome %r outside the advertised set" % (outcome,))
        return 2.0 ** (-self.leak_count)

    def certified_entropy(self, outcome):
        return 2.0 * self.ell - self.leak_count

    def __repr__(self):
        return "ClassicalLeakSim(ell=%d, beta=%g, leaked=%d)" % (
            self.ell, self.beta, self.leak_count)


_KET = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
_HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class WiesnerToyOtm:
    """Conjugate-coding string OTM on m qubits (ell = m).

    Qubit i carries bit s_i in the computational basis and bit t_i in the
    Hadamard basis as the even mixture rho_i = (|s_i><s_i| + H|t_i><t_i|H)/2,
    so the average state is maximally mixed.  The advertised POVM is the
    2^m computational-basis projectors; posteriors come from the Born rule
    with the uniform 4^{-ell} prior, and the per-outcome min-entropy is
    computed, not assumed.  The 4^m states are held as one read-only
    (4^m, 2^m, 2^m) stack, row s * 2^m + t holding rho(s, t).
    """

    def __init__(self, m):
        _refuse_bad_numbers(("m",), m=m)
        if int(m) != m or not (1 <= m <= 3):
            raise ValueError("m=%r outside the desk-scale range 1..3" % (m,))
        self.m = int(m)
        self.ell = int(m)
        n = 1 << self.m
        self.povm = [PovmElement(np.diag(np.eye(n)[x])) for x in range(n)]
        # qubit i of rho(s, t) is qubit[s_i, t_i] = (|s_i><s_i| + H|t_i><t_i|H) / 2
        proj = [np.outer(k, k) for k in _KET]
        qubit = np.array([[0.5 * (proj[a] + _HAD @ proj[b] @ _HAD) for b in (0, 1)] for a in (0, 1)])
        s, t = np.divmod(np.arange(n * n), n)
        bit = np.arange(self.m)
        self._stack = tensor_stack(qubit[(s[:, None] >> bit) & 1, (t[:, None] >> bit) & 1])
        self._stack.setflags(write=False)

    def average_state(self):
        dim = 1 << self.m
        return np.eye(dim) / dim

    def born_joint(self, element):
        """Posterior P(s, t | outcome `element`) and the outcome probability.

        Accepts any PovmElement (or matrix) on the m qubits, advertised or
        not; rejects elements of zero total mass.
        """
        mat = _as_matrix(element)
        n = 1 << self.ell
        born = np.trace(mat @ self._stack, axis1=1, axis2=2).real.reshape(n, n)
        table = np.where(born < 0.0, 0.0, born)
        prior = 4.0 ** (-self.ell)
        prob = table.sum() * prior
        if prob <= 0.0:
            raise ValueError("outcome has zero probability on the average state")
        return table / table.sum(), prob

    def outcome_set(self, delta):
        avg = self.average_state()
        return [i for i, p in enumerate(self.povm)
                if is_delta_non_negligible(p, avg, delta)]

    def conditional_joint(self, outcome):
        return self.born_joint(self.povm[outcome])[0]

    def outcome_probability(self, outcome):
        return self.born_joint(self.povm[outcome])[1]

    def certified_entropy(self, outcome):
        return -math.log2(self.conditional_joint(outcome).max())

    def __repr__(self):
        return "WiesnerToyOtm(m=%d, outcomes=%d)" % (self.m, len(self.povm))


class IdealBitOtm:
    """A two-bit ideal OTM built over a leaky string OTM.

    F and G are hash functions over the inner model's string length; the
    bits are stored as a0 = F(s), a1 = G(t) for rejection-sampled strings.
    """

    def __init__(self, F, G, inner):
        if len(_hashes_on(inner.ell, F, G)) != 2:
            raise ValueError("F and G must be HashFunctions")
        self.F = F
        self.G = G
        self.inner = inner
        self.programmed = None
        self.s = None
        self.t = None
        self.rejections = None

    def read_bit(self, which):
        """Honest read: recover a0 (which=0) or a1 (which=1) exactly."""
        if self.programmed is None:
            raise ValueError("device is not programmed")
        if which not in (0, 1):
            raise ValueError("which=%r must be 0 (read s) or 1 (read t)" % (which,))
        return self.F(self.s) if which == 0 else self.G(self.t)

    def __repr__(self):
        return "IdealBitOtm(ell=%d, programmed=%r)" % (self.inner.ell, self.programmed)


def _has_preimage(h, bit):
    n = 1 << h.field.ell
    if n > PREIMAGE_SCAN_LIMIT:
        return True  # too large to scan; the rejection cap handles it
    return any(h(x) == bit for x in range(n))


def program_ideal(otm, a0, a1, rng):
    """Program (a0, a1) into the ideal-bit OTM by rejection sampling.

    Draws s uniformly until F(s) = a0, then t until G(t) = a1, stores both
    strings on `otm`, and records the total number of rejected draws.

    Parameters
    ----------
    otm : IdealBitOtm
    a0, a1 : bits
    rng : numpy.random.Generator supplying the draw stream

    Returns
    -------
    the same IdealBitOtm, programmed

    Raises
    ------
    DegenerateHashError if a requested preimage is empty (detected by a
    full scan at desk scale, or by exceeding 10^6 rejections).
    """
    if a0 not in (0, 1) or a1 not in (0, 1):
        raise ValueError("programmed values must be bits, got (%r, %r)" % (a0, a1))
    n = 1 << otm.inner.ell
    strings = []
    rejections = 0
    for h, bit, name in ((otm.F, a0, "F"), (otm.G, a1, "G")):
        if not _has_preimage(h, bit):
            raise DegenerateHashError("degenerate-hash: %s never takes the value %d" % (name, bit))
        while True:
            x = int(rng.integers(0, n))
            if h(x) == bit:
                strings.append(x)
                break
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise DegenerateHashError("degenerate-hash: %s rejected %d draws for value %d"
                                          % (name, rejections, bit))
    otm.s, otm.t = strings
    otm.programmed = (int(a0), int(a1))
    otm.rejections = rejections
    return otm


def _hashes_on(ell, *candidates):
    """The HashFunctions among `candidates`, each refused unless it is on ell bits."""
    hashes = [h for h in candidates if isinstance(h, HashFunction)]
    for h in hashes:
        if h.ell != ell:
            raise ValueError("hash domain 2^%d does not match model ell=%d" % (h.ell, ell))
    return hashes


def _signs(F, G, ell):
    """(-1)^{h(x)} for x = 0..2^ell-1 and h = F, G, each a HashFunction on ell
    bits or a +-1 table of length 2^ell.  The hashes share one `HashTables`
    build at the larger r; zero coefficients pad the shorter polynomial."""
    n = 1 << ell
    hashes = _hashes_on(ell, F, G)
    if hashes:
        r = max(h.r for h in hashes)
        bits = iter(HashTables(ell, r, np.arange(n)).hash_bits(
            seed_bits([h.coefficients + (0,) * (r - h.r) for h in hashes], ell)))
    signs = [1.0 - 2.0 * next(bits) if isinstance(h, HashFunction) else np.asarray(h, dtype=float)
             for h in (F, G)]
    for arr in signs:
        if arr.shape != (n,):
            raise ValueError("expected %d sign entries, got shape %r" % (n, arr.shape))
        if not np.all(np.abs(arr) == 1.0):
            raise ValueError("sign table entries must be +-1")
    return signs


def _weights(P, C, E):
    """Pr(C=c | Z=M) for c = 0, 1, and the two tables P * Pr(C=c | s, t) * E[c];
    each P * Pr(C=c | s, t) is formed once, then weighted in place."""
    tables = [P * (1.0 - C), P * C]
    return ([float(w.sum()) for w in tables],
            [np.multiply(w, e, out=w) for w, e in zip(tables, E)])


def _forms(pc, weights):
    """(c, u, W) for each c with Pr(C=c | Z=M) = pc[c] > 0, from `_weights`: W
    is the weight table and u its sums over the revealed string (t for c=0,
    s for c=1), so Q_c = u . s_hidden / pc[c] and R_c = sF . W . sG / pc[c]."""
    for c in (0, 1):
        if pc[c] > 0.0:
            yield c, weights[c].sum(axis=1 - c), weights[c]


def _fourier(pc, weights, sF, sG):
    """Q_c and R_c (each a length-2 list indexed by c): the `_forms` at the +-1
    signs of F and G, exactly 0.0 for a c of zero probability.  R_c is two
    matrix-vector products, so no (n, n) temporary is made."""
    q_out = [0.0, 0.0]
    r_out = [0.0, 0.0]
    for c, u, W in _forms(pc, weights):
        q_out[c] = float(u @ (sG if c else sF)) / pc[c]
        r_out[c] = float(sF @ (W @ sG)) / pc[c]
    return q_out, r_out


def hummingbird_distance(P):
    """Exact distance-from-uniform data of a smoothed 2x2 bit-pair table.

    P[a, b] >= 0 with total at most 1, rows indexed by the hidden bit.
    Returns the Fourier coefficients Q = sum (-1)^a P[a,b] and R =
    sum (-1)^{a+b} P[a,b] and the exact l1 distance between P and
    (uniform hidden bit) x (marginal of the other), which equals
    (|Q+R| + |Q-R|)/2 = max(|Q|, |R|) and is never above |Q| + |R|.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (2, 2):
        raise ValueError("expected a 2x2 table, got shape %r" % (P.shape,))
    if (P < -1e-12).any() or P.sum() > 1.0 + 1e-9:
        raise ValueError("entries must be nonnegative with total at most 1")
    q = float(P[0, 0] + P[0, 1] - P[1, 0] - P[1, 1])
    r = float(P[0, 0] - P[0, 1] - P[1, 0] + P[1, 1])
    l1 = float(np.abs(P[0] - P[1]).sum())
    if not (abs(l1 - max(abs(q), abs(r))) < 1e-12 and l1 <= abs(q) + abs(r) + 1e-12):
        raise NumericalConsistencyError("2x2 distance %r breaks the Fourier identity (Q=%r, R=%r)"
                                        % (l1, q, r))
    return {"l1": l1, "Q": q, "R": r}


def _split_outcome(P, alpha_k, eta):
    """Run the min-entropy split on one outcome's posterior.

    Refuses a posterior that is not finite and nonnegative with total 1
    (within entropy.SLICE_TOL).  Returns the C table in the hidden-string
    convention (Pr(C=1 | s, t), C = c hides s for c=0 / t for c=1), the
    event weights E, the kept event probability and the log2 of the
    certified collision level.  C is measurable in s (in t after the x1
    fallback) and E_c weighs only the hidden string, so C and E hold views
    of shape (n, 1) or (1, n) that broadcast against the posterior.
    """
    P = np.asarray(P, dtype=float)
    if not np.isfinite(P).all() or (P < 0).any() or abs(P.sum() - 1.0) > SLICE_TOL:
        raise ValueError("posterior must be finite and nonnegative with total 1")
    n = P.shape[0]
    split = split_joints(P[None, None], np.ones((1, 1)), alpha_k, 0.0, eta)
    ev = split["event"][0]                  # rows: C_split=0, C_split=1
    C = split["C"][0, 0]                    # per s, or per t after an x1 fallback
    C = C[:1] if split["rule"][0] == "exhaustive-x1" else C[:, :1]
    return {
        "C": 1.0 - C,                       # C_split=0 iff s heavy, so C = 1 - C_split
        "E": (ev[1, :n][:, None], ev[0, n:][None, :]),  # hidden s, hidden t weights
        "event_probability": float(split["event_probability"][0]),
        "collision_log2": -float(split["value"][0]),
    }


def _check_delta(delta):
    """Refuse a delta that leaves the advertisement level 2*delta outside (0, 1]."""
    if not (0.0 < 2.0 * delta <= 1.0):
        raise ValueError("delta=%r leaves 2*delta outside (0, 1]" % (delta,))


def _admitted(model, delta, level, eta):
    """(token, certified entropy, split, pc, weights) for each outcome `model`
    advertises at 2*delta (_check_delta first): the `_split_outcome` of the
    posterior P(s, t | Z=token) and its `_weights`, from which `_forms` reads
    Q_c and R_c; all three are None for an entropy below level - 1e-9.  A
    model is stateless and has `ell`, `outcome_set(delta)` and, per token,
    `conditional_joint` (a (2^ell, 2^ell) array), `outcome_probability` and
    `certified_entropy` (a proven lower bound on H_inf(S, T | Z=token))."""
    _check_delta(delta)
    for token in model.outcome_set(2.0 * delta):
        entropy = model.certified_entropy(token)
        if entropy < level - 1e-9:
            yield token, entropy, None, None, None
        else:
            P = model.conditional_joint(token)
            split = _split_outcome(P, level, eta)
            yield (token, entropy, split) + _weights(P, split["C"], split["E"])


class SecurityReport:
    """Per-outcome and aggregated security numbers for one evaluated OTM."""

    def __init__(self, delta, hypothesis_level, rows, aggregated_l1, direct_l1,
                 bound, certified_mass, unadvertised_mass, violations, params):
        self.delta = delta
        self.hypothesis_level = hypothesis_level
        self.rows = rows
        self.aggregated_l1 = aggregated_l1
        self.direct_l1 = direct_l1
        self.bound = bound
        self.certified_mass = certified_mass
        self.unadvertised_mass = unadvertised_mass
        self.violations = violations
        self.params = params

    def to_json(self):
        doc = {
            "delta": self.delta,
            "hypothesis_level": self.hypothesis_level,
            "aggregated_l1": self.aggregated_l1,
            "direct_l1": self.direct_l1,
            "bound": self.bound,
            "certified_mass": self.certified_mass,
            "unadvertised_mass": self.unadvertised_mass,
            "negligible_convention": "C=0",
            "hypothesis_violations": self.violations,
            "params": self.params,
            "outcomes": self.rows,
        }
        return json.dumps(doc, indent=2, default=float)


def evaluate_security(otm, delta, params):
    """Evaluate the ideal-bit security of a programmed or blank OTM.

    For every advertised 2*delta-non-negligible outcome M that meets the
    alpha*k entropy hypothesis: split off (C, E), compute Q_c(M), R_c(M),
    and the per-c 2x2 distance; aggregate the l1 numbers two independent
    ways (per-outcome Fourier identities, and a direct scan of the full
    (A_C, A_{1-C}, C, Z) table).  Outcomes failing the hypothesis are
    flagged and excluded from the aggregation, which then conditions on
    the certified set.

    Parameters
    ----------
    otm : IdealBitOtm
    delta : the non-negligibility parameter (outcomes advertised at 2*delta)
    params : ReductionParams (supplies alpha, k, eta and the bound terms)

    Returns
    -------
    SecurityReport
    """
    model = otm.inner
    level = params.alpha * params.k
    sF, sG = _signs(otm.F, otm.G, model.ell)
    bitsF = ((1.0 - sF) / 2.0).astype(np.uint8)[:, None]
    bitsG = ((1.0 - sG) / 2.0).astype(np.uint8)[None, :]
    # per c, the flat row-major cells of each code 2 * (hidden bit) + (other bit)
    cells = [[np.flatnonzero(code == k) for k in range(4)]
             for code in (2 * bitsF + bitsG, 2 * bitsG + bitsF)]

    rows = []
    violations = []
    certified_mass = 0.0
    advertised_mass = 0.0
    weighted_l1 = []      # per-outcome aggregation path
    direct_abs = []       # independent direct-scan path
    for token, entropy, split, pc, weights in _admitted(model, delta, level, params.eta):
        prob = model.outcome_probability(token)
        advertised_mass += prob
        if split is None:
            violations.append({"outcome": repr(token), "entropy": entropy})
            rows.append({"outcome": repr(token), "probability": prob,
                         "entropy": entropy, "pr_c": [None, None],
                         "Q": [None, None], "R": [None, None],
                         "l1": [None, None], "l1_weighted": None,
                         "smoothing_deficit": None,
                         "flags": ["hypothesis-violation"]})
            continue
        certified_mass += prob
        # path one: the Fourier identity on the forms (0.0 for a bad c)
        Q, R = _fourier(pc, weights, sF, sG)
        l1 = [0.5 * (abs(q + r) + abs(q - r)) for q, r in zip(Q, R)]
        flags = ["bad-c%d" % c for c in (0, 1) if pc[c] <= 0.0]
        for c, _, W in _forms(pc, weights):
            # path two: the 2x2 bit table, one gathered sum of the weights per code
            table = np.array([W.take(idx).sum() for idx in cells[c]]).reshape(2, 2)
            table /= pc[c]
            hb = hummingbird_distance(table)
            if abs(hb["Q"] - Q[c]) > 1e-9 or abs(hb["R"] - R[c]) > 1e-9:
                raise NumericalConsistencyError("Fourier coefficients disagree with direct sums")
            direct_abs.append(prob * hb["l1"] * pc[c])
        l1_weighted = sum(pc[c] * l1[c] for c in (0, 1))
        weighted_l1.append((prob, l1_weighted))
        rows.append({"outcome": repr(token), "probability": prob,
                     "entropy": entropy, "pr_c": pc,
                     "Q": Q, "R": R, "l1": l1,
                     "l1_weighted": l1_weighted,
                     "smoothing_deficit": 1.0 - split["event_probability"],
                     "flags": flags})
    if certified_mass <= 0.0:
        raise ValueError("no advertised outcome satisfies the entropy hypothesis")
    aggregated = math.fsum(p * v for p, v in weighted_l1) / certified_mass
    direct = math.fsum(direct_abs) / certified_mass
    return SecurityReport(
        delta=delta,
        hypothesis_level=level,
        rows=rows,
        aggregated_l1=aggregated,
        direct_l1=direct,
        bound=theorem_bound(params),
        certified_mass=certified_mass,
        unadvertised_mass=max(0.0, 1.0 - advertised_mass),
        violations=violations,
        params=params.as_dict(),
    )


def hash_bias_tail(model, delta, r, trials, rng, alpha_k, eta, lambda_grid=None):
    """Monte Carlo tail of max over outcomes of |Q_c|, |R_c| versus bounds.

    Fixes the model's per-outcome splits (C, E) and stacks their `_forms`,
    then samples `trials` independent hash pairs (F, G) of independence r
    and records the maximum over certified (outcome, c) instances of
    |Q_c(M)| and |R_c(M)|.  Reports, per lambda: the empirical exceedance
    fraction and its 99% upper confidence limit (`tails._tally`, the tally
    of the tails Monte Carlo), the sharp union bound summing the
    per-instance moment bounds at the true square-sums and matrix norms,
    and the uniform-collision union bound that replaces every instance by
    its certified 2^{-value} collision level.

    Parameters
    ----------
    model : ClassicalLeakSim or WiesnerToyOtm (the protocol `_admitted` states)
    delta : outcomes are advertised at 2*delta, refused outside (0, 1]
    r : hash family independence (multiple of 4, at most 2^ell)
    trials : number of (F, G) samples, >= 10^3 for reportable statistics
    rng : numpy.random.Generator
    alpha_k : entropy hypothesis level alpha*k
    eta : split smoothing budget
    lambda_grid : optional positive thresholds (default geometric 1/16 .. 2),
        refused before any draw when not a nonempty finite 1-d grid

    Returns
    -------
    dict with the lambdas array and, as lists over lambda, the exceedance
    fractions and UCLs for Q, R and their max, union_bound_sharp and
    union_bound_theorem; also instances, trials, r and collision_log2
    """
    n = family(model.ell, r).order
    if int(r) != r or r < 4 or r % 4 != 0:
        raise ValueError("r=%r must be a multiple of 4 (the bilinear bound splits it)" % (r,))
    if trials < 10 ** 3:
        raise ValueError("trials=%d below the reportable minimum 10^3" % (trials,))
    if lambda_grid is None:
        lambda_grid = np.geomspace(1.0 / 16.0, 2.0, 6)
    lambdas = np.asarray(lambda_grid, dtype=float)
    if lambdas.ndim != 1 or not lambdas.size or not (np.isfinite(lambdas) & (lambdas > 0)).all():
        raise ValueError("lambda grid must be a nonempty 1-d array, finite and positive")

    q_instances = []   # (u / Pr(C=c), which hash) for linear forms
    r_instances = []   # W / Pr(C=c) for bilinear forms
    collision_log2s = []
    for _, _, split, pc, weights in _admitted(model, delta, alpha_k, eta):
        if split is not None:
            collision_log2s.append(split["collision_log2"])
            for c, u, W in _forms(pc, weights):
                q_instances.append((u / pc[c], c))
                r_instances.append(W / pc[c])
    if not q_instances:
        raise ValueError("no certified outcome instances to sample")

    V_stack = np.stack(r_instances)
    del r_instances  # only the stack is kept through the trials
    v_linear = [float((u ** 2).sum()) for u, _ in q_instances]
    frob_half = [math.sqrt(float((V ** 2).sum()) / 2.0) for V in V_stack]
    op_half = [float(op) / 2.0 for op in opnorms(V_stack)]

    tables = HashTables(model.ell, r, np.arange(n))
    max_q = np.empty(trials)
    max_r = np.empty(trials)
    for lo in range(0, trials, CHUNK):
        # draw order per trial stays F then G; each chunk is evaluated at
        # once, and its bits become signs one trial at a time
        pairs = [(sample_hash(model.ell, r, rng).coefficients,
                  sample_hash(model.ell, r, rng).coefficients)
                 for _ in range(min(CHUNK, trials - lo))]
        bits_F = tables.hash_bits(seed_bits([f for f, _ in pairs], model.ell))
        bits_G = tables.hash_bits(seed_bits([g for _, g in pairs], model.ell))
        for i, bF, bG in zip(range(lo, trials), bits_F, bits_G):
            sF = 1.0 - 2.0 * bF
            sG = 1.0 - 2.0 * bG
            best = 0.0
            for (u, c) in q_instances:
                val = abs(float(u @ (sF if c == 0 else sG)))
                if val > best:
                    best = val
            max_q[i] = best
            max_r[i] = np.abs(np.einsum("s,kst,t->k", sF, V_stack, sG)).max()
    tally = [_tally([series], lambdas, trials)
             for series in (max_q, max_r, np.maximum(max_q, max_r))]
    coll = 2.0 ** max(collision_log2s)
    out = {"lambdas": lambdas, "trials": trials, "r": r,
           "instances": len(V_stack),
           "collision_log2": max(collision_log2s)}
    for field, key in (("exceed", "freqs"), ("ucl", "upper_cl_99")):
        for suffix, counted in zip(("_q", "_r", ""), tally):
            out[field + suffix] = counted[key].tolist()
    out["union_bound_sharp"] = [min(1.0, math.fsum(kite_bound(r, v, lam) for v in v_linear)
                                     + math.fsum(crayfish_bound(r // 2, f, o, lam)
                                                 for f, o in zip(frob_half, op_half)))
                                for lam in lambdas]
    out["union_bound_theorem"] = [min(1.0, len(q_instances) * kite_bound(r, coll, lam)
                                      + len(V_stack) * r_tail_bound(r, coll, lam))
                                  for lam in lambdas]
    return out


def continuity_check(model, F, G, M, M_tilde, mu, tau, delta, alpha_k, eta):
    """Verify the perturbation lemmas on a concrete outcome pair.

    Hypotheses checked (and reported, never silently assumed): ||M|| = 1,
    ||M - M_tilde|| <= mu, M is 2*delta-non-negligible, 0 < delta <= 1/2,
    Tr(M) >= 1, and mu <= (2/3) delta 2^{-m}.  If all hold, the report
    carries: the non-negligibility of M_tilde at level delta; the split
    (C, E) computed on M_tilde's posterior and transferred to M (same C;
    E zeroed on every c with Pr(C=c | Z=M) < tau); Q_c/R_c for both
    outcomes; and the conclusions Pr(E | Z=M) >= Pr(E~ | Z=M~) - tau and,
    per c, either Q_c(M) = 0 exactly (bad c) or |Q_c(M) - Q_c(M~)| <=
    2 mu (2^m / (tau delta))^2 (and the same for R).

    Parameters
    ----------
    model : a quantum model exposing born_joint and average_state
    F, G : HashFunctions on the model's ell bits (or sign tables of length
        2^ell); a hash on another domain is refused
    M, M_tilde : PovmElements (or matrices) on the model's qubits
    mu, tau, delta : perturbation radius, bad-c threshold, negligibility
    alpha_k, eta : split level and smoothing budget

    Returns
    -------
    dict with hypothesis fields, hypothesis_ok, and (when ok) lemma5 and
    lemma6 conclusion fields
    """
    m = model.m
    sF, sG = _signs(F, G, model.ell)
    mat = _as_matrix(M)
    mat_t = _as_matrix(M_tilde)
    avg = model.average_state()
    norm_m = float(opnorms(mat))
    dist = float(opnorms(mat - mat_t))
    hyp = {
        "norm": norm_m,
        "norm_one": abs(norm_m - 1.0) <= 1e-9,
        "distance": dist,
        "distance_ok": dist <= mu + 1e-12,
        "delta_range_ok": 0.0 < delta <= 0.5,
        "trace_ok": float(np.trace(mat).real) >= 1.0 - 1e-12,
        "M_2delta_non_negligible": (0.0 < 2.0 * delta <= 1.0
                                    and is_delta_non_negligible(mat, avg, 2.0 * delta)),
        "mu_small_enough": mu <= (2.0 / 3.0) * delta * 2.0 ** (-m) + 1e-15,
    }
    report = {"hypotheses": hyp,
              "hypothesis_ok": all(v for k, v in hyp.items()
                                   if k not in ("norm", "distance"))}
    if not report["hypothesis_ok"]:
        return report

    report["m_tilde_delta_non_negligible"] = is_delta_non_negligible(mat_t, avg, delta)

    P_t, prob_t = model.born_joint(mat_t)
    art = _split_outcome(P_t, alpha_k, eta)
    pc_t, weights_t = _weights(P_t, art["C"], art["E"])
    q_t, r_t = _fourier(pc_t, weights_t, sF, sG)

    P_m, prob_m = model.born_joint(mat)
    pc_m, weights_m = _weights(P_m, art["C"], art["E"])
    bad = [pc_m[c] < tau for c in (0, 1)]
    # M keeps M_tilde's split, with E zeroed on every bad c: a zero Pr(C=c)
    # drops that c's forms, so its Q and R are exactly 0.0
    q_m, r_m = _fourier([0.0 if b else p for p, b in zip(pc_m, bad)], weights_m, sF, sG)

    pr_e_t = float(sum(w.sum() for w in weights_t))
    pr_e_m = float(sum(w.sum() for w, b in zip(weights_m, bad) if not b))
    qr_bound = 2.0 * mu * (2.0 ** m / (tau * delta)) ** 2
    per_c = []
    for c in (0, 1):
        entry = {"bad": bad[c], "pr_c_M": pc_m[c], "pr_c_M_tilde": pc_t[c]}
        if bad[c]:
            entry["Q_M"] = q_m[c]
            entry["R_M"] = r_m[c]
            entry["ok"] = q_m[c] == 0.0 and r_m[c] == 0.0
        else:
            entry["Q_delta"] = abs(q_m[c] - q_t[c])
            entry["R_delta"] = abs(r_m[c] - r_t[c])
            entry["bound"] = qr_bound
            entry["ok"] = entry["Q_delta"] <= qr_bound and entry["R_delta"] <= qr_bound
        per_c.append(entry)
    report.update({
        "Q_M": q_m, "R_M": r_m,
        "Q_M_tilde": q_t, "R_M_tilde": r_t,
        "pr_E_M": pr_e_m, "pr_E_M_tilde": pr_e_t,
        "event_lower_bound_ok": pr_e_m >= pr_e_t - tau - 1e-12,
        "bad_c_count": sum(bad),
        "qr_bound": qr_bound,
        "per_c": per_c,
        "outcome_probabilities": {"M": prob_m, "M_tilde": prob_t},
    })
    return report
