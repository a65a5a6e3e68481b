r"""Concentration bounds for hash-derived sums, and Monte Carlo harnesses.

Closed forms
------------
For t-wise independent random signs (-1)^{H(x)} and real weights a_x with
v = sum a_x^2, the linear sum Y = sum_x a_x (-1)^{H(x)} satisfies, for even
t >= 2,

    Pr(|Y| >= lam) <= 2 e^{1/(6t)} sqrt(pi t) (v t / (e lam^2))^{t/2}.

For a symmetric real matrix A and a 2t-wise independent family, the
quadratic chaos S = sum_{x,y} A_{xy} ((-1)^{H(x)} (-1)^{H(y)} - delta_{xy})
satisfies

    Pr(|S| >= lam) <= 4 e^{1/(6t)} sqrt(pi t) (4 |A|_F^2 t / (e lam^2))^{t/2}
                      + 4 e^{1/(12t)} sqrt(2 pi t) (8 |A| t / (e lam))^t,

where both norms are of the entrywise absolute matrix.  Both are
evaluated in extended precision (mpmath, 50 significant digits) before
conversion to float, because the power terms under/overflow doubles once t
reaches the hundreds.

Monte Carlo
-----------
The empirical harnesses draw hash functions as uniform seed bits and hand
whole chunks of them to one `hashfam.HashTables`, built once per run for
the instance's points: a hash's output row is the XOR of one byte-table
row per seed byte, so millions of full hash evaluations reduce to
ceil(r * ell / 8) row gathers per chunk.  The signs 1 - 2b of every chunk
are formed in place in the unpacked bytes and cast once into one reused
float buffer.  Frequencies come with one-sided 99% Clopper-Pearson upper
confidence limits: Monte Carlo cannot prove an inequality, so domination
is asserted against the confidence limit.
"""

import math

import mpmath
import numpy as np

from . import hashfam

MIN_TRIALS = 10 ** 4
CONFIDENCE = 0.99
CHUNK = 8192
BOUND_DPS = 50


class LinearInstance:
    """Real weights a_1..a_N for the linear sum Y; caches v = sum a_x^2."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d real array")
        if not np.isfinite(w).all():
            raise ValueError("weights contain non-finite values")
        w = w.copy()
        w.setflags(write=False)
        self.weights = w
        self.v = float((w ** 2).sum())

    @property
    def n(self):
        return self.weights.size

    def __repr__(self):
        return "LinearInstance(n=%d, v=%g)" % (self.n, self.v)


class QuadraticInstance:
    """Symmetric real matrix A for the chaos S; caches norms of entrywise |A|."""

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError("A must be a nonempty square matrix")
        if not np.isfinite(a).all():
            raise ValueError("A contains non-finite values")
        if not np.array_equal(a, a.T):
            raise ValueError("A must be exactly symmetric")
        a = a.copy()
        a.setflags(write=False)
        self.a = a
        abs_a = np.abs(a)
        self.abs_frobenius = float(np.linalg.norm(abs_a))
        self.abs_operator = float(np.linalg.norm(abs_a, 2)) if a.shape[0] > 1 else self.abs_frobenius

    @property
    def n(self):
        return self.a.shape[0]

    def __repr__(self):
        return "QuadraticInstance(n=%d, frob=%g, op=%g)" % (self.n, self.abs_frobenius, self.abs_operator)


def _check_t(t):
    if int(t) != t or t < 2 or t % 2 != 0:
        raise ValueError("independence parameter t=%r must be an even integer >= 2" % (t,))
    return int(t)


def _to_float(val):
    # an mpf as a float, saturating to inf instead of raising
    try:
        return float(val)
    except OverflowError:
        return math.inf


def kite_bound(t, v, lam):
    """Two-sided tail bound for the linear sum under t-wise independence.

    Evaluates 2 e^{1/(6t)} sqrt(pi t) (v t / (e lam^2))^{t/2} exactly (50
    significant digits internally).

    Parameters
    ----------
    t : even integer >= 2, the independence order of the sign family
    v : sum of squared weights, >= 0
    lam : threshold, >= 0 (lam = 0 yields the vacuous bound inf)

    Returns
    -------
    float (may exceed 1, in which case the bound is vacuous)
    """
    t = _check_t(t)
    if lam < 0:
        raise ValueError("lam=%r must be nonnegative" % (lam,))
    if v < 0:
        raise ValueError("v=%r must be nonnegative" % (v,))
    if lam == 0:
        return math.inf
    if v == 0:
        return 0.0
    with mpmath.workdps(BOUND_DPS):
        lt = mpmath.mpf(t)
        return _to_float(mpmath.e ** (mpmath.log(2) + 1 / (6 * lt) + mpmath.log(mpmath.pi * lt) / 2
                                      + (lt / 2) * (mpmath.log(v) + mpmath.log(lt) - 1
                                                    - 2 * mpmath.log(lam))))


def crayfish_bound(t, frob, op, lam):
    """Two-sided tail bound for the quadratic chaos.

    The caller must supply signs that are 2t-wise independent; the function
    evaluates the two-term closed form with |A|_F = frob and |A| = op (norms
    of the entrywise absolute matrix).

    Parameters
    ----------
    t : even integer >= 2
    frob, op : norms of the entrywise-absolute matrix; op <= frob always
        holds for such matrices and violations are rejected
    lam : threshold, >= 0 (lam = 0 yields the vacuous bound inf)

    Returns
    -------
    float
    """
    t = _check_t(t)
    if lam < 0:
        raise ValueError("lam=%r must be nonnegative" % (lam,))
    if frob < 0 or op < 0:
        raise ValueError("norms must be nonnegative")
    if op > frob:
        raise ValueError("operator norm %r exceeds Frobenius norm %r (impossible "
                         "for an entrywise-absolute matrix)" % (op, frob))
    if lam == 0:
        return math.inf
    if frob == 0:
        return 0.0
    with mpmath.workdps(BOUND_DPS):
        lt = mpmath.mpf(t)
        total = mpmath.e ** (mpmath.log(4) + 1 / (6 * lt) + mpmath.log(mpmath.pi * lt) / 2
                             + (lt / 2) * (mpmath.log(4) + 2 * mpmath.log(frob) + mpmath.log(lt)
                                           - 1 - 2 * mpmath.log(lam)))
        if op != 0:
            total += mpmath.e ** (mpmath.log(4) + 1 / (12 * lt) + mpmath.log(2 * mpmath.pi * lt) / 2
                                  + lt * (mpmath.log(8) + mpmath.log(op) + mpmath.log(lt)
                                          - 1 - mpmath.log(lam)))
        return _to_float(total)


def clopper_pearson_upper(k, n):
    """One-sided upper CONFIDENCE limit for a binomial proportion."""
    if not (0 <= k <= n) or n < 1:
        raise ValueError("need 0 <= k <= n, n >= 1; got k=%r n=%r" % (k, n))
    if k >= n:
        return 1.0
    from scipy.special import betaincinv  # half of a CLI start; only the tallies need it
    return float(betaincinv(k + 1, n - k, CONFIDENCE))


def _check_run(ell, r, n, trials, mode="hash"):
    """Refuse a Monte Carlo run: too few trials, an unknown sign source, or for
    hash signs no r-wise family on {0,1}^ell or fewer than n points in it."""
    if trials < MIN_TRIALS:
        raise ValueError("trials=%d below the Monte Carlo floor %d" % (trials, MIN_TRIALS))
    if mode not in ("hash", "rademacher"):
        raise ValueError("unknown mode %r" % (mode,))
    if mode == "hash" and n > hashfam.family(ell, r).order:
        raise ValueError("instance needs %d domain points but 2^%d available" % (n, ell))


def _sign_chunks(ell, r, npoints, trials, rng):
    """Yield chunks of (-1)^{H(x)} sign matrices, shape (chunk, npoints):
    row i holds one freshly sampled r-wise hash at the points 0..npoints-1.

    Every chunk is a view of one buffer that the next chunk overwrites."""
    tables = hashfam.HashTables(ell, r, np.arange(npoints))

    def draw(c):
        return tables.hash_bits(rng.integers(0, 2, size=(c, r * ell), dtype=np.uint8)).view(np.int8)

    yield from _fill_signs(draw, npoints, trials)


def _fill_signs(draw, npoints, trials):
    # 1 - 2b formed in place in the fresh signed 0/1 rows of draw(c), then cast
    # once into one reused float buffer: the same doubles as 1.0 - 2.0 * b.
    # The rows are dropped before the yield, so no two chunks' rows coexist.
    buf = np.empty((min(CHUNK, trials), npoints))
    for done in range(0, trials, CHUNK):
        signs = buf[:min(CHUNK, trials - done)]
        bits = draw(len(signs))
        bits *= -2
        bits += 1
        np.copyto(signs, bits)
        del bits
        yield signs


def _tally(values_iter, lambda_grid, trials):
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda grid must be a nonempty 1-d array")
    if not np.isfinite(grid).all() or (grid < 0).any():
        raise ValueError("lambda grid must be finite and nonnegative")
    counts = np.zeros(grid.size, dtype=np.int64)
    total = 0.0
    total_sq = 0.0
    for vals in values_iter:
        counts += (np.abs(vals)[:, None] >= grid[None, :]).sum(axis=0)
        total += vals.sum()
        total_sq += (vals ** 2).sum()
    mean = total / trials
    var = max(total_sq / trials - mean ** 2, 0.0)
    return {
        "lambdas": grid,
        "freqs": counts / trials,
        "upper_cl_99": np.array([clopper_pearson_upper(int(k), trials) for k in counts]),
        "trials": trials,
        "sample_mean": mean,
        "sample_std": math.sqrt(var),
    }


def empirical_tail_linear(inst, ell, r, lambda_grid, trials, rng):
    """Monte Carlo tail of |Y|, Y = sum_x a_x (-1)^{H(x)}, H r-wise.

    Parameters
    ----------
    inst : LinearInstance with at most 2^ell weights
    ell, r : hash family parameters (domain {0,1}^ell, independence r)
    lambda_grid : thresholds; frequency of |Y| >= lam is reported per entry
    trials : number of sampled hash functions, >= 10^4
    rng : numpy.random.Generator

    Returns
    -------
    dict with lambdas, freqs, upper_cl_99 (one-sided 99% Clopper-Pearson),
    trials, sample_mean, sample_std.
    """
    _check_run(ell, r, inst.n, trials)
    chunks = _sign_chunks(ell, r, inst.n, trials, rng)
    return _tally((signs @ inst.weights for signs in chunks), lambda_grid, trials)


def empirical_tail_quadratic(inst, ell, r, lambda_grid, trials, rng, mode="hash"):
    """Monte Carlo tail of |S|, S = sum_{x,y} A_{xy}(xi_x xi_y - delta_{xy}).

    Parameters
    ----------
    inst : QuadraticInstance, at most 2^ell rows in "hash" mode
    ell, r : hash family parameters (ignored in "rademacher" mode)
    lambda_grid, trials, rng : as in empirical_tail_linear
    mode : "hash" draws xi = (-1)^{H(x)} from one r-wise hash for all rows;
        "rademacher" draws fully independent signs

    Returns
    -------
    dict as in empirical_tail_linear
    """
    _check_run(ell, r, inst.n, trials, mode)
    a = inst.a
    tr = float(np.trace(a))
    if mode == "hash":
        chunks = _sign_chunks(ell, r, inst.n, trials, rng)
    else:
        chunks = _fill_signs(lambda c: rng.integers(0, 2, size=(c, inst.n)), inst.n, trials)

    def chaos(signs):
        quad = signs @ a
        return np.multiply(quad, signs, out=quad).sum(axis=1) - tr

    return _tally(map(chaos, chunks), lambda_grid, trials)

