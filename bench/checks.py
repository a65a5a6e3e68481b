"""Reference computations for the benchmark's output checks.

Nothing here calls into otmlab.  Field arithmetic, hash evaluation, tail
bound formulas, binomial confidence limits and operator norms are written
out again from their definitions, so a check compares the program against
an independent computation, never against a stored copy of its output.
"""

import math

import mpmath
import numpy as np
from scipy.special import bdtr

BOUND_DPS = 50
CONFIDENCE = 0.99


class CheckFailed(AssertionError):
    """An output check found a wrong value."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(a, b, tol):
    return abs(a - b) <= tol


def rel_close(a, b, tol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# --- GF(2^8) with the pinned modulus x^8 + x^4 + x^3 + x + 1 -------------

GF8_MODULUS = 0x11B


def gf8_mul(a, b):
    """Shift-and-add product in GF(2^8), reducing after every shift."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= GF8_MODULUS
    return out


def hash8_bit(coeffs, x):
    """Low bit of sum_i coeffs[i] x^i over GF(2^8), constant term first."""
    acc = 0
    power = 1
    for c in coeffs:
        acc ^= gf8_mul(c, power)
        power = gf8_mul(power, x)
    return acc & 1


def hash8_coeffs_from_seed(seed, r, count):
    """Coefficients of `count` hashes drawn in turn from default_rng(seed).

    The documented draw layout: each hash takes r * ceil(8/8) bytes from
    Generator.bytes, one big-endian byte per coefficient, constant first.
    """
    rng = np.random.default_rng(seed)
    return [tuple(rng.bytes(r)) for _ in range(count)]


# --- classical-leak model, from its definition ----------------------------

def leak_consistent(ell, positions, outcome):
    """Boolean masks of the s and t strings consistent with a leak value.

    Physical bit positions alternate s_0, t_0, s_1, t_1, ...; bit i of the
    outcome is the value at positions[i].
    """
    xs = np.arange(1 << ell)
    ok_s = np.ones(1 << ell, dtype=bool)
    ok_t = np.ones(1 << ell, dtype=bool)
    for i, p in enumerate(positions):
        bit = (outcome >> i) & 1
        mask = ok_s if p % 2 == 0 else ok_t
        mask &= ((xs >> (p // 2)) & 1) == bit
    return ok_s, ok_t


# --- tail bounds, literal formulas at 50 digits ---------------------------

def kite(t, v, lam):
    """2 e^{1/(6t)} sqrt(pi t) (v t / (e lam^2))^{t/2}."""
    with mpmath.workdps(BOUND_DPS):
        t, v, lam = mpmath.mpf(t), mpmath.mpf(v), mpmath.mpf(lam)
        return (2 * mpmath.exp(1 / (6 * t)) * mpmath.sqrt(mpmath.pi * t)
                * (v * t / (mpmath.e * lam ** 2)) ** (t / 2))


def crayfish(t, frob, op, lam):
    """4 e^{1/(6t)} sqrt(pi t) (4 F^2 t / (e lam^2))^{t/2}
    + 4 e^{1/(12t)} sqrt(2 pi t) (8 op t / (e lam))^t."""
    with mpmath.workdps(BOUND_DPS):
        t, frob, op, lam = (mpmath.mpf(x) for x in (t, frob, op, lam))
        first = (4 * mpmath.exp(1 / (6 * t)) * mpmath.sqrt(mpmath.pi * t)
                 * (4 * frob ** 2 * t / (mpmath.e * lam ** 2)) ** (t / 2))
        second = (4 * mpmath.exp(1 / (12 * t)) * mpmath.sqrt(2 * mpmath.pi * t)
                  * (8 * op * t / (mpmath.e * lam)) ** t)
        return first + second


def r_tail(r, coll, lam):
    """8 e^{1/(3r)} sqrt(pi r) (8 coll r^2 / (e^2 lam^2))^{r/4}."""
    with mpmath.workdps(BOUND_DPS):
        r, coll, lam = mpmath.mpf(r), mpmath.mpf(coll), mpmath.mpf(lam)
        return (8 * mpmath.exp(1 / (3 * r)) * mpmath.sqrt(mpmath.pi * r)
                * (8 * coll * r ** 2 / (mpmath.e ** 2 * lam ** 2)) ** (r / 4))


# --- Monte Carlo statistics ------------------------------------------------

def check_upper_limit(freq, trials, ucl, what):
    """freq <= ucl, and ucl is the one-sided 99% Clopper-Pearson limit:
    the binomial CDF at the observed count equals 1 - 0.99 there."""
    k = int(round(freq * trials))
    expect(close(k / trials, freq, 1e-12), "%s: frequency %r is not a count over %d"
           % (what, freq, trials))
    expect(freq <= ucl, "%s: frequency %r above its 99%% limit %r" % (what, freq, ucl))
    if k == trials:
        expect(ucl == 1.0, "%s: limit %r for an all-hit count" % (what, ucl))
        return
    tail = float(bdtr(k, trials, ucl))
    expect(close(tail, 1.0 - CONFIDENCE, 1e-6),
           "%s: Pr(Bin(%d, %r) <= %d) = %r, not %g" % (what, trials, ucl, k, tail,
                                                      1.0 - CONFIDENCE))


def check_non_increasing(values, what):
    for a, b in zip(values, values[1:]):
        expect(b <= a, "%s: %r rises to %r as lambda grows" % (what, a, b))


# --- matrices ----------------------------------------------------------------

def opnorm(x):
    """Largest singular value, from the eigenvalues of x^dag x."""
    x = np.asarray(x, dtype=complex)
    return math.sqrt(max(float(np.linalg.eigvalsh(x.conj().T @ x).max()), 0.0))


def random_effect(rng):
    """A 2x2 matrix with 0 <= X <= I: random unitary, eigenvalues in [0, 1]."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    return (u * rng.random(2)) @ u.conj().T


def random_contraction(rng):
    """A 4x4 matrix of operator norm at most 1."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _, vh = np.linalg.svd(g)
    return (u * rng.random(4)) @ vh
