r"""Exact r-wise independent hash families {0,1}^l -> {0,1}.

A hash function is a uniformly random polynomial of degree <= r-1 over the
binary field GF(2^l); the output is the low-order bit of the evaluated field
element.  For any r distinct inputs, the evaluation map (Vandermonde) sends
the uniform coefficient vector onto a uniform vector in GF(2^l)^r, and the
low bit of a uniform field element is unbiased, so the induced {0,1}-valued
family is *exactly* r-wise independent (not just approximately so).

Sampling a function consumes r*l seed bits, and a sampled function is an
immutable value object that can be evaluated concurrently and serialized to a
pinned byte format (see `HashFunction.to_bytes`).

Whole output tables are computed by one vectorized path.  The output bit is
GF(2)-linear in each coefficient, so lowbit(c * x^i) = parity(c & m_i(x))
for an l-bit mask m_i(x) that depends only on the point and the degree.
`point_masks` builds the masks for a set of points once; `hash_bits` then
evaluates any number of hashes at those points from byte lookup tables of
the masks' bit rows, packed over the points into 64-bit words: one table
row per coefficient byte, XORed together.  Scalar Horner evaluation
(`HashFunction.__call__`) serves single lookups and is the reference oracle
for the tables.
"""

import functools

import numpy as np

MAX_FIELD_BITS = 64

# Pinned irreducible moduli for GF(2^l), l = 1..64, encoded as Python ints
# with the degree-l bit set.  Entry l is x^l + x^a + 1 with the smallest a
# for which the trinomial is irreducible, else the lexicographically smallest
# irreducible pentanomial x^l + x^a + x^b + x^c + 1.  Reproducibility of
# every seeded experiment depends on this table staying fixed.
IRREDUCIBLE_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
    33: 0x200000401,
    34: 0x400000081,
    35: 0x800000005,
    36: 0x1000000201,
    37: 0x2000000053,
    38: 0x4000000063,
    39: 0x8000000011,
    40: 0x10000000039,
    41: 0x20000000009,
    42: 0x40000000081,
    43: 0x80000000059,
    44: 0x100000000021,
    45: 0x20000000001B,
    46: 0x400000000003,
    47: 0x800000000021,
    48: 0x100000000002D,
    49: 0x2000000000201,
    50: 0x400000000001D,
    51: 0x800000000004B,
    52: 0x10000000000009,
    53: 0x20000000000047,
    54: 0x40000000000201,
    55: 0x80000000000081,
    56: 0x100000000000095,
    57: 0x200000000000011,
    58: 0x400000000080001,
    59: 0x800000000000095,
    60: 0x1000000000000003,
    61: 0x2000000000000027,
    62: 0x4000000020000001,
    63: 0x8000000000000003,
    64: 0x1000000000000001B,
}


def _poly_mul(a, b):
    """Carry-less (GF(2)[x]) product of two polynomials encoded as ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_mod(a, f):
    """Remainder of a modulo f in GF(2)[x]."""
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


@functools.lru_cache(maxsize=None)
def _has_nontrivial_factor(f):
    """Exhaustive trial division of f by all polynomials of degree 1..deg/2.

    Memoized per modulus, so each pinned modulus is searched once per process.
    """
    deg = f.bit_length() - 1
    for d in range(1, deg // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _poly_mod(f, g) == 0:
                return True
    return False


class BinaryField:
    """Arithmetic in GF(2^l) with the pinned modulus for bit-width l.

    Elements are plain ints in [0, 2^l).  Addition is XOR; multiplication is
    carry-less product followed by reduction.  For l <= 16 the modulus is
    verified irreducible by exhaustive factor search, once per modulus and
    process; for larger l the table entry is trusted (the test suite
    re-verifies the whole table with Rabin's criterion).
    """

    def __init__(self, ell):
        if not (1 <= ell <= MAX_FIELD_BITS):
            raise ValueError("field bit-width ell=%d out of range [1, %d]" % (ell, MAX_FIELD_BITS))
        self.ell = ell
        self.modulus = IRREDUCIBLE_POLY[ell]
        self.order = 1 << ell
        if ell <= 16 and _has_nontrivial_factor(self.modulus):
            raise ValueError("modulus 0x%X for ell=%d is reducible" % (self.modulus, ell))

    def mul(self, a, b):
        return _poly_mod(_poly_mul(a, b), self.modulus)

    def __eq__(self, other):
        return isinstance(other, BinaryField) and self.ell == other.ell and self.modulus == other.modulus

    def __repr__(self):
        return "BinaryField(ell=%d, modulus=0x%X)" % (self.ell, self.modulus)


class HashFunction:
    """A degree <= r-1 polynomial over GF(2^l), output = low bit of h(x).

    coefficients[i] is the coefficient of x^i (constant term first).  The
    value is immutable after construction; evaluation is a pure function.
    """

    def __init__(self, field, coefficients):
        coefficients = [int(c) for c in coefficients]
        if len(coefficients) < 1:
            raise ValueError("need at least one coefficient")
        for c in coefficients:
            if not (0 <= c < field.order):
                raise ValueError("coefficient %d outside GF(2^%d)" % (c, field.ell))
        self.field = field
        self.coefficients = tuple(coefficients)
        self.r = len(coefficients)

    @property
    def ell(self):
        return self.field.ell

    def eval_field(self, x):
        """Horner evaluation of the polynomial at x, as a field element."""
        if not (0 <= x < self.field.order):
            raise ValueError("input %d outside domain {0,1}^%d" % (x, self.field.ell))
        acc = 0
        for c in reversed(self.coefficients):
            acc = self.field.mul(acc, x) ^ c
        return acc

    def __call__(self, x):
        return self.eval_field(x) & 1

    def to_bytes(self):
        """Serialize to the pinned format: l (1 byte), r (2 bytes, big-endian),
        then the r coefficients, constant term first, each ceil(l/8) bytes
        big-endian.  Format version 1; bit-exact across platforms."""
        nb = (self.field.ell + 7) // 8
        out = bytes([self.field.ell]) + self.r.to_bytes(2, "big")
        for c in self.coefficients:
            out += c.to_bytes(nb, "big")
        return out

    @classmethod
    def from_bytes(cls, data):
        if len(data) < 3:
            raise ValueError("truncated hash seed: %d bytes" % len(data))
        ell = data[0]
        r = int.from_bytes(data[1:3], "big")
        nb = (ell + 7) // 8
        if len(data) != 3 + r * nb:
            raise ValueError("hash seed length %d does not match ell=%d, r=%d" % (len(data), ell, r))
        field = BinaryField(ell)
        coeffs = [int.from_bytes(data[3 + i * nb:3 + (i + 1) * nb], "big") for i in range(r)]
        return cls(field, coeffs)

    def __eq__(self, other):
        return (isinstance(other, HashFunction) and self.field == other.field
                and self.coefficients == other.coefficients)

    def __repr__(self):
        return "HashFunction(ell=%d, r=%d)" % (self.field.ell, self.r)


def sample_hash(ell, r, rng):
    """Draw a uniformly random member of the exactly r-wise independent family.

    Parameters
    ----------
    ell : int
        Domain bit-width, 1 <= ell <= 64.
    r : int
        Independence order; r coefficients are drawn.  Must satisfy
        1 <= r <= 2^ell (no family on 2^ell points can be independent
        beyond the domain size).
    rng : numpy.random.Generator
        Seedable entropy source; r*ceil(ell/8) bytes are consumed, masked
        down to ell bits per coefficient, so draws are reproducible across
        platforms for a fixed seed.

    Returns
    -------
    HashFunction
    """
    if not (1 <= ell <= MAX_FIELD_BITS):
        raise ValueError("ell=%d out of range [1, %d]" % (ell, MAX_FIELD_BITS))
    if r < 1:
        raise ValueError("independence order r=%d must be >= 1" % r)
    if r > (1 << ell):
        raise ValueError("r=%d exceeds domain size 2^%d=%d" % (r, ell, 1 << ell))
    field = BinaryField(ell)
    nb = (ell + 7) // 8
    mask = (1 << ell) - 1
    raw = rng.bytes(nb * r)
    coeffs = [int.from_bytes(raw[i * nb:(i + 1) * nb], "big") & mask for i in range(r)]
    return HashFunction(field, coeffs)


def point_masks(ell, r, points):
    """Seed masks of the degree <= r-1 family at the given domain points.

    The output bit lowbit(c * x^i) is GF(2)-linear in the coefficient c, so
    it equals parity(c & m_i(x)) for one ell-bit mask m_i(x): bit b of the
    mask is lowbit(x^i * 2^b), the field product with the element 2^b.
    Returns the (r, n) array of masks in the narrowest unsigned dtype that
    holds ell bits; a hash with coefficients c_0..c_{r-1} outputs
    parity(XOR_i c_i & m_i(x)) at x (see `hash_bits`).  All n points advance
    together, one vectorized multiply-by-2 step per bit; at ell = 64 the
    reduction XORs in the modulus without its x^64 term.
    """
    field = BinaryField(ell)
    pts = [int(x) for x in points]
    if not all(0 <= x < field.order for x in pts):
        raise ValueError("points outside domain {0,1}^%d" % ell)
    pts = np.array(pts, dtype=np.uint64)
    one = np.uint64(1)
    full = np.uint64(field.order - 1)
    low = np.uint64(field.modulus & (field.order - 1))  # modulus without x^ell
    top = np.uint64(ell - 1)

    def times_x(a):
        return ((a << one) & full) ^ (((a >> top) & one) * low)

    masks = np.zeros((r, pts.size), dtype=np.uint64)
    power = np.ones_like(pts)  # x^i
    for i in range(r):
        t = power
        prod = np.zeros_like(pts)
        for b in range(ell):
            masks[i] |= (t & one) << np.uint64(b)
            prod ^= t * ((pts >> np.uint64(b)) & one)  # accumulates x^i * x
            t = times_x(t)
        power = prod
    narrowest = next(dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64)
                     if ell <= np.iinfo(dt).bits)
    return masks.astype(narrowest)


def hash_bits(coeffs, masks):
    """Output bits of K hashes at the n points of `masks` (see `point_masks`).

    coeffs is a (K, r) array of field elements, constant term first.
    Returns the (K, n) uint8 array of lowbit(h_k(x)).

    Bit b of coefficient i contributes the row (bit b of m_i(x))_x, packed
    over the n points into little-endian uint64 words.  For each
    coefficient byte, the 256 XOR combinations of its 8 packed rows form a
    lookup table, built with 8 doublings (four-Russians style).  A hash's
    packed output row is then the XOR of r * ceil(ell/8) table rows, one
    per coefficient byte, and one `np.unpackbits` turns the K packed rows
    into bits.  Coefficient bits at or above ell meet all-zero rows.
    """
    masks = np.asarray(masks)
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    r, n = masks.shape
    if coeffs.ndim != 2 or coeffs.shape[1] != r:
        raise ValueError("coefficients of shape %r do not match %d mask rows"
                         % (coeffs.shape, r))
    masks = masks.astype("<u8")
    nbytes = max(1, (int(np.bitwise_or.reduce(masks, axis=None, initial=0)).bit_length() + 7) // 8)
    words = (n + 63) // 64
    # rows[i, b] = bit b of the masks of degree i, packed over the points
    bits = np.unpackbits(masks.view(np.uint8).reshape(r, n, 8)[:, :, :nbytes],
                         axis=2, bitorder="little")
    packed = np.zeros((r, 8 * nbytes, 8 * words), dtype=np.uint8)
    packed[:, :, :(n + 7) // 8] = np.packbits(bits.transpose(0, 2, 1), axis=2, bitorder="little")
    rows = packed.view("<u8").reshape(r * nbytes, 8, words)
    tables = np.zeros((r * nbytes, 256, words), dtype="<u8")
    for t in range(8):
        np.bitwise_xor(tables[:, :1 << t], rows[:, t, None], out=tables[:, 1 << t:2 << t])
    # byte j of coefficient i selects a row of table i * nbytes + j
    index = coeffs.astype("<u8").view(np.uint8).reshape(-1, r, 8)[:, :, :nbytes]
    index = np.ascontiguousarray(index.reshape(-1, r * nbytes).T, dtype=np.intp)
    acc = np.zeros((index.shape[1], words), dtype="<u8")
    for table, byte in zip(tables, index):
        acc ^= table[byte]
    return np.unpackbits(acc.view(np.uint8), axis=1, count=n, bitorder="little")


def coeffs_from_seed_bits(bits, ell):
    """Pack 0/1 seed bits, shape (..., r*ell), into (..., r) uint64 coefficients.

    Bit i*ell + b of the seed is bit b of coefficient i.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % ell != 0:
        raise ValueError("bit vector length %d not a multiple of ell=%d" % (bits.shape[-1], ell))
    grouped = bits.reshape(bits.shape[:-1] + (-1, ell)).astype(np.uint64)
    return (grouped << np.arange(ell, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


def _tuples_up_to(n, size):
    """All strictly increasing index tuples of length 1..size from range(n)."""
    stack = [(x,) for x in range(n)]
    while stack:
        t = stack.pop()
        yield t
        if len(t) < size:
            for x in range(t[-1] + 1, n):
                stack.append(t + (x,))


def _gf2_rank(vectors):
    basis = []
    rank = 0
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            rank += 1
    return rank


def verify_independence(ell, r, ncoeffs=None, method="auto"):
    """Exact r-wise uniformity audit of the polynomial family on {0,1}^ell.

    For every tuple of at most r distinct domain points, the joint output
    distribution over all 2^(ncoeffs*ell) equiprobable seeds is compared to
    the uniform distribution on {0,1}^len(tuple); the worst absolute
    deviation over tuples and output patterns is reported.  The exact family
    (ncoeffs = r) must report max_bias = 0.

    Two equivalent evaluation strategies are provided.  "direct" literally
    enumerates every seed and histograms the joint outputs.  "rank" uses the
    GF(2)-linearity of the output bits in the seed bits: on a tuple whose
    point functionals span rank rho <= t, the joint output is uniform on a
    rank-rho affine subspace, so the worst pattern deviation is exactly
    2^-rho - 2^-t (and 0 when rho = t).  Both walk the same tuple set and
    agree exactly; "auto" picks "direct" for small seed spaces and "rank"
    otherwise.

    Parameters
    ----------
    ell : int
        Domain bit-width; ell <= 5 (exhaustive regime).
    r : int
        Tuple size to audit; r <= 4 and r <= 2^ell.
    ncoeffs : int, optional
        Number of polynomial coefficients in the family; defaults to r
        (the exact construction).  Passing ncoeffs < r audits a deliberately
        truncated family, which fails with max_bias > 0.
    method : {"auto", "direct", "rank"}

    Returns
    -------
    dict with keys:
        max_bias : float  -- worst |Pr(pattern) - 2^-t| over tuples/patterns
        worst_tuple : tuple of ints or None
        tuples_checked : int
        method : str
    """
    if not (1 <= ell <= 5 and 1 <= r <= 4):
        raise ValueError("exhaustive regime requires ell <= 5 and r <= 4, got ell=%d r=%d" % (ell, r))
    if r > (1 << ell):
        raise ValueError("r=%d exceeds domain size 2^%d" % (r, ell))
    if ncoeffs is None:
        ncoeffs = r
    if ncoeffs < 1:
        raise ValueError("ncoeffs must be >= 1")
    n = 1 << ell
    nbits = ncoeffs * ell
    masks = point_masks(ell, ncoeffs, np.arange(n))
    if method == "auto":
        method = "direct" if nbits <= 12 else "rank"

    max_bias = 0.0
    worst = None
    count = 0
    if method == "rank":
        # the seed functional of point x: its masks concatenated into one int
        funcs = [sum(int(m) << (i * ell) for i, m in enumerate(masks[:, x])) for x in range(n)]
        for t in _tuples_up_to(n, r):
            count += 1
            rho = _gf2_rank([funcs[x] for x in t])
            bias = 2.0 ** (-rho) - 2.0 ** (-len(t)) if rho < len(t) else 0.0
            if bias > max_bias:
                max_bias, worst = bias, t
    elif method == "direct":
        nseeds = 1 << nbits
        seeds = np.arange(nseeds, dtype=np.uint64)
        bits = ((seeds[:, None] >> np.arange(nbits, dtype=np.uint64)[None, :]) & 1).astype(np.uint8)
        tables = hash_bits(coeffs_from_seed_bits(bits, ell), masks)  # (nseeds, n)
        for t in _tuples_up_to(n, r):
            count += 1
            tt = len(t)
            patt = np.zeros(nseeds, dtype=np.int64)
            for j, x in enumerate(t):
                patt |= tables[:, x].astype(np.int64) << j
            freqs = np.bincount(patt, minlength=1 << tt) / nseeds
            bias = float(np.abs(freqs - 2.0 ** (-tt)).max())
            if bias > max_bias:
                max_bias, worst = bias, t
    else:
        raise ValueError("unknown method %r" % (method,))
    return {"max_bias": max_bias, "worst_tuple": worst, "tuples_checked": count, "method": method}
