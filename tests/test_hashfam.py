import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from otmlab import hashfam
from otmlab.hashfam import (
    IRREDUCIBLE_POLY,
    BinaryField,
    HashFunction,
    HashTables,
    point_masks,
    sample_hash,
    seed_bits,
    verify_independence,
)

from hash_oracle import coeffs_from_seed_bits, seed_hash_bits


# ---------------------------------------------------------------------------
# Oracle: Rabin's irreducibility criterion, written against plain int-encoded
# GF(2)[x] arithmetic.  f of degree n is irreducible iff x^(2^n) == x mod f
# and gcd(x^(2^(n/p)) - x, f) == 1 for every prime p | n.  The module itself
# only ever does trial division, so this is an independent check of the
# pinned table.
# ---------------------------------------------------------------------------

def _omul(a, b):
    r = 0
    shift = 0
    while b:
        if b & 1:
            r ^= a << shift
        b >>= 1
        shift += 1
    return r


def _omod(a, f):
    df = f.bit_length() - 1
    da = a.bit_length() - 1
    while da >= df and a:
        a ^= f << (da - df)
        da = a.bit_length() - 1
    return a


def _ogcd(a, b):
    while b:
        a, b = b, _omod(a, b)
    return a


def _x_pow_pow2_mod(k, f):
    # x^(2^k) mod f by repeated squaring
    r = _omod(2, f)
    for _ in range(k):
        r = _omod(_omul(r, r), f)
    return r


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _rabin_irreducible(f):
    n = f.bit_length() - 1
    if _x_pow_pow2_mod(n, f) != _omod(2, f):
        return False
    for p in _prime_factors(n):
        g = _x_pow_pow2_mod(n // p, f) ^ _omod(2, f)
        if _ogcd(f, g) != 1:
            return False
    return True


def test_pinned_moduli_table_is_irreducible():
    assert sorted(IRREDUCIBLE_POLY) == list(range(1, 65))
    for ell, f in IRREDUCIBLE_POLY.items():
        assert f.bit_length() - 1 == ell
        assert _rabin_irreducible(f), "table entry for ell=%d is reducible" % ell


def test_rabin_oracle_rejects_known_reducibles():
    # x^2, x^2 + x = x(x+1), x^4 + 1 = (x+1)^4
    for f in (0b100, 0b110, 0b10001):
        assert not _rabin_irreducible(f)


# ---------------------------------------------------------------------------
# Field and evaluation, against schoolbook bit-list arithmetic in GF(2^4).
# ---------------------------------------------------------------------------

def _bits(v, width):
    return [(v >> i) & 1 for i in range(width)]


def _school_mul_gf16(a, b):
    # convolution then long division by x^4 + x + 1 (0x13), all on bit lists
    prod = [0] * 7
    for i, ai in enumerate(_bits(a, 4)):
        for j, bj in enumerate(_bits(b, 4)):
            prod[i + j] ^= ai & bj
    for d in range(6, 3, -1):
        if prod[d]:
            prod[d] ^= 1
            prod[d - 3] ^= 1
            prod[d - 4] ^= 1
    return sum(prod[i] << i for i in range(4))


def test_field_mul_matches_schoolbook_gf16():
    F = BinaryField(4)
    for a in range(16):
        for b in range(16):
            assert F.mul(a, b) == _school_mul_gf16(a, b)


def test_field_axioms_small():
    for ell in (1, 2, 3, 5):
        F = BinaryField(ell)
        n = F.order
        for a in range(n):
            assert F.mul(a, 1) == a
            for b in range(n):
                assert F.mul(a, b) == F.mul(b, a)
        # every nonzero element is invertible: row {a*b : b} is a permutation
        for a in range(1, n):
            assert sorted(F.mul(a, b) for b in range(n)) == list(range(n))


def test_hash_bits_match_schoolbook_horner():
    F = BinaryField(4)
    h = HashFunction(F, [0x3, 0xA, 0x7])  # 3 + Ax + 7x^2
    table = HashTables(4, 3, range(16)).hash_bits(seed_bits([h.coefficients], 4))[0]
    for x in range(16):
        acc = 0
        for c in reversed(h.coefficients):
            acc = _school_mul_gf16(acc, x) ^ c
        assert h.eval_field(x) == acc
        assert h(x) == table[x] == acc & 1


def test_eval_rejects_out_of_domain():
    h = HashFunction(BinaryField(3), [1, 2])
    with pytest.raises(ValueError):
        h(8)
    with pytest.raises(ValueError):
        h(-1)


# ---------------------------------------------------------------------------
# Sampling and the exact-independence audit.
# ---------------------------------------------------------------------------

def test_sample_hash_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_hash(0, 1, rng)
    with pytest.raises(ValueError):
        sample_hash(65, 1, rng)
    with pytest.raises(ValueError):
        sample_hash(3, 0, rng)
    with pytest.raises(ValueError):
        sample_hash(1, 3, rng)  # r > 2^ell
    h = sample_hash(1, 2, rng)
    assert h.r == 2 and h.ell == 1


def test_sample_hash_deterministic_given_seed():
    h1 = sample_hash(13, 5, np.random.default_rng(424242))
    h2 = sample_hash(13, 5, np.random.default_rng(424242))
    assert h1 == h2
    h3 = sample_hash(13, 5, np.random.default_rng(424243))
    assert h1 != h3


def test_exact_family_has_zero_bias_small_cases():
    for ell, r in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 4)]:
        res = verify_independence(ell, r)
        assert res["max_bias"] == 0.0, (ell, r, res)


def test_direct_and_rank_methods_agree():
    for ell, r in [(2, 3), (3, 4), (2, 4)]:
        d = verify_independence(ell, r, method="direct")
        g = verify_independence(ell, r, method="rank")
        assert d["max_bias"] == g["max_bias"] == 0.0
        assert d["tuples_checked"] == g["tuples_checked"]
    # and on a broken family both methods report the identical nonzero bias
    d = verify_independence(2, 4, ncoeffs=2, method="direct")
    g = verify_independence(2, 4, ncoeffs=2, method="rank")
    assert d["max_bias"] == g["max_bias"] > 0.0


def test_truncated_family_fails_independence():
    # constant polynomials: outputs at any two points are identical
    res = verify_independence(2, 2, ncoeffs=1)
    assert res["max_bias"] == pytest.approx(0.25)
    assert res["worst_tuple"] is not None
    # Degree-1 polynomials give *bit* outputs that are still 3-wise
    # independent (an odd-size XOR of outputs always carries the constant
    # term's low bit), so the first honest failure is a 4-tuple whose field
    # elements sum to zero: 0+1+2+3 = 0 in GF(4) kills the linear part and
    # leaves rank 3, i.e. bias 2^-3 - 2^-4.
    res = verify_independence(2, 3, ncoeffs=2)
    assert res["max_bias"] == 0.0
    res = verify_independence(2, 4, ncoeffs=2)
    assert res["max_bias"] == pytest.approx(2.0 ** -3 - 2.0 ** -4)


def test_verify_independence_guards():
    with pytest.raises(ValueError):
        verify_independence(6, 2)
    with pytest.raises(ValueError):
        verify_independence(3, 5)
    with pytest.raises(ValueError):
        verify_independence(1, 3)  # r > domain
    with pytest.raises(ValueError):
        verify_independence(2, 2, method="bogus")


def test_single_point_output_is_unbiased():
    # enumerate all seeds at ell=3, r=2: each point hits 0 and 1 equally often
    ell, r = 3, 2
    F = BinaryField(ell)
    counts = np.zeros(1 << ell, dtype=int)
    for c0 in range(8):
        for c1 in range(8):
            h = HashFunction(F, [c0, c1])
            for x in range(8):
                counts[x] += h(x)
    assert (counts == (64 // 2)).all()


# ---------------------------------------------------------------------------
# Batched evaluation through the per-point seed masks.
# ---------------------------------------------------------------------------

def _oracle_coeffs(ell, bits):
    # seed bit i*ell + b is bit b of coefficient i
    return [sum(int(bits[i * ell + b]) << b for b in range(ell)) for i in range(len(bits) // ell)]


def test_hash_bits_match_seed_bit_evaluation():
    rng = np.random.default_rng(7)
    ell, r = 6, 4
    points = [0, 1, 5, 17, 40, 63]
    masks = point_masks(ell, r, points)
    assert masks.shape == (r, len(points)) and masks.dtype == np.uint8
    bits = rng.integers(0, 2, size=(25, r * ell), dtype=np.uint8)
    coeffs = coeffs_from_seed_bits(bits, ell)
    assert np.array_equal(seed_bits(coeffs, ell), bits)
    fast = HashTables(ell, r, points).hash_bits(bits)
    for row in range(25):
        assert list(coeffs[row]) == _oracle_coeffs(ell, bits[row])
        h = HashFunction(BinaryField(ell), _oracle_coeffs(ell, bits[row]))
        slow = np.array([h(x) for x in points], dtype=np.uint8)
        assert (fast[row] == slow).all()


def test_point_masks_rejects_bad_point():
    with pytest.raises(ValueError):
        point_masks(3, 2, [0, 9])
    with pytest.raises(ValueError):
        point_masks(3, 2, [-1, 0])
    with pytest.raises(ValueError):
        point_masks(64, 2, [0, 1 << 64])
    with pytest.raises(ValueError):
        HashTables(3, 2, [0, 9])


def test_hash_bits_seed_length_check():
    tables = HashTables(3, 2, [0, 1])
    for seeds in ([[1, 0, 1]], [[1, 0, 1, 0, 1, 0, 1]], [1, 0, 1, 0, 1, 0], [[[1] * 6]]):
        with pytest.raises(ValueError, match="r\\*ell = 6"):
            tables.hash_bits(seeds)
    assert tables.hash_bits(np.zeros((0, 6))).shape == (0, 2)


@seed(3)
@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64]),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0),
       st.lists(st.integers(min_value=0), max_size=6))
def test_hash_bits_match_scalar_evaluation(ell, r, entropy, extra):
    r = min(r, 1 << ell)
    top = (1 << ell) - 1
    points = [0, top] + [v & top for v in extra]
    rng = np.random.default_rng(entropy)
    hashes = [sample_hash(ell, r, rng) for _ in range(4)]
    masks = point_masks(ell, r, points)
    assert masks.dtype.itemsize * 8 >= ell and (ell <= 8 or masks.dtype.itemsize * 4 < ell)
    table = HashTables(ell, r, points).hash_bits(seed_bits([h.coefficients for h in hashes], ell))
    assert table.shape == (4, len(points))
    for k, h in enumerate(hashes):
        assert list(table[k]) == [h(x) for x in points]


def _and_xor_popcount_bits(coeffs, masks):
    # the word-per-point evaluator the byte tables replaced: r full-width AND/XOR
    # passes over (K, n) words of the masks' dtype, then one popcount
    masks = np.asarray(masks)
    coeffs = np.asarray(coeffs, dtype=np.uint64).astype(masks.dtype)
    acc = np.zeros((coeffs.shape[0], masks.shape[1]), dtype=masks.dtype)
    for i in range(masks.shape[0]):
        acc ^= coeffs[:, i, None] & masks[i]
    return np.bitwise_count(acc) & np.uint8(1)


@pytest.mark.parametrize("ell,r", [(1, 2), (8, 1), (9, 3), (16, 5), (17, 8), (33, 4), (64, 6)])
def test_hash_bits_match_popcount_oracle_across_word_boundaries(ell, r):
    # point counts straddle the 8-bit and 64-bit packing boundaries; the
    # first coefficient row is all ones, so every table byte is exercised
    rng = np.random.default_rng(ell)
    top = (1 << ell) - 1
    pool = [0, top] + rng.integers(0, top, size=1022, dtype=np.uint64, endpoint=True).tolist()
    for npoints in (1, 7, 8, 63, 64, 65, 130, 1024):
        points = pool[:npoints]
        masks = point_masks(ell, r, points)
        tables = HashTables(ell, r, points)
        for nhashes in (0, 1, 3, 300):
            coeffs = rng.integers(0, top, size=(nhashes, r), dtype=np.uint64, endpoint=True)
            coeffs[:1] = top
            table = tables.hash_bits(seed_bits(coeffs, ell))
            assert table.shape == (nhashes, npoints) and table.dtype == np.uint8
            assert np.array_equal(table, _and_xor_popcount_bits(coeffs, masks))
            for k in range(min(nhashes, 3)):
                h = HashFunction(BinaryField(ell), coeffs[k].tolist())
                assert table[k, :130].tolist() == [h(x) for x in points[:130]]


@pytest.mark.parametrize("ell", [1, 3, 7, 8, 10, 16, 63, 64])
def test_seed_tables_match_horner_and_coefficient_tables(ell):
    # r * ell runs over values that are not multiples of 8 (every ell but 8
    # and 16 gives one) and point counts over values that are not multiples
    # of 8 or 64; the seed tables equal the per-coefficient-byte pipeline on
    # every seed and scalar Horner on the first few
    rng = np.random.default_rng(100 + ell)
    top = (1 << ell) - 1
    for r in sorted({1, min(3, top + 1), min(5, top + 1), min(9, top + 1)}):
        for npoints in (1, 3, 13, 71, 130):
            points = [0, top][:npoints] + rng.integers(
                0, top, size=max(0, npoints - 2), dtype=np.uint64, endpoint=True).tolist()
            tables = HashTables(ell, r, points)
            seeds = rng.integers(0, 2, size=(37, r * ell), dtype=np.uint8)
            seeds[0] = 1  # XORs every row of every seed byte's table
            got = tables.hash_bits(seeds)
            assert got.shape == (37, len(points)) and got.dtype == np.uint8
            assert np.array_equal(got, seed_hash_bits(ell, r, points, seeds))
            for k in range(3):
                h = HashFunction(BinaryField(ell), coeffs_from_seed_bits(seeds[k], ell).tolist())
                assert got[k].tolist() == [h(x) for x in points]


@seed(5)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 3, 7, 8, 10, 16, 63, 64]), st.integers(min_value=1, max_value=11),
       st.integers(min_value=1, max_value=150), st.integers(min_value=0))
def test_seed_tables_match_coefficient_tables(ell, r, npoints, entropy):
    r = min(r, 1 << ell)
    rng = np.random.default_rng(entropy)
    points = rng.integers(0, (1 << ell) - 1, size=npoints, dtype=np.uint64, endpoint=True).tolist()
    seeds = rng.integers(0, 2, size=(5, r * ell), dtype=np.uint8)
    got = HashTables(ell, r, points).hash_bits(seeds)
    assert np.array_equal(got, seed_hash_bits(ell, r, points, seeds))
    h = HashFunction(BinaryField(ell), coeffs_from_seed_bits(seeds[0], ell).tolist())
    assert got[0].tolist() == [h(x) for x in points]


def test_field_irreducibility_check_is_cached_and_still_rejects(monkeypatch):
    BinaryField(12)
    before = hashfam._has_nontrivial_factor.cache_info().hits
    BinaryField(12)
    assert hashfam._has_nontrivial_factor.cache_info().hits == before + 1
    monkeypatch.setitem(IRREDUCIBLE_POLY, 4, 0x11)  # x^4 + 1 = (x + 1)^4
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible"):
            BinaryField(4)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_serialization_known_bytes():
    h = HashFunction(BinaryField(9), [0x1FF, 0x002])
    blob = h.to_bytes()
    assert blob == bytes([9]) + (2).to_bytes(2, "big") + b"\x01\xff" + b"\x00\x02"
    assert HashFunction.from_bytes(blob) == h


@seed(1)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=6), st.integers(min_value=0))
def test_serialization_round_trip(ell, r, entropy):
    h = sample_hash(ell, min(r, 1 << min(ell, 3)), np.random.default_rng(entropy))
    assert HashFunction.from_bytes(h.to_bytes()) == h


def test_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        HashFunction.from_bytes(b"\x04")
    good = sample_hash(4, 3, np.random.default_rng(1)).to_bytes()
    with pytest.raises(ValueError):
        HashFunction.from_bytes(good + b"\x00")
    with pytest.raises(ValueError):
        HashFunction.from_bytes(good[:-1])


def test_coefficient_range_enforced():
    F = BinaryField(3)
    with pytest.raises(ValueError):
        HashFunction(F, [8])
    with pytest.raises(ValueError):
        HashFunction(F, [])
