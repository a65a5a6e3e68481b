"""Reference pipeline for `hashfam.HashTables`: seed bits packed into
coefficients, then evaluated from one byte table per coefficient byte.

This is the batched hash evaluator the seed-byte tables replaced, kept here
unchanged so that tests can compare the library against it bit for bit.
"""

import numpy as np

from otmlab.hashfam import point_masks


def coeffs_from_seed_bits(bits, ell):
    """Pack 0/1 seed bits, shape (..., r*ell), into (..., r) uint64 coefficients.

    Bit i*ell + b of the seed is bit b of coefficient i.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % ell != 0:
        raise ValueError("bit vector length %d not a multiple of ell=%d" % (bits.shape[-1], ell))
    grouped = bits.reshape(bits.shape[:-1] + (-1, ell)).astype(np.uint64)
    return (grouped << np.arange(ell, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


def coefficient_hash_bits(coeffs, masks):
    """Output bits of K hashes, (K, r) coefficients, at the points of `masks`:
    the XOR of r * ceil(ell/8) table rows, one per coefficient byte."""
    masks = np.asarray(masks)
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    r, n = masks.shape
    if coeffs.ndim != 2 or coeffs.shape[1] != r:
        raise ValueError("coefficients of shape %r do not match %d mask rows"
                         % (coeffs.shape, r))
    masks = masks.astype("<u8")
    nbytes = max(1, (int(np.bitwise_or.reduce(masks, axis=None, initial=0)).bit_length() + 7) // 8)
    words = (n + 63) // 64
    bits = np.unpackbits(masks.view(np.uint8).reshape(r, n, 8)[:, :, :nbytes],
                         axis=2, bitorder="little")
    packed = np.zeros((r, 8 * nbytes, 8 * words), dtype=np.uint8)
    packed[:, :, :(n + 7) // 8] = np.packbits(bits.transpose(0, 2, 1), axis=2, bitorder="little")
    rows = packed.view("<u8").reshape(r * nbytes, 8, words)
    tables = np.zeros((r * nbytes, 256, words), dtype="<u8")
    for t in range(8):
        np.bitwise_xor(tables[:, :1 << t], rows[:, t, None], out=tables[:, 1 << t:2 << t])
    index = coeffs.astype("<u8").view(np.uint8).reshape(-1, r, 8)[:, :, :nbytes]
    index = np.ascontiguousarray(index.reshape(-1, r * nbytes).T, dtype=np.intp)
    acc = np.zeros((index.shape[1], words), dtype="<u8")
    for table, byte in zip(tables, index):
        acc ^= table[byte]
    return np.unpackbits(acc.view(np.uint8), axis=1, count=n, bitorder="little")


def seed_hash_bits(ell, r, points, seeds):
    """(K, n) output bits of the hashes with (K, r*ell) 0/1 seed rows."""
    return coefficient_hash_bits(coeffs_from_seed_bits(seeds, ell), point_masks(ell, r, points))
