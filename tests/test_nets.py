import contextlib
import csv
import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings, strategies as st

from otmlab import nets
from otmlab.cli import main
from otmlab.nets import (
    _axis_values,
    _clamp01_herm2_batch,
    _pairings,
    _qubit_axis,
    _sample_two_local_stack,
    _snap,
    _snap_kraus,
    build_qubit_net,
    cardinality_bounds,
    KRAUS_BOX,
    TwoLocalNetSpec,
    sample_qubit_element,
    sample_qubit_elements,
    sample_two_local_outcome,
    separable_net,
    svd_clamp,
    two_local_net,
)
from otmlab.quantum import assemble_two_local, PovmElement, validate_povm_stack


def _opnorm_herm(x):
    return float(np.abs(np.linalg.eigvalsh(x)).max())


def _opnorm(x):
    return float(np.linalg.norm(x, 2))


def _random_u_element(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    return (q * rng.random(2)) @ q.conj().T


def _random_contraction(rng):
    """A random 4x4 operator of norm <= 1 (singular values uniform [0,1])."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _, vh = np.linalg.svd(g)
    return (u * rng.random(4)) @ vh


def _clamp_oracle(x):
    """Eigenvalue clamp of a Hermitian matrix into [0, I], the operator-norm
    projection onto U: v diag(clip(w, 0, 1)) v^dag."""
    w, v = np.linalg.eigh(x)
    return (v * np.clip(w, 0.0, 1.0)) @ v.conj().T


def _clamp(x):
    """`_clamp01_herm2_batch` on one Hermitian 2x2 matrix."""
    return _clamp01_herm2_batch(np.array(x[0, 0].real), np.array(x[1, 1].real),
                                np.array(x[0, 1]))


@contextlib.contextmanager
def _peak_below(limit):
    """Fail unless the block's tracemalloc peak stays under `limit` bytes."""
    tracemalloc.start()
    try:
        yield
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < limit, peak


def _kraus_axis(delta):
    return _axis_values(KRAUS_BOX, delta * math.sqrt(2.0))


class _KrausNetOracle:
    """The `KrausNet` class the private `_snap_kraus` replaced, as it was:
    the oracle for the snap and for the index-space size."""

    def __init__(self, delta, axis):
        self.delta = delta
        self.axis = axis

    @property
    def log2_size(self):
        return 32.0 * math.log2(self.axis.size)

    def snap_batch(self, xs):
        x = np.asarray(xs, dtype=complex)
        if x.ndim != 3 or x.shape[1:] != (4, 4):
            raise ValueError("expected a (K, 4, 4) stack, got shape %r" % (x.shape,))
        vals = self.axis[_snap(self.axis, np.stack([x.real, x.imag]))]
        return svd_clamp(vals[0] + 1j * vals[1])


def test_axis_values_spacing_and_coverage():
    spacing = 0.25 * math.sqrt(2.0)
    axis = _axis_values(math.sqrt(2.0), spacing)
    assert axis.size == int(math.floor(2.0 / 0.25)) + 1
    assert np.allclose(np.diff(axis), spacing)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-math.sqrt(2.0), math.sqrt(2.0), size=200):
        assert np.abs(axis - x).min() <= spacing / 2.0 + 1e-12


def test_axis_values_degenerate_single_point():
    axis = _axis_values(2.0, 3.0 * math.sqrt(2.0))
    assert axis.size == 1
    assert axis[0] == pytest.approx(0.0)


def test_round_into_U_fixed_points():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = _random_u_element(rng)
        assert np.abs(_clamp(x) - x).max() < 1e-12
    assert np.allclose(_clamp(2.0 * np.eye(2)), np.eye(2))
    assert np.allclose(_clamp(-np.eye(2)), np.zeros((2, 2)))


def test_round_into_U_is_operator_norm_projection():
    # the batched clamp equals the eigh oracle, which beats any sampled
    # element of U, up to numerical slack
    rng = np.random.default_rng(1)
    ys = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    ys = ys + ys.conj().transpose(0, 2, 1)
    clamped = _clamp01_herm2_batch(ys[:, 0, 0].real, ys[:, 1, 1].real, ys[:, 0, 1])
    for y, got in zip(ys, clamped):
        assert np.abs(got - _clamp_oracle(y)).max() < 1e-12
        best = _opnorm_herm(got - y)
        for _ in range(50):
            assert best <= _opnorm_herm(_random_u_element(rng) - y) + 1e-9


def test_build_qubit_net_delta_one():
    net = build_qubit_net(1.0)
    assert net.grid_params.shape == (81, 4)
    assert net.point_index.shape == (81,)
    assert len(net) <= 81
    for p in net.points:
        eig = np.linalg.eigvalsh(p.matrix)
        assert eig.min() >= -1e-10 and eig.max() <= 1.0 + 1e-10
    # the trace maps every grid point to the member it rounded to
    for i in range(81):
        a, d, rb, ib = net.grid_params[i]
        rounded = _clamp_oracle(np.array([[a, rb + 1j * ib], [rb - 1j * ib, d]]))
        assert np.abs(net.points[net.point_index[i]].matrix - rounded).max() < 1e-12


def test_build_qubit_net_cardinality_boundary():
    net = build_qubit_net(0.25)
    assert net.grid_params.shape[0] == (2 / 0.25 + 1) ** 4 == 6561
    assert len(net) <= 6561


def test_build_qubit_net_grid_cap():
    with pytest.raises(ValueError):
        build_qubit_net(0.03)  # 67^4 > 10^7
    with pytest.raises(ValueError):
        build_qubit_net(0.0)
    with pytest.raises(ValueError):
        build_qubit_net(1.5)


def test_qubit_net_snap_covering_radius():
    net = build_qubit_net(0.25)
    rng = np.random.default_rng(7)
    xs = np.stack([_random_u_element(rng) for _ in range(300)])
    for x, i in zip(xs, net.snap_indices(xs)):
        d_snap = _opnorm_herm(net.points[i].matrix - x)
        assert d_snap <= 4.0 * 0.25 + 1e-12
        # brute operator-norm scan over every member: snapping is near-optimal
        d_brute = np.abs(np.linalg.eigvalsh(net.members - x)).max(axis=1).min()
        assert d_brute <= d_snap + 1e-12


def test_separable_net_index_space():
    spec = separable_net(2, 1.0)
    assert spec.qubit_net.delta == pytest.approx(0.125)
    base = len(spec.qubit_net)
    assert spec.size == base ** 2
    assert spec.log2_size == pytest.approx(2 * math.log2(base))
    assert spec.log2_size <= cardinality_bounds(2, 1.0)["separable_log2"]
    idx = 12345 % spec.size
    factors = spec.factors_at(idx)
    assembled = spec.point(idx)
    oracle = np.kron(factors[0].matrix, factors[1].matrix)
    assert np.abs(assembled.matrix - oracle).max() < 1e-12
    with pytest.raises(ValueError):
        spec.factors_at(spec.size)


def test_separable_net_covering_telescopes():
    spec = separable_net(2, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        factors = [_random_u_element(rng) for _ in range(2)]
        idx = spec.covering_index(factors)
        snapped = spec.factors_at(idx)
        for f, s in zip(factors, snapped):
            assert _opnorm_herm(s.matrix - f) <= 4.0 * spec.qubit_net.delta + 1e-12
        target = np.kron(factors[0], factors[1])
        assert _opnorm_herm(spec.point(idx).matrix - target) <= spec.mu + 1e-12
    with pytest.raises(ValueError):
        spec.covering_index(factors[:1])


def test_separable_net_argument_guards():
    with pytest.raises(ValueError):
        separable_net(0, 1.0)
    with pytest.raises(ValueError):
        separable_net(2, 1.25)


def test_svd_clamp_behaviour():
    rng = np.random.default_rng(4)
    x = _random_contraction(rng)
    assert svd_clamp(x) is x  # identity on contractions, bit for bit
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.abs(svd_clamp(2.0 * q) - q).max() < 1e-12
    big = rng.normal(size=(4, 4)) * 5.0
    assert _opnorm(svd_clamp(big)) <= 1.0 + 1e-12
    # projection optimality against sampled contractions
    for _ in range(50):
        assert _opnorm(svd_clamp(big) - big) <= _opnorm(_random_contraction(rng) - big) + 1e-9


def test_kraus_net_snap_covering_radius():
    rng = np.random.default_rng(13)
    axis = _kraus_axis(0.1)
    xs = np.stack([_random_contraction(rng) for _ in range(100)])
    for x, y in zip(xs, _snap_kraus(axis, xs)):
        assert _opnorm(y - x) <= 8.0 * 0.1 + 1e-12
        assert _opnorm(y) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        _snap_kraus(axis, np.eye(2)[None])
    # snapping a grid-aligned contraction leaves its parameters on the grid
    vals = axis[np.abs(axis) <= 0.2]
    aligned = np.diag(vals[:1].repeat(4) if vals.size else np.zeros(4))
    snapped = _snap_kraus(axis, aligned[None])[0]
    for entry in snapped.ravel():
        assert np.abs(axis - entry.real).min() < 1e-9 or _opnorm(snapped) <= 1.0


def test_two_local_net_structure():
    spec = two_local_net(2, 1, 1.0)
    assert spec.delta == pytest.approx(1.0 / 16.0)
    assert spec.pairings == [((0, 1),)]
    n = spec.axis.size
    assert n == int(math.floor(2.0 * math.sqrt(2.0) * 16.0)) + 1 == 46
    assert spec.log2_size == pytest.approx(32.0 * math.log2(46))
    assert len(two_local_net(4, 1, 1.0).pairings) == 3
    # delta, axis and log2_size are those the spec held through KrausNet
    for m in (2, 4, 6):
        for d in (1, 2, 8):
            for mu in (1.0, 0.5, 0.1):
                spec = two_local_net(m, d, mu)
                delta = mu / (8.0 * d * m)
                oracle = _KrausNetOracle(delta, _kraus_axis(delta))
                assert spec.delta == oracle.delta
                assert spec.axis.tobytes() == oracle.axis.tobytes()
                per_layer = math.log2(len(_pairings(m))) + (m / 2) * oracle.log2_size
                assert spec.log2_size == d * per_layer


def test_two_local_net_argument_guards(monkeypatch):
    # sizes past the caps of 2-local assembly are refused before the (m-1)!!
    # perfect matchings are listed
    from otmlab import nets

    def no_pairings(m):
        raise AssertionError("the matchings of m=%d were listed" % m)

    monkeypatch.setattr(nets, "_pairings", no_pairings)
    for bad in [(3, 1, 1.0), (0, 1, 1.0), (2, 0, 1.0), (2, 1, 2.0), (8, 1, 1.0), (20, 1, 1.0),
                (2, 9, 1.0), (2, 1, 5e-324)]:
        with pytest.raises(ValueError):
            two_local_net(*bad)
    # a Kraus axis of 11.3 million values is refused before it is built
    with _peak_below(1 << 20), pytest.raises(ValueError, match="10\\^7"):
        two_local_net(2, 1, 4e-6)


def test_two_local_log2_size_below_closed_form():
    for m in (2, 4):
        for d in (1, 2):
            for mu in (1.0, 0.5, 0.25):
                spec = two_local_net(m, d, mu)
                bound = cardinality_bounds(m, mu, d=d)["two_local_log2"]
                assert spec.log2_size <= bound


def test_two_local_covering_map():
    rng = np.random.default_rng(17)
    for d in (1, 2):
        spec = two_local_net(2, d, 1.0)
        for _ in range(20):
            t = sample_two_local_outcome(2, d, rng)
            snapped = spec.covering_map(t)
            assert snapped.m == t.m and snapped.d == t.d
            for lay, slay in zip(t.layers, snapped.layers):
                assert slay.pairing == lay.pairing
            a = assemble_two_local(t).matrix
            b = assemble_two_local(snapped).matrix
            assert _opnorm_herm(b - a) <= spec.mu + 1e-12
    with pytest.raises(ValueError):
        spec.covering_map(sample_two_local_outcome(4, 1, rng))


def test_cardinality_bounds_values():
    out = cardinality_bounds(1, 1.0)
    assert out["separable_log2"] == pytest.approx(4.0 * math.log2(9.0))
    # halving mu raises the separable log2 bound by exactly 4m
    for m in (1, 2, 5):
        a = cardinality_bounds(m, 1.0)["separable_log2"]
        b = cardinality_bounds(m, 0.5)["separable_log2"]
        assert b - a == pytest.approx(4.0 * m)
    two = cardinality_bounds(2, 0.5, d=3)
    assert two["two_local_log2"] == pytest.approx(
        16.0 * 2 * 3 * math.log2(24.0 * 3 * 2 ** (17.0 / 16.0) / 0.5))
    with pytest.raises(ValueError):
        cardinality_bounds(2, 1.5)
    with pytest.raises(ValueError):
        cardinality_bounds(0, 1.0)
    with pytest.raises(ValueError):
        cardinality_bounds(2, 1.0, d=0)


def test_cardinality_bounds_envelopes():
    env = {"gamma": 16.0, "k": 16, "theta": 1.0, "phi": 1.0}
    ok = cardinality_bounds(16, 1.0, d=4, envelope=env)
    assert ok["envelope_separable_log2"] == pytest.approx(16.0 * 16 ** 2)
    assert ok["envelope_separable_holds"]
    assert ok["envelope_two_local_log2"] == pytest.approx(16.0 * 16 ** 3)
    assert ok["envelope_two_local_holds"]
    tight = cardinality_bounds(16, 2.0 ** -200, envelope=env)
    assert not tight["envelope_separable_holds"]


def test_sample_helpers_land_in_their_sets():
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = sample_qubit_element(rng)
        eig = np.linalg.eigvalsh(x.matrix)
        assert eig.min() >= -1e-12 and eig.max() <= 1.0 + 1e-12
        for layer in sample_two_local_outcome(4, 2, rng).layers:
            for f in layer.factors:
                assert _opnorm(f) <= 1.0 + 1e-12


def test_net_csv_round_trip(tmp_path):
    result = CliRunner().invoke(main, [
        "nets", "--output-dir", str(tmp_path), "--family", "separable", "--m", "1",
        "--mu", "1.0", "--samples", "100", "--seed", "42"])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "nets.csv", newline="") as fh:
        got = list(csv.DictReader(fh))
    doc = json.loads((tmp_path / "nets.json").read_text())
    assert len(got) == 1
    assert got[0]["m"] == "1" and got[0]["d"] == "" and got[0]["seed"] == "42"
    assert float(got[0]["covering_radius_p99"]) == doc["covering_radius_p99"]
    assert float(got[0]["log2_enumerated"]) == doc["log2_enumerated"]


def _old_build_qubit_net(delta):
    """The per-point construction loop the array build replaced: dedup on
    the bytes of the 12-digit rounded clamp, members by first occurrence."""
    axis = _axis_values(math.sqrt(2.0), delta * math.sqrt(2.0))
    n = axis.size
    aa, dd, rb, ib = [g.ravel() for g in np.meshgrid(axis, axis, axis, axis, indexing="ij")]
    members, point_index, seen = [], np.empty(n ** 4, dtype=np.int64), {}
    for i in range(n ** 4):
        a, d, b = aa[i], dd[i], rb[i] + 1j * ib[i]
        mean, half = (a + d) / 2.0, (a - d) / 2.0
        rad = np.sqrt(half ** 2 + np.abs(b) ** 2)
        hi, lo = np.clip(mean + rad, 0.0, 1.0), np.clip(mean - rad, 0.0, 1.0)
        coef = (hi - lo) / (2.0 * rad) if rad > 1e-15 else 0.0
        base = (hi + lo) / 2.0
        c = np.array([[base + coef * half, coef * b], [coef * np.conj(b), base - coef * half]],
                     dtype=complex)
        key = np.round(c, 12).tobytes()
        if key not in seen:
            seen[key] = len(members)
            members.append((c + c.conj().T) / 2.0)
        point_index[i] = seen[key]
    return members, point_index


def _void_key_build_qubit_net(delta):
    """The array build before fingerprint grouping: one `np.unique` over each
    clamped matrix's rounded entries viewed as one 64-byte key."""
    axis = _qubit_axis(delta)
    aa, dd, rb, ib = [g.ravel() for g in np.meshgrid(axis, axis, axis, axis, indexing="ij")]
    clamped = _clamp01_herm2_batch(aa, dd, rb + 1j * ib)
    keys = np.round(clamped, 12).reshape(len(clamped), 4).view(np.dtype((np.void, 64)))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return validate_povm_stack(clamped[first[order]]), rank[inverse]


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
def test_build_qubit_net_matches_per_point_loop(delta):
    members, point_index = _old_build_qubit_net(delta)
    net = build_qubit_net(delta)
    assert np.array_equal(net.point_index, point_index)
    assert len(net.points) == len(members)
    for got, want in zip(net.points, members):
        assert got.matrix.tobytes() == want.tobytes()
    assert net.members.tobytes() == np.stack(members).tobytes()
    assert not net.members.flags.writeable


# the criterion-06 grids, delta = mu / 4m at m in {1, 2} and mu in {1, 0.8};
# 0.1 is also the grid of the README and benchmark separable commands
@pytest.mark.parametrize("delta", [0.25, 0.2, 0.125, 0.1])
def test_build_qubit_net_matches_void_key_grouping(delta, monkeypatch):
    members, point_index = _void_key_build_qubit_net(delta)
    net = build_qubit_net(delta)
    assert net.members.tobytes() == members.tobytes()
    assert net.point_index.tobytes() == point_index.tobytes()
    # one fingerprint for every row: the exactness check fails and the
    # 64-byte keys group the members
    monkeypatch.setattr(nets, "_fingerprints", lambda words: np.zeros(len(words), np.uint64))
    fallback = build_qubit_net(delta)
    assert fallback.members.tobytes() == members.tobytes()
    assert fallback.point_index.tobytes() == point_index.tobytes()


def test_group_rows_tells_signed_zeros_apart():
    # rows that differ only in the signs of two zero words (a sum of
    # word * odd constant would give them one fingerprint), or only in the
    # order of their words (an unsalted sum would)
    zero, neg = np.float64(0.0).view(np.uint64), np.float64(-0.0).view(np.uint64)
    rows = np.full((7, 8), np.float64(0.5).view(np.uint64), dtype=np.uint64)
    rows[1, [0, 3]] = neg
    rows[2, [0, 3]] = zero
    rows[3, [1, 2]] = neg
    rows[4] = rows[1]
    rows[5, [0, 3]] = [neg, zero]
    rows[6] = np.roll(rows[1], 1)
    assert np.unique(nets._fingerprints(rows)).size == 6
    first, inverse = nets._group_rows(rows)
    keys = rows.view(np.dtype((np.void, 64))).ravel()
    want_first, want_inverse = np.unique(keys, return_index=True, return_inverse=True)[1:]
    assert np.array_equal(first[inverse], want_first[want_inverse])
    assert sorted(first) == [0, 1, 2, 3, 5, 6]


@pytest.mark.parametrize("word", range(8))
def test_group_rows_falls_back_on_any_differing_word(word, monkeypatch):
    # with every fingerprint equal, the exactness check must see a
    # difference in any one word and fall back to the 64-byte keys
    monkeypatch.setattr(nets, "_fingerprints", lambda words: np.zeros(len(words), np.uint64))
    rows = np.zeros((3, 8), dtype=np.uint64)
    rows[1, word] = 1
    first, inverse = nets._group_rows(rows)
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]


def test_qubit_net_points_is_a_lazy_sequence():
    net = build_qubit_net(1.0)
    p = net.points[np.int64(3)]
    assert isinstance(p, PovmElement) and p.dim == 2
    assert not p.matrix.flags.writeable
    assert net.points[-1].matrix.tobytes() == net.members[-1].tobytes()
    assert sum(1 for _ in net.points) == len(net)
    with pytest.raises(IndexError):
        net.points[len(net)]
    with pytest.raises(TypeError):
        net.points[0:2]


def test_separable_net_is_built_on_first_use():
    spec = separable_net(4, 1.0)
    assert "qubit_net" not in vars(spec)
    with pytest.raises(ValueError, match="10\\^7"):
        separable_net(1, 0.1)  # the per-qubit grid cap fires before any grid exists
    # ... and before any axis exists: this one would hold 1.6 million values
    with _peak_below(1 << 20), pytest.raises(ValueError, match="10\\^7"):
        separable_net(2, 1e-5)
    small = separable_net(1, 1.0)
    assert small.qubit_net is small.qubit_net


def _edge_values(axis, rng, size):
    """Grid values, midpoints between them (rounding ties), the box ends,
    points past the box, and uniform draws."""
    step = axis[1] - axis[0]
    pool = np.concatenate([axis, axis[:-1] + step / 2.0, [axis[0] - step, axis[-1] + step,
                                                          -5.0, 5.0, 0.0]])
    return np.where(rng.random(size) < 0.5, rng.choice(pool, size=size),
                    rng.uniform(axis[0] - step, axis[-1] + step, size=size))


@functools.lru_cache(maxsize=None)
def _separable_net_cached(m, mu):
    return separable_net(m, mu)


@seed(5)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0), st.sampled_from([(1, 1.0), (2, 1.0), (3, 0.9)]))
def test_covering_indices_equal_batch_of_one(entropy, shape):
    spec = _separable_net_cached(*shape)
    m = spec.m
    rng = np.random.default_rng(entropy)
    k = 12
    stack = _edge_values(spec.qubit_net.axis, rng, (k, m, 2, 2)) \
        + 1j * _edge_values(spec.qubit_net.axis, rng, (k, m, 2, 2))
    stack[:k // 2] = [[_random_u_element(rng) for _ in range(m)] for _ in range(k // 2)]
    got = spec.covering_indices(stack)
    assert got.shape == (k,)
    for row, idx in zip(stack, got):
        assert idx == spec.covering_index(list(row))
        net = spec.qubit_net
        assert [f.matrix.tobytes() for f in spec.factors_at(int(idx))] == [
            net.members[net.snap_indices(f[None])[0]].tobytes() for f in row]


def test_build_kraus_net_tiny_grid_materializes():
    # delta = 3 spaces the axis wider than the Kraus box: one point, zero
    spec = TwoLocalNetSpec(2, 1, 48.0)  # delta = mu/(8dm) = 3
    assert spec.delta == 3.0
    assert spec.axis.size == 1
    assert spec.axis[0] == 0.0
    assert spec.log2_size == 0.0
    rng = np.random.default_rng(4)
    stack = np.stack([_random_contraction(rng) for _ in range(3)] + [np.eye(4)])
    assert np.allclose(_snap_kraus(spec.axis, stack), np.zeros((4, 4, 4)))


@seed(7)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0), st.sampled_from([0.1, 0.5, 3.0]))
def test_snap_batch_equals_batch_of_one(entropy, delta):
    axis = _kraus_axis(delta)
    rng = np.random.default_rng(entropy)
    k = 10
    pool = axis if axis.size > 1 else np.array([-1.0, 0.0, 1.0])
    stack = _edge_values(pool, rng, (k, 4, 4)) + 1j * _edge_values(pool, rng, (k, 4, 4))
    stack[:k // 2] = [_random_contraction(rng) for _ in range(k // 2)]
    got = _snap_kraus(axis, stack)
    assert got.dtype == complex and got.shape == (k, 4, 4)
    # the private snap is the deleted KrausNet.snap_batch, byte for byte
    assert got.tobytes() == _KrausNetOracle(delta, axis).snap_batch(stack).tobytes()
    for i, snapped in enumerate(got):
        assert snapped.tobytes() == _snap_kraus(axis, stack[i:i + 1])[0].tobytes()
        assert _opnorm(snapped) <= 1.0 + 1e-12


def test_batched_snaps_reject_bad_stacks():
    spec = separable_net(2, 1.0)
    with pytest.raises(ValueError):
        spec.covering_indices(np.zeros((3, 1, 2, 2)))
    with pytest.raises(ValueError):
        spec.covering_indices(np.full((1, 2, 2, 2), np.nan))
    with pytest.raises(ValueError, match="2x2"):
        spec.qubit_net.snap_indices(np.zeros((3, 4)))
    axis = two_local_net(2, 1, 1.0).axis
    for bad in (np.zeros((4, 4)), np.zeros((1, 2, 2)), np.full((1, 4, 4), np.nan)):
        with pytest.raises(ValueError):
            _snap_kraus(axis, bad)


def test_covering_distances_match_one_at_a_time_path():
    spec = separable_net(2, 1.0)
    got = spec.covering_distances(40, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for dist in got:
        factors = [sample_qubit_element(rng) for _ in range(2)]
        target = np.kron(factors[0].matrix, factors[1].matrix)
        snapped = spec.point(spec.covering_index(factors)).matrix
        assert dist == np.linalg.norm(validate_povm_stack(target[None])[0] - snapped, 2)
    spec = two_local_net(4, 2, 1.0)
    got = spec.covering_distances(15, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    for dist in got:
        t = sample_two_local_outcome(4, 2, rng)
        a = assemble_two_local(t).matrix
        b = assemble_two_local(spec.covering_map(t)).matrix
        assert dist == np.linalg.norm(a - b, 2)
        assert dist <= spec.mu + 1e-12


def _oracle_qubit_elements(rng, count, m):
    """The per-element draw loop: two (2, 2) normal calls and random(2)."""
    g = np.empty((count * m, 2, 2), dtype=complex)
    lam = np.empty((count * m, 2))
    for i in range(count * m):
        g[i] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lam[i] = rng.random(2)
    return validate_povm_stack(nets._qubit_elements(g, lam)).reshape(count, m, 2, 2)


def _oracle_two_local_stack(m, d, count, rng):
    """The per-factor draw loop: integers per layer, then two (4, 4) normal
    calls and random(4) per factor."""
    npairings = len(_pairings(m))
    choice = np.empty((count, d), dtype=np.int64)
    g = np.empty((count, d, m // 2, 4, 4), dtype=complex)
    sv = np.empty((count, d, m // 2, 4))
    for k in range(count):
        for layer in range(d):
            choice[k, layer] = rng.integers(0, npairings)
            for j in range(m // 2):
                g[k, layer, j] = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                sv[k, layer, j] = rng.random(4)
    return choice, nets._contractions(g, sv)


@pytest.mark.parametrize("count", [1, 7, 5000])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sample_qubit_elements_match_per_element_loop(count, m):
    rng, oracle = np.random.default_rng(100 * count + m), np.random.default_rng(100 * count + m)
    got = sample_qubit_elements(rng, count, m)
    want = _oracle_qubit_elements(oracle, count, m)
    assert got.shape == (count, m, 2, 2)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("d", [1, 2])
def test_sample_two_local_stack_matches_per_factor_loop(m, d):
    rng, oracle = np.random.default_rng(10 * m + d), np.random.default_rng(10 * m + d)
    choice, factors = _sample_two_local_stack(m, d, 300, rng)
    want_choice, want_factors = _oracle_two_local_stack(m, d, 300, oracle)
    assert choice.tobytes() == want_choice.tobytes()
    assert factors.tobytes() == want_factors.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


_README_NETS = [
    ["--family", "separable", "--m", "2", "--mu", "0.8", "--samples", "5000", "--seed", "3"],
    ["--family", "two-local", "--m", "2", "--d", "1", "--mu", "1.0", "--samples", "2000",
     "--seed", "3", "--out", "tl"],
]


def test_nets_artifacts_are_pinned(tmp_path):
    # the README's two nets commands; the digests are those of the
    # per-element samplers, LAPACK 2x2 spectra and 64-byte-key grouping
    for args in _README_NETS:
        result = CliRunner().invoke(main, ["nets", "--output-dir", str(tmp_path)] + args)
        assert result.exit_code == 0, result.output
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("nets.csv", "nets.json", "tl.csv", "tl.json")} == {
        "nets.csv": "e535e60e6f1c0f1cca916b148cef6706f1157334cb49213178212d31e8cc4f95",
        "nets.json": "0b75846b48945d07ed6865d559e54a352d688e8483869e5556294f06f694851b",
        "tl.csv": "2b1a6930f80456d46784e91fd9c96047f59ca724cc71b2408fa3cd64659c006c",
        "tl.json": "92f49b19bb6e20a9f5dfedd57df2a9fb2e82f2fa4e34620385c0d34b5eba1352",
    }


def test_nets_manifest_counts_samples_and_net_members(tmp_path):
    for args in _README_NETS:
        result = CliRunner().invoke(main, ["nets", "--output-dir", str(tmp_path)] + args)
        assert result.exit_code == 0, result.output
    separable = json.loads((tmp_path / "nets_manifest.json").read_text())
    assert separable["counters"] == {
        "samples": 5000, "grid_points": 20 ** 4, "members": 70526,
        "dedup_ratio": 70526 / 20 ** 4}
    assert json.loads((tmp_path / "tl_manifest.json").read_text())["counters"] == {
        "samples": 2000}
    # the counters live in the manifest only
    assert "samples" not in json.loads((tmp_path / "nets.json").read_text())
