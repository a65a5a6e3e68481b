r"""Min-entropy, smoothed conditional min-entropy, and entropy splitting.

All distributions are exact finite tables.  Conditional min-entropy (base-2
throughout) of X given classical Y is

    H_inf(X|Y) = -lg max_{x, y: P(y) > 0} P(x|y),

and the epsilon-smoothed variant maximizes that over events E with
Pr(E) >= 1 - eps, where the event enters as per-cell retention weights
w(x,y) = Pr(E | X=x, Y=y):

    H_inf^eps(X|Y) = max_E  -lg max_{x,y} P(x|y) w(x,y).

The optimizer is threshold water-filling: cap every conditional mass at a
level h chosen so the removed joint probability is exactly eps.  For any
feasible cap h the minimum achievable removal is sum_y P(y) sum_x
(P(x|y) - h)_+, a continuous decreasing piecewise-linear function of h, so
the optimum is found exactly by solving one linear segment -- no search
tolerance is involved.  (Any event with all smoothed masses <= h removes at
least that much, hence water-filling is optimal; the test suite cross-checks
against a brute-force linear program.)

Entropy splitting takes a joint (X0, X1) given Z with
H_inf^eps(X0, X1 | Z) >= alpha and constructs a choice bit C such that

    H_inf^{eps+eps'}(X_{1-C} | Z, C) >= alpha/2 - 1 - lg(1/eps').

C is assigned by a heaviness threshold on the smoothed X0 marginal; if the
recomputed certificate ever falls short, an exhaustive fallback over
deterministic assignments measurable in (x0, z) or (x1, z) runs before a
split-not-certified error is raised.

Both work on stacks: the water-filling runs row-wise over a stack of
tables, and `split_joints` splits a stack of joints, each exactly as
`entropy_split` (its one-joint form) splits it alone.  The `entropy`
sweep hands it at most STACK_CELLS cells a call (at least one joint);
`otm` hands it one posterior a call.  C is 0 or 1 and
measurable in (z, x0) or in (z, x1), so it is carried as one value per
(z, x0) or per (z, x1), and each hidden table is read off the two
C-weighted joints, formed one at a time.
"""

import math

import numpy as np

SLICE_TOL = 1e-12
CERT_TOL = 1e-9
# Cells per stacked split call (256 joints of shape (3, 8, 8)): about 0.4 MB
# per float array, so no temporary of a stacked call exceeds about 2 MB.
STACK_CELLS = 256 * 3 * 8 * 8


class CondDist:
    """Conditional distribution P(x|y) with an explicit marginal P(y).

    The table has one row per y value; rows with P(y) > 0 must sum to one
    within 1e-12, rows with P(y) = 0 may sum to zero or one (they are
    excluded from every min/max scan).  pair_shape = (n0, n1) marks X as a
    pair (x0, x1) in row-major order, column x0 * n1 + x1; `entropy_split`
    needs it.
    """

    def __init__(self, p_x_given_y, p_y, pair_shape=None):
        t = np.asarray(p_x_given_y, dtype=float)
        py = np.asarray(p_y, dtype=float)
        if not (np.isfinite(t).all() and np.isfinite(py).all()):
            raise ValueError("probabilities must be finite (no NaN or inf)")
        if t.ndim != 2 or py.ndim != 1 or t.shape[0] != py.size:
            raise ValueError("table must be (ny, nx) with matching p_y of length ny")
        if t.size == 0:
            raise ValueError("empty distribution table")
        if (t < 0).any() or (py < 0).any():
            raise ValueError("negative probabilities")
        if abs(py.sum() - 1.0) > SLICE_TOL:
            raise ValueError("marginal P(y) sums to %r, not 1" % (py.sum(),))
        sums = t.sum(axis=1)
        off = np.abs(sums - 1.0) > SLICE_TOL
        bad = np.flatnonzero(off & ((py > 0) | (sums > SLICE_TOL)))
        if bad.size:
            j = bad[0]
            if py[j] > 0:
                raise ValueError("conditional slice y=%d sums to %r" % (j, sums[j]))
            raise ValueError("zero-probability slice y=%d sums to %r (want 0 or 1)" % (j, sums[j]))
        if pair_shape is not None:
            pair_shape = tuple(int(n) for n in pair_shape)
            if len(pair_shape) != 2 or pair_shape[0] * pair_shape[1] != t.shape[1]:
                raise ValueError("pair shape %r does not match nx=%d" % (pair_shape, t.shape[1]))
        self.p_x_given_y = t.copy()
        self.p_x_given_y.setflags(write=False)
        self.p_y = py.copy()
        self.p_y.setflags(write=False)
        self.pair_shape = pair_shape

    @property
    def nx(self):
        return self.p_x_given_y.shape[1]

    @property
    def ny(self):
        return self.p_x_given_y.shape[0]

    def __repr__(self):
        return "CondDist(nx=%d, ny=%d)" % (self.nx, self.ny)


def min_entropy(p):
    """-lg of the largest conditional mass over slices with P(y) > 0.

    Parameters
    ----------
    p : CondDist

    Returns
    -------
    float (bits)
    """
    _, value, fault = _level(p.p_x_given_y[None], p.p_y[None], 0.0)
    if fault[0]:
        raise _smoothing_error(fault[0], 0.0)
    return float(value[0])


def _waterfill_level(masses, budgets, live, eps):
    """Row-wise smallest cap h with sum_i budgets_i * (masses_i - h)_+ <= eps, exactly.

    masses, budgets and live are (B, N): cell values, the P(y) weight of each
    cell's slice, and whether that slice has P(y) > 0; eps is a scalar or
    (B,).  Removal is piecewise linear and decreasing in h, so each level
    solves one segment equation.  argsort is not stable and leaves ties in
    an order that depends on the whole row, so each row is sorted as the
    array of its live cells alone; a row without any gets level 0.
    """
    n_rows = masses.shape[0]
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (n_rows,))
    level = np.max(masses, axis=1, where=live, initial=0.0)  # the level at eps <= 0
    n_live = np.where(eps > 0, live.sum(axis=1), 0)
    for n in set(n_live[n_live > 0].tolist()):
        rows = np.flatnonzero(n_live == n)
        sel = live[rows]
        m = masses[rows][sel].reshape(rows.size, n)
        b = budgets[rows][sel].reshape(rows.size, n)
        order = np.argsort(m, axis=1)[:, ::-1]
        m = np.take_along_axis(m, order, axis=1)
        b = np.take_along_axis(b, order, axis=1)
        # removal(h) = cum_bm[j] - h * cum_b[j] while h is in [m[j+1], m[j])
        cum_b = np.cumsum(b, axis=1)
        cum_bm = np.cumsum(b * m, axis=1)
        pos = cum_b > 0
        h = np.divide(cum_bm - eps[rows, None], cum_b, out=np.zeros_like(cum_b), where=pos)
        lower = np.zeros_like(m)
        lower[:, :-1] = m[:, 1:]
        hit = pos & (lower <= h) & (h <= m)
        at = h[np.arange(rows.size), hit.argmax(axis=1)]  # the first hit
        level[rows] = np.where(hit.any(axis=1), np.maximum(at, 0.0), 0.0)
    return level


def _smoothing_error(fault, eps):
    return ValueError(("no y value has positive probability",
                       "empty support: all conditional masses are zero",
                       "smoothing removed the entire distribution (eps=%r)" % (eps,))[fault - 1])


def _cap_weights(level, t):
    """min(1, level / t) for tables t (B, ny, nx), one level per row; 1 where t = 0.

    fmin drops the inf and nan that level / 0 gives, so no cell is masked."""
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.divide(level[:, None, None], t)
    return np.fmin(weights, 1.0, out=weights)


def _level(t, p_y, eps):
    """The optimal eps-smoothing level of conditional tables t (B, ny, nx)
    with marginals p_y (B, ny), per row with its entropy in bits and 0 or the
    code of its first fault (_smoothing_error).  At eps <= 0 the level is
    the live maximum."""
    n_rows, ny, nx = t.shape
    live_y = p_y > 0
    live = np.repeat(live_y, nx, axis=1)
    masses = t.reshape(n_rows, ny * nx)
    top = np.max(masses, axis=1, where=live, initial=0.0)  # the live maximum
    h = top if eps <= 0 else _waterfill_level(masses, np.repeat(p_y, nx, axis=1), live, eps)
    fault = np.where(live_y.any(axis=1), np.where(top > 0, np.where(h > 0, 0, 3), 2), 1)
    return h, np.array([-math.log2(x) if x > 0 else math.inf for x in h.tolist()]), fault


def _smooth(t, p_y, eps):
    """Optimal eps-smoothing of conditional tables t (B, ny, nx) with
    marginals p_y (B, ny).  Returns (value, weights, pr_event, fault): per
    row the entropy in bits, the witnessing retention weights, the event
    probability, and 0 or the code of its first fault (_smoothing_error)."""
    h, value, fault = _level(t, p_y, eps)
    weights = _cap_weights(h, t)
    weights[~(p_y > 0)] = 1.0  # dead slices carry no probability; keep E there
    pr_event = (p_y[:, :, None] * t * weights).sum(axis=(1, 2))
    return value, weights, pr_event, fault


def smoothed_min_entropy(p, eps):
    """Optimal eps-smoothed conditional min-entropy with a witnessing event.

    Parameters
    ----------
    p : CondDist
    eps : float in [0, 1)

    Returns
    -------
    dict with keys
        value : float, the entropy in bits
        event : read-only (ny, nx) array of the retention weights
            w(x, y) in [0, 1] witnessing it; Pr(event) >= 1 - eps - 1e-12
            and every smoothed mass P(x|y) w(x,y) is <= 2^{-value}
        event_probability : float
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps=%r outside [0, 1)" % (eps,))
    value, weights, pr_event, fault = _smooth(p.p_x_given_y[None], p.p_y[None], eps)
    if fault[0]:
        raise _smoothing_error(fault[0], eps)
    weights.setflags(write=False)
    return {
        "value": float(value[0]),
        "event": weights[0],
        "event_probability": float(pr_event[0]),
    }


def joint_cond_dist(table, p_z):
    """Package P(x0, x1 | z) (shape (nz, n0, n1)) as a CondDist over pairs.

    The result's table is (nz, n0 * n1), flattened row-major, and it carries
    pair_shape = (n0, n1), which `entropy_split` reads to take the pair
    apart again.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim != 3:
        raise ValueError("joint table must have shape (nz, n0, n1)")
    nz, n0, n1 = t.shape
    return CondDist(t.reshape(nz, n0 * n1), p_z, pair_shape=(n0, n1))


class SplitNotCertifiedError(ValueError):
    """Raised when no candidate C meets the splitting bound; carries the
    best certified value reached (attribute best_value)."""

    def __init__(self, message, best_value):
        super().__init__(message)
        self.best_value = best_value


def _hidden_tables(joint, p_z, q):
    """Tables (K, 2 nz, n0 + n1) of the hidden X_{1-C} given (Z, C), and their
    (K, 2 nz) marginals, for joints P(x0, x1 | z) stacked (or broadcast) like
    q[k, z, x0, x1] = Pr(C=1 | x0, x1, z).  q may be any array that broadcasts
    to (K, nz, n0, n1); a choice measurable in (z, x0) comes as (K, nz, n0, 1)
    and one measurable in (z, x1) as (K, nz, 1, n1), so only the two weighted
    joints are full-size.  Columns are the X0 values (hidden under C=1), then
    the X1 values; rows are (z, C=0), (z, C=1) for each z.
    """
    k, nz, n0, n1 = np.broadcast_shapes(np.shape(joint), q.shape)
    marg = np.zeros((k, nz, 2, n0 + n1))
    pc = np.zeros((k, nz, 2))
    w = joint * q  # P(x0, x1, C=1 | z)
    pc[:, :, 1], marg[:, :, 1, :n0] = w.sum(axis=(2, 3)), w.sum(axis=3)  # hidden X0
    del w  # one full-size temporary at a time
    w = joint * (1.0 - q)  # P(x0, x1, C=0 | z)
    pc[:, :, 0], marg[:, :, 0, n0:] = w.sum(axis=(2, 3)), w.sum(axis=2)  # hidden X1
    table = np.divide(marg, pc[..., None], out=np.zeros_like(marg), where=pc[..., None] > 0)
    return table.reshape(k, 2 * nz, n0 + n1), (p_z[:, :, None] * pc).reshape(k, 2 * nz)


def _certify(joint, p_z, q, eps_total, bound):
    """Certify C assignments q (stacked as in _hidden_tables, one bound each):
    recompute H_inf^{eps_total}(X_{1-C} | Z, C) from scratch and witness the
    bound with the cheapest event (split_joints keeps only rows that meet it)."""
    hidden, hidden_p = _hidden_tables(joint, p_z, q)
    _, value, fault = _level(hidden, hidden_p, eps_total)
    ok = (fault == 0) & (value >= bound - CERT_TOL)
    # Witness the bound with the cheapest event: clip only the masses above
    # 2^{-bound}.  This removes no more than the optimal water-filling did
    # (its level sits at or below the threshold), so Pr(E) >= 1 - eps - eps'
    # still holds, with equality to 1 whenever the raw masses already
    # satisfy the bound.
    thresh = np.array([2.0 ** (-b) for b in bound.tolist()])
    cheap = _cap_weights(thresh, hidden)
    retained = (hidden * cheap).max(axis=(1, 2))
    cheap_value = [-math.log2(r) if 0 < r < 1 else max(b, 0.0)
                   for r, b in zip(retained.tolist(), bound.tolist())]
    return {"C": q, "hidden": hidden, "hidden_p": hidden_p, "ok": ok, "fault": fault,
            "value": np.where(ok, cheap_value, value), "event": cheap,
            "event_probability": (hidden_p[:, :, None] * hidden * cheap).sum(axis=(1, 2))}


def _fallback(joint, p_z, eps_total, bound, best):
    """Exhaustive fallback for one joint (nz, n0, n1): each deterministic C
    measurable in (x0, z), then in (x1, z), certified a block at a time.
    Returns the rule, block and index of the first assignment that certifies
    or faults (block None if none does), the best value before it, and the
    number of assignments tried."""
    nz, n0, n1 = joint.shape
    block = max(1, STACK_CELLS // joint.size)
    tried = 0
    for axis, size in (("x0", n0), ("x1", n1)):
        if size * nz > 16:
            continue  # 2^(size*nz) assignments; beyond desk scale
        codes = np.arange(1 << (size * nz))
        for start in range(0, codes.size, block):
            bits = (codes[start:start + block, None] >> np.arange(size * nz)) & 1
            q = bits.reshape((-1, nz, size, 1) if axis == "x0" else (-1, nz, 1, size)).astype(float)
            cert = _certify(joint, p_z[None], q, eps_total, np.full(len(q), bound))
            stop = np.flatnonzero(cert["ok"] | (cert["fault"] > 0))
            j = int(stop[0]) if stop.size else len(q)
            best = max(best, float(cert["value"][:j].max(initial=-math.inf)))
            tried += min(j + 1, len(q))
            if stop.size:
                return "exhaustive-%s" % axis, cert, j, best, tried
    return None, None, None, best, tried


def split_joints(tables, p_z, alpha, eps, eps_prime):
    """Entropy splits of a stack of joints, each as `entropy_split` splits it.

    tables (B, nz, n0, n1) holds P(x0, x1 | z) and p_z (B, nz) P(z) of each
    joint, valid as CondDist checks them (not re-checked here); alpha is a
    float or None for each joint's own smoothed entropy.  Every joint is
    smoothed once, the heaviness rule is certified for the whole stack at
    once, and the fallback runs only for the joints it fails.  The first
    joint that `entropy_split` would refuse raises its error.

    C is carried as one 0/1 value per (z, x0) -- the heaviness rule and the
    x0 fallback -- or per (z, x1), the x1 fallback.

    Returns a dict of per-joint arrays: joint_entropy, alpha, bound, value,
    rule and event_probability (B,); C (B, nz, n0, n1), Pr(C=1 | z, x0, x1),
    read-only: a broadcast of the per-(z, x0) values, or one full table when
    the fallback ran for a joint of the stack; hidden (B, 2 nz, n0 + n1),
    hidden_p (B, 2 nz) and event, the table of X_{1-C} given (Z, C) with its
    certifying weights; and fallback_candidates, the number of fallback
    assignments certified.
    """
    if not (0.0 < eps_prime < 1.0):
        raise ValueError("eps_prime=%r outside (0, 1)" % (eps_prime,))
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps=%r outside [0, 1)" % (eps,))
    t, pz = np.ascontiguousarray(tables, dtype=float), np.asarray(p_z, dtype=float)
    n_rows, nz, n0, n1 = t.shape
    if eps <= 0:  # every smoothing weight is 1, so t is its own smoothing
        _, joint_h, fault = _level(t.reshape(n_rows, nz, n0 * n1), pz, eps)
        smoothed = t
    else:
        joint_h, joint_w, _, fault = _smooth(t.reshape(n_rows, nz, n0 * n1), pz, eps)
        smoothed = t * joint_w.reshape(t.shape)
    levels = joint_h.tolist() if alpha is None else [alpha] * n_rows
    bad = np.flatnonzero((fault > 0) | (joint_h < np.array(levels, dtype=float) - CERT_TOL))
    first = bad[0] if bad.size else n_rows  # the first joint that is refused
    eps_total = eps + eps_prime
    if eps_total >= 1.0 and first > 0:
        raise ValueError("eps + eps_prime = %r leaves no probability to keep" % (eps_total,))

    lg = math.log2(1.0 / eps_prime)
    bound = np.array([a / 2.0 - 1.0 - lg for a in levels[:first]])
    # C = 0 exactly where the smoothed marginal mass of the realized x0
    # exceeds 2^{-alpha/2} (a heavy x0 forces the residual entropy into X1)
    marg0 = smoothed[:first].sum(axis=3)  # P(E, x0 | z)
    heavy = marg0 > np.array([2.0 ** (-a / 2.0) for a in levels[:first]])[:, None, None]
    cert = _certify(t[:first], pz[:first], np.where(heavy, 0.0, 1.0)[..., None], eps_total, bound)
    cert["rule"] = np.full(first, "heaviness", dtype=object)
    fallback_c, tried = {}, 0
    for i in np.flatnonzero(~cert.pop("ok")):
        fail = cert["fault"][i]
        if not fail:
            rule, block, j, best, n_tried = _fallback(t[i], pz[i], eps_total, bound[i],
                                                      float(cert["value"][i]))
            tried += n_tried
            if block is None:
                raise SplitNotCertifiedError("split-not-certified: best value %g falls short "
                                             "of bound %g" % (best, bound[i]), best)
            fail, cert["rule"][i], fallback_c[i] = block["fault"][j], rule, block["C"][j]
            for key in ("hidden", "hidden_p", "value", "event", "event_probability"):
                cert[key][i] = block[key][j]
        if fail:
            raise _smoothing_error(fail, eps_total)
    if first < n_rows:
        if fault[first]:
            raise _smoothing_error(fault[first], eps)
        raise ValueError("joint smoothed min-entropy %g is below alpha=%g"
                         % (joint_h[first], levels[first]))
    del cert["fault"]
    cert["C"] = np.broadcast_to(cert["C"], (first, nz, n0, n1))
    if fallback_c:  # an x1 assignment does not fit the (z, x0) form
        cert["C"] = np.array(cert["C"])
        for i, choice in fallback_c.items():
            cert["C"][i] = choice
        cert["C"].setflags(write=False)
    return dict(cert, joint_entropy=joint_h, alpha=np.array(levels, dtype=float), bound=bound,
                fallback_candidates=tried)


def entropy_split(p, alpha, eps, eps_prime):
    """Construct a choice bit C splitting the joint min-entropy of (X0, X1).

    Requires H_inf^eps(X0, X1 | Z) >= alpha (verified; error if not).  The
    primary rule smooths the joint at eps and sets C = 0 exactly where the
    smoothed marginal mass of the realized x0 exceeds 2^{-alpha/2} (a heavy
    x0 forces the residual entropy into X1).  The certificate recomputes
    H_inf^{eps+eps'}(X_{1-C} | Z, C) from scratch on the extended alphabet
    and compares against alpha/2 - 1 - lg(1/eps').

    If the primary rule fails to certify, every deterministic assignment
    measurable in (x0, z), then in (x1, z), is tried (desk-scale exhaustive
    fallback); the first that certifies is returned.  If none does,
    SplitNotCertifiedError carries the best value reached.  This is
    `split_joints` on a stack of one joint.

    Parameters
    ----------
    p : CondDist over pairs (x0, x1) given z, as built by `joint_cond_dist`
    alpha : float, the verified joint min-entropy level
    eps : float in [0, 1), smoothing already spent on the joint
    eps_prime : float in (0, 1), fresh smoothing spent by the split

    Returns
    -------
    dict with keys
        C : array (n0, n1, nz), Pr(C=1 | x0, x1, z)
        certificate : dict with value, bound, rule, joint_entropy, plus the
            certifying machinery itself: hidden (the CondDist of X_{1-C}
            given (Z, C)), event (retention weights on that table, shape
            (2 nz, n0 + n1)) and event_probability.  The event is the
            cheapest witness of the bound -- only masses above 2^{-bound}
            are clipped -- so event_probability is 1 whenever the raw
            hidden-string masses already satisfy the bound, and value is
            the entropy actually witnessed on the event
    """
    if p.pair_shape is None:
        raise ValueError("entropy splitting needs a joint over pairs (x0, x1), "
                         "as built by joint_cond_dist")
    res = split_joints(p.p_x_given_y.reshape((1, p.ny) + p.pair_shape), p.p_y[None], alpha,
                       eps, eps_prime)
    cert = {key: float(res[key][0])
            for key in ("value", "bound", "joint_entropy", "event_probability")}
    cert.update(rule=res["rule"][0], event=res["event"][0],
                hidden=CondDist(res["hidden"][0], res["hidden_p"][0]))
    return {"C": np.moveaxis(np.array(res["C"][0]), 0, 2), "certificate": cert}
