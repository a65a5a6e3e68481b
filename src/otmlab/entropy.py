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
"""

import math

import numpy as np

SLICE_TOL = 1e-12
CERT_TOL = 1e-9


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


class SmoothingEvent:
    """Retention weights w(x, y) = Pr(E | X=x, Y=y), each in [0, 1]."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if (w < -SLICE_TOL).any() or (w > 1.0 + SLICE_TOL).any():
            raise ValueError("event weights must lie in [0, 1]")
        self.weights = np.clip(w, 0.0, 1.0)
        self.weights.setflags(write=False)

    def __repr__(self):
        return "SmoothingEvent(shape=%r)" % (self.weights.shape,)


def min_entropy(p):
    """-lg of the largest conditional mass over slices with P(y) > 0.

    Parameters
    ----------
    p : CondDist

    Returns
    -------
    float (bits)
    """
    live = p.p_y > 0
    if not live.any():
        raise ValueError("no y value has positive probability")
    top = p.p_x_given_y[live].max()
    if top <= 0:
        raise ValueError("empty support: all conditional masses are zero")
    return -math.log2(top)


def _waterfill_level(masses, budgets, eps):
    """Smallest cap h with sum_i budgets_i * (masses_i - h)_+ <= eps, exactly.

    masses are conditional cell values, budgets the P(y) weight of each
    cell's slice.  Removal is piecewise linear and decreasing in h, so the
    level solves one segment equation.
    """
    if eps <= 0:
        return float(masses.max())
    order = np.argsort(masses)[::-1]
    m = masses[order]
    b = budgets[order]
    # removal(h) = cum_bm[j] - h * cum_b[j] while h is in [m[j+1], m[j])
    cum_b = np.cumsum(b)
    cum_bm = np.cumsum(b * m)
    live = cum_b > 0
    h = np.divide(cum_bm - eps, cum_b, out=np.zeros_like(cum_b), where=live)
    lower = np.append(m[1:], 0.0)
    hit = np.flatnonzero(live & (lower <= h) & (h <= m))
    return float(max(h[hit[0]], 0.0)) if hit.size else 0.0


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
        event : SmoothingEvent witnessing it; Pr(event) >= 1 - eps - 1e-12
            and every smoothed mass P(x|y) w(x,y) is <= 2^{-value}
        event_probability : float
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps=%r outside [0, 1)" % (eps,))
    live = p.p_y > 0
    if not live.any():
        raise ValueError("no y value has positive probability")
    t = p.p_x_given_y
    budgets = np.repeat(p.p_y, p.nx).reshape(p.ny, p.nx)
    flat_m = t[live].ravel()
    flat_b = budgets[live].ravel()
    if flat_m.max() <= 0:
        raise ValueError("empty support: all conditional masses are zero")
    h = _waterfill_level(flat_m, flat_b, eps)
    weights = np.ones_like(t)
    pos = t > 0
    np.minimum(1.0, np.divide(h, t, out=np.full_like(t, np.inf), where=pos), out=weights, where=pos)
    weights[~live, :] = 1.0  # dead slices carry no probability; keep E there
    pr_event = float((p.p_y[:, None] * t * weights).sum())
    if h <= 0:
        raise ValueError("smoothing removed the entire distribution (eps=%r)" % (eps,))
    return {
        "value": -math.log2(h),
        "event": SmoothingEvent(weights),
        "event_probability": pr_event,
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


def _split_sizes(p):
    if p.pair_shape is None:
        raise ValueError("entropy splitting needs a joint over pairs (x0, x1), "
                         "as built by joint_cond_dist")
    return p.pair_shape


def _hidden_table(p, q_c1):
    """Conditional table of the hidden variable X_{1-C} given (Z, C).

    q_c1[x0, x1, z] = Pr(C=1 | x0, x1, z).  Columns are [x0 | x1]: the X0
    values (hidden under C=1), then the X1 values (hidden under C=0).  Rows
    are (z, C=0), (z, C=1) for each z in turn.  Returns a CondDist.
    """
    n0, n1 = _split_sizes(p)
    nz = p.ny
    joint = p.p_x_given_y.reshape(nz, n0, n1)  # P(x0, x1 | z)
    q = np.asarray(q_c1, dtype=float)
    if q.shape != (n0, n1, nz):
        raise ValueError("C assignment must have shape (n0, n1, nz) = %r" % ((n0, n1, nz),))
    if (q < 0).any() or (q > 1).any():
        raise ValueError("C assignment entries must lie in [0, 1]")
    qz = np.ascontiguousarray(np.moveaxis(q, 2, 0))  # (nz, n0, n1), sums run row-major
    w0 = joint * (1.0 - qz)  # P(x0, x1, C=0 | z)
    w1 = joint * qz
    pc = np.stack([w0.reshape(nz, -1).sum(axis=1), w1.reshape(nz, -1).sum(axis=1)], axis=1)
    marg = np.zeros((nz, 2, n0 + n1))
    marg[:, 0, n0:] = w0.sum(axis=1)  # hidden X1
    marg[:, 1, :n0] = w1.sum(axis=2)  # hidden X0
    table = np.divide(marg, pc[:, :, None], out=np.zeros_like(marg), where=pc[:, :, None] > 0)
    return CondDist(table.reshape(2 * nz, n0 + n1), (p.p_y[:, None] * pc).ravel())


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
    fallback); if none certifies, SplitNotCertifiedError carries the best
    value reached.

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
    if not (0.0 < eps_prime < 1.0):
        raise ValueError("eps_prime=%r outside (0, 1)" % (eps_prime,))
    n0, n1 = _split_sizes(p)
    nz = p.ny
    joint_h = smoothed_min_entropy(p, eps)
    if joint_h["value"] < alpha - CERT_TOL:
        raise ValueError("joint smoothed min-entropy %g is below alpha=%g"
                         % (joint_h["value"], alpha))
    bound = alpha / 2.0 - 1.0 - math.log2(1.0 / eps_prime)

    smoothed = p.p_x_given_y * joint_h["event"].weights  # P(E, x0, x1 | z)
    marg0 = smoothed.reshape(nz, n0, n1).sum(axis=2)  # P(E, x0 | z)
    heavy = marg0 > 2.0 ** (-alpha / 2.0)  # (nz, n0)
    q_heavy = np.where(np.broadcast_to(heavy.T[:, None, :], (n0, n1, nz)), 0.0, 1.0)  # C=0 iff heavy

    eps_total = eps + eps_prime
    if eps_total >= 1.0:
        raise ValueError("eps + eps_prime = %r leaves no probability to keep" % (eps_total,))

    def certify(q, rule):
        hidden = _hidden_table(p, q)
        res = smoothed_min_entropy(hidden, eps_total)
        value, weights, pr_event = res["value"], res["event"].weights, res["event_probability"]
        if value >= bound - CERT_TOL:
            # Witness the bound with the cheapest event: clip only the masses
            # above 2^{-bound}.  This removes no more than the optimal
            # water-filling did (its level sits at or below the threshold),
            # so Pr(E) >= 1 - eps - eps' still holds, with equality to 1
            # whenever the raw masses already satisfy the bound.
            thresh = 2.0 ** (-bound)
            t = hidden.p_x_given_y
            pos = t > 0
            weights = np.ones_like(t)
            np.minimum(1.0, np.divide(thresh, t, out=np.full_like(t, np.inf),
                                      where=pos), out=weights, where=pos)
            retained = float((t * weights).max())
            value = -math.log2(retained) if 0 < retained < 1 else max(bound, 0.0)
            pr_event = float((hidden.p_y[:, None] * t * weights).sum())
        cert = {"value": value, "bound": bound, "rule": rule,
                "joint_entropy": joint_h["value"], "hidden": hidden,
                "event": weights,
                "event_probability": pr_event}
        return cert

    best_value = -math.inf
    cert = certify(q_heavy, "heaviness")
    if cert["value"] >= bound - CERT_TOL:
        return {"C": q_heavy, "certificate": cert}
    best_value = max(best_value, cert["value"])

    # exhaustive fallback: deterministic C measurable in (x0, z), then (x1, z)
    for axis, size in (("x0", n0), ("x1", n1)):
        if size * nz > 16:
            continue  # 2^(size*nz) assignments; beyond desk scale
        for code in range(1 << (size * nz)):
            q = np.zeros((n0, n1, nz))
            for zi in range(nz):
                for i in range(size):
                    bit = (code >> (zi * size + i)) & 1
                    if axis == "x0":
                        q[i, :, zi] = bit
                    else:
                        q[:, i, zi] = bit
            cert = certify(q, "exhaustive-%s" % axis)
            if cert["value"] >= bound - CERT_TOL:
                return {"C": q, "certificate": cert}
            best_value = max(best_value, cert["value"])
    raise SplitNotCertifiedError("split-not-certified: best value %g falls short of bound %g"
                                 % (best_value, bound), best_value)

