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
    excluded from every min/max scan).
    """

    def __init__(self, p_x_given_y, p_y, x_alphabet=None, y_alphabet=None):
        t = np.asarray(p_x_given_y, dtype=float)
        py = np.asarray(p_y, dtype=float)
        if t.ndim != 2 or py.ndim != 1 or t.shape[0] != py.size:
            raise ValueError("table must be (ny, nx) with matching p_y of length ny")
        if t.size == 0:
            raise ValueError("empty distribution table")
        if (t < 0).any() or (py < 0).any():
            raise ValueError("negative probabilities")
        if abs(py.sum() - 1.0) > SLICE_TOL:
            raise ValueError("marginal P(y) sums to %r, not 1" % (py.sum(),))
        sums = t.sum(axis=1)
        for j in range(py.size):
            if py[j] > 0 and abs(sums[j] - 1.0) > SLICE_TOL:
                raise ValueError("conditional slice y=%d sums to %r" % (j, sums[j]))
            if py[j] == 0 and abs(sums[j] - 1.0) > SLICE_TOL and sums[j] > SLICE_TOL:
                raise ValueError("zero-probability slice y=%d sums to %r (want 0 or 1)" % (j, sums[j]))
        self.p_x_given_y = t.copy()
        self.p_x_given_y.setflags(write=False)
        self.p_y = py.copy()
        self.p_y.setflags(write=False)
        self.x_alphabet = list(x_alphabet) if x_alphabet is not None else list(range(t.shape[1]))
        self.y_alphabet = list(y_alphabet) if y_alphabet is not None else list(range(t.shape[0]))
        if len(self.x_alphabet) != t.shape[1] or len(self.y_alphabet) != t.shape[0]:
            raise ValueError("alphabet sizes do not match the table shape")

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
    order = np.argsort(masses)[::-1]
    m = masses[order]
    b = budgets[order]
    # removal(h) = cum_bm[j] - h * cum_b[j] while h is in [m[j+1], m[j])
    cum_b = np.cumsum(b)
    cum_bm = np.cumsum(b * m)
    if eps <= 0:
        return float(m[0])
    for j in range(m.size):
        lower = m[j + 1] if j + 1 < m.size else 0.0
        if cum_b[j] <= 0:
            continue
        h = (cum_bm[j] - eps) / cum_b[j]
        if lower <= h <= m[j]:
            return float(max(h, 0.0))
    return 0.0


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

    The x alphabet of the result is the row-major product range(n0) x
    range(n1), which `entropy_split` knows how to take apart again.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim != 3:
        raise ValueError("joint table must have shape (nz, n0, n1)")
    nz, n0, n1 = t.shape
    pairs = [(u, v) for u in range(n0) for v in range(n1)]
    return CondDist(t.reshape(nz, n0 * n1), p_z, x_alphabet=pairs)


class SplitNotCertifiedError(ValueError):
    """Raised when no candidate C meets the splitting bound; carries the
    best certified value reached (attribute best_value)."""

    def __init__(self, message, best_value):
        super().__init__(message)
        self.best_value = best_value


def _split_sizes(p):
    pairs = p.x_alphabet
    a0, a1 = [], []
    for u, v in pairs:
        if u not in a0:
            a0.append(u)
        if v not in a1:
            a1.append(v)
    if len(a0) * len(a1) != len(pairs):
        raise ValueError("x alphabet is not a product of two alphabets")
    expect = [(u, v) for u in a0 for v in a1]
    if expect != list(pairs):
        raise ValueError("x alphabet is not in row-major product order")
    return a0, a1


def _hidden_table(p, q_c1):
    """Conditional table of the hidden variable X_{1-C} given (Z, C).

    q_c1[x0, x1, z] = Pr(C=1 | x0, x1, z).  The hidden alphabet is the
    disjoint union of the X1 values (under C=0) and X0 values (under C=1);
    the Y alphabet is Z x {0, 1}.  Returns a CondDist.
    """
    a0, a1 = _split_sizes(p)
    n0, n1, nz = len(a0), len(a1), p.ny
    joint = p.p_x_given_y.reshape(nz, n0, n1)  # P(x0, x1 | z)
    q = np.asarray(q_c1, dtype=float)
    if q.shape != (n0, n1, nz):
        raise ValueError("C assignment must have shape (n0, n1, nz) = %r" % ((n0, n1, nz),))
    if (q < 0).any() or (q > 1).any():
        raise ValueError("C assignment entries must lie in [0, 1]")
    qz = np.moveaxis(q, 2, 0)  # (nz, n0, n1)
    nv = n0 + n1
    table = np.zeros((2 * nz, nv))
    p_yc = np.zeros(2 * nz)
    for zi in range(nz):
        w0 = joint[zi] * (1.0 - qz[zi])  # P(x0, x1, C=0 | z)
        w1 = joint[zi] * qz[zi]
        pc0 = w0.sum()
        pc1 = w1.sum()
        p_yc[2 * zi] = p.p_y[zi] * pc0
        p_yc[2 * zi + 1] = p.p_y[zi] * pc1
        if pc0 > 0:
            table[2 * zi, n0:] = w0.sum(axis=0) / pc0  # hidden X1
        if pc1 > 0:
            table[2 * zi + 1, :n0] = w1.sum(axis=1) / pc1  # hidden X0
    hidden_alphabet = [("x0", u) for u in a0] + [("x1", v) for v in a1]
    y_alphabet = [(z, c) for z in p.y_alphabet for c in (0, 1)]
    return CondDist(table, p_yc, x_alphabet=hidden_alphabet, y_alphabet=y_alphabet)


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
    joint_h = smoothed_min_entropy(p, eps)
    if joint_h["value"] < alpha - CERT_TOL:
        raise ValueError("joint smoothed min-entropy %g is below alpha=%g"
                         % (joint_h["value"], alpha))
    a0, a1 = _split_sizes(p)
    n0, n1, nz = len(a0), len(a1), p.ny
    bound = alpha / 2.0 - 1.0 - math.log2(1.0 / eps_prime)

    smoothed = p.p_x_given_y * joint_h["event"].weights  # P(E, x0, x1 | z)
    marg0 = smoothed.reshape(nz, n0, n1).sum(axis=2)  # P(E, x0 | z)
    heavy = marg0 > 2.0 ** (-alpha / 2.0)  # (nz, n0)
    q_heavy = np.zeros((n0, n1, nz))
    for zi in range(nz):
        q_heavy[:, :, zi] = np.where(heavy[zi][:, None], 0.0, 1.0)  # C=0 iff heavy

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

