"""Reference oracles for the per-outcome pipeline.

These are the kernels the current `entropy` and `otm` ones replaced, kept
here unchanged so that tests can compare the library against them bit for
bit:

- `smooth` and `cap_weights`: `entropy._smooth` with its masked live maximum
  and masked cap-weight divide, which builds the weights at every eps;
- `hidden_tables`: `entropy._hidden_tables` on a full (K, nz, n0, n1) C
  table, with both C-weighted joints alive at once;
- `certify`: `entropy._certify` on the full smoothing `_smooth`, with the
  optimal event kept on every row that does not meet its bound;
- `min_entropy`: `entropy.min_entropy` with its own live-maximum scan;
- `weights` and `fourier`: `otm._weights`, which forms each P * Pr(C=c)
  twice, and `otm._fourier`, which multiplies by sF then sG per outcome.
"""

import math

import numpy as np

from otmlab import entropy as entropy_mod


def cap_weights(level, t):
    """min(1, level / t) for tables t (B, ny, nx), one level per row; 1 where t = 0."""
    pos = t > 0
    weights = np.ones_like(t)
    np.minimum(1.0, np.divide(level[:, None, None], t, out=np.full_like(t, np.inf), where=pos),
               out=weights, where=pos)
    return weights


def smooth(t, p_y, eps):
    """Optimal eps-smoothing of tables t (B, ny, nx) with marginals p_y (B, ny):
    (value, weights, pr_event, fault), as `entropy._smooth` returns them."""
    n_rows, ny, nx = t.shape
    live_y = p_y > 0
    live = np.repeat(live_y, nx, axis=1)
    masses = t.reshape(n_rows, ny * nx)
    h = entropy_mod._waterfill_level(masses, np.repeat(p_y, nx, axis=1), live, eps)
    top = h if eps <= 0 else np.max(masses, axis=1, where=live, initial=0.0)
    fault = np.where(live_y.any(axis=1), np.where(top > 0, np.where(h > 0, 0, 3), 2), 1)
    weights = cap_weights(h, t)
    weights[~live_y] = 1.0
    pr_event = (p_y[:, :, None] * t * weights).sum(axis=(1, 2))
    value = np.array([-math.log2(x) if x > 0 else math.inf for x in h.tolist()])
    return value, weights, pr_event, fault


def hidden_tables(joint, p_z, q):
    """Tables (K, 2 nz, n0 + n1) of the hidden X_{1-C} given (Z, C) and their
    (K, 2 nz) marginals, from q made a full, C-ordered C table first."""
    q = np.ascontiguousarray(np.broadcast_to(q, np.broadcast_shapes(np.shape(joint), q.shape)),
                             dtype=float)
    k, nz, n0, n1 = q.shape
    w0 = joint * (1.0 - q)
    w1 = joint * q
    pc = np.stack([w0.sum(axis=(2, 3)), w1.sum(axis=(2, 3))], axis=2)
    marg = np.zeros((k, nz, 2, n0 + n1))
    marg[:, :, 0, n0:] = w0.sum(axis=2)
    marg[:, :, 1, :n0] = w1.sum(axis=3)
    table = np.divide(marg, pc[..., None], out=np.zeros_like(marg), where=pc[..., None] > 0)
    return table.reshape(k, 2 * nz, n0 + n1), (p_z[:, :, None] * pc).reshape(k, 2 * nz)


def certify(joint, p_z, q, eps_total, bound):
    """Certify C assignments q as `entropy._certify` did: smooth each hidden
    table in full and, where it meets the bound, swap the event for the
    cheapest witness."""
    hidden, hidden_p = entropy_mod._hidden_tables(joint, p_z, q)
    value, weights, pr_event, fault = entropy_mod._smooth(hidden, hidden_p, eps_total)
    ok = (fault == 0) & (value >= bound - entropy_mod.CERT_TOL)
    thresh = np.array([2.0 ** (-b) for b in bound.tolist()])
    cheap = entropy_mod._cap_weights(thresh, hidden)
    retained = (hidden * cheap).max(axis=(1, 2))
    cheap_value = [-math.log2(r) if 0 < r < 1 else max(b, 0.0)
                   for r, b in zip(retained.tolist(), bound.tolist())]
    cheap_pr = (hidden_p[:, :, None] * hidden * cheap).sum(axis=(1, 2))
    return {"C": q, "hidden": hidden, "hidden_p": hidden_p, "ok": ok, "fault": fault,
            "value": np.where(ok, cheap_value, value),
            "event": np.where(ok[:, None, None], cheap, weights),
            "event_probability": np.where(ok, cheap_pr, pr_event)}


def min_entropy(p):
    """-lg of the largest conditional mass over slices with P(y) > 0."""
    live = p.p_y > 0
    if not live.any():
        raise ValueError("no y value has positive probability")
    top = p.p_x_given_y[live].max()
    if top <= 0:
        raise ValueError("empty support: all conditional masses are zero")
    return -math.log2(top)


def use_old_kernels(monkeypatch):
    """Make `entropy` smooth, certify and build hidden tables with these oracles."""
    monkeypatch.setattr(entropy_mod, "_smooth", smooth)
    monkeypatch.setattr(entropy_mod, "_cap_weights", cap_weights)
    monkeypatch.setattr(entropy_mod, "_hidden_tables", hidden_tables)
    monkeypatch.setattr(entropy_mod, "_certify", certify)


def weights(P, C, E):
    """Pr(C=c | Z=M) for c = 0, 1, and the two tables P * Pr(C=c | s, t) * E[c]."""
    q = (1.0 - C, C)
    return [float((P * q[c]).sum()) for c in (0, 1)], [P * q[c] * E[c] for c in (0, 1)]


def fourier(pc, weights, sF, sG):
    """Q_c and R_c (each a length-2 list indexed by c) from the output of
    `weights` and the +-1 signs of F and G."""
    q_out = [0.0, 0.0]
    r_out = [0.0, 0.0]
    for c in (0, 1):
        if pc[c] <= 0.0:
            continue
        sign_hidden = sF[:, None] if c == 0 else sG[None, :]
        q_out[c] = float((weights[c] * sign_hidden).sum()) / pc[c]
        r_out[c] = float((weights[c] * sF[:, None] * sG[None, :]).sum()) / pc[c]
    return q_out, r_out
