"""Shifted affine-Weyl geometry on E_h.

A multipartition with component heights bounded by hbar = (h_1, ..., h_ell)
embeds into Z^h, h = h_1 + ... + h_ell, one coordinate per row, with the
block of component ell FIRST and component 1 last.  The shift rho lists
(s_m, s_m - 1, ..., s_m - h_m + 1) in the same block order; everything
below works with the shifted point v = lambda + rho.  Roots are
eps_i - eps_j; the hyperplanes are <x, alpha> = r*e.  The standing
assumption e > h is enforced on every entry point.
"""

from .multipartitions import tableau_boxes_by_entry, tableau_sums


def _check_frame(ch, hbar):
    if len(hbar) != len(ch.s):
        raise ValueError("hbar and charge must have the same level")
    if any(h < 0 for h in hbar):
        raise ValueError("negative height bound")
    if ch.e <= sum(hbar):
        raise ValueError("need e > h_1 + ... + h_ell")


def rho(ch, hbar):
    """(s_ell, ..., s_ell - h_ell + 1, ..., s_1, ..., s_1 - h_1 + 1)."""
    _check_frame(ch, hbar)
    out = []
    for m in range(len(hbar), 0, -1):
        out.extend(ch.s[m - 1] - k for k in range(hbar[m - 1]))
    return tuple(out)


def embed(mp, hbar):
    """Row lengths of mp in the block coordinate order, zero-padded."""
    if any(len(comp) > h for comp, h in zip(mp, hbar)):
        raise ValueError("component height exceeds hbar")
    out = []
    for m in range(len(hbar), 0, -1):
        comp = mp[m - 1]
        out.extend(comp[k] if k < len(comp) else 0 for k in range(hbar[m - 1]))
    return tuple(out)


def coord_index(r, m, hbar):
    """0-based coordinate index of row r of component m."""
    return sum(hbar[m:]) + r - 1


def reflect(v, root, r, e):
    """s_{alpha, re} v = v - (<v, alpha> - re) alpha for alpha = eps_i - eps_j."""
    i, j = root
    t = v[i] - v[j] - r * e
    out = list(v)
    out[i] -= t
    out[j] += t
    return tuple(out)


def _pairs(h):
    return [(i, j) for i in range(h) for j in range(i + 1, h)]


def in_fundamental_alcove(mp, ch, hbar):
    """Is lambda + rho in the alcove of the origin (closure-free)?

    For each positive root the inner product must avoid all hyperplanes and
    sit in the same e-window as the origin's.
    """
    p = rho(ch, hbar)
    v = tuple(a + b for a, b in zip(embed(mp, hbar), p))
    e = ch.e
    for i, j in _pairs(len(v)):
        d0 = p[i] - p[j]
        if d0 % e == 0:
            raise ValueError("origin lies on a hyperplane; charge/hbar invalid")
        d = v[i] - v[j]
        if d % e == 0 or d // e != d0 // e:
            return False
    return True


def length(mp, ch, hbar):
    """Number of hyperplanes strictly separating lambda + rho from rho."""
    p = rho(ch, hbar)
    return point_length(tuple(a + b for a, b in zip(embed(mp, hbar), p)), p, ch.e)


def point_length(v, base, e):
    """Number of hyperplanes <x, alpha> = r*e strictly separating the point
    v from the point base; neither may lie on a hyperplane."""
    total = 0
    for i, j in _pairs(len(v)):
        d0 = base[i] - base[j]
        d = v[i] - v[j]
        if d0 % e == 0 or d % e == 0:
            raise ValueError("point on a hyperplane")
        total += abs(d // e - d0 // e)
    return total


# ---------------------------------------------------------------------------
# Paths.  A path is the sequence of coordinate indices of the boxes of a
# standard tableau, read in entry order; prefix points are rho + partial sums.


def tableau_to_path(t, hbar):
    by_entry = tableau_boxes_by_entry(t)
    return tuple(coord_index(r, m, hbar) for r, c, m in
                 (by_entry[k] for k in range(1, len(by_entry) + 1)))


def path_points(p, ch, hbar):
    """rho followed by each prefix point rho + sum of steps."""
    cur = list(rho(ch, hbar))
    out = [tuple(cur)]
    for idx in p:
        cur[idx] += 1
        out.append(tuple(cur))
    return out


def path_residues(p, ch, hbar):
    """Residue of each step's box: the new coordinate value plus rho - 1."""
    base = rho(ch, hbar)
    count = [0] * len(base)
    out = []
    for idx in p:
        count[idx] += 1
        out.append((base[idx] + count[idx] - 1) % ch.e)
    return tuple(out)


def _sign(x):
    return (x > 0) - (x < 0)


def path_degree(p, ch, hbar):
    """Sum over steps and positive roots: +1 for leaving a wall toward the
    origin's side, -1 for arriving on a wall from the far side."""
    pts = path_points(p, ch, hbar)
    base = pts[0]
    e = ch.e
    pairs = _pairs(len(base))
    deg = 0
    for prev, nxt in zip(pts, pts[1:]):
        for i, j in pairs:
            dp = prev[i] - prev[j]
            dq = nxt[i] - nxt[j]
            if dp == dq:
                continue
            d0 = base[i] - base[j]
            if dp % e == 0 and _sign(dq - dp) == _sign(d0 - dp):
                deg += 1
            if dq % e == 0 and _sign(dp - dq) == -_sign(d0 - dq):
                deg -= 1
    return deg


def count_fundamental_paths(mp, ch, hbar):
    """Standard tableaux of mp all of whose prefix shapes stay in the
    fundamental alcove."""
    if not in_fundamental_alcove(mp, ch, hbar):
        raise ValueError("shape not in the fundamental alcove")
    paths = tableau_sums(keep=lambda shape: in_fundamental_alcove(shape, ch, hbar))
    return paths(mp).get(0, 0)


def b_alpha(i, ch, hbar):
    """Distance from the origin to the wall of the i-th simple root
    (i = 1..h-1 for eps_i - eps_{i+1}, i = 0 for the affine root)."""
    _check_frame(ch, hbar)
    s, e, ell = ch.s, ch.e, len(hbar)
    h = sum(hbar)
    if i == 0:
        return e + s[0] - s[-1] - hbar[-1] + 1
    if not 1 <= i < h:
        raise ValueError("simple root index out of range")
    # block boundaries: coordinate prefix h_ell + ... + h_{m+1} ends the
    # block of component m+1
    prefix = 0
    for m in range(ell - 1, 0, -1):
        prefix += hbar[m]
        if i == prefix:
            return s[m] - s[m - 1] - hbar[m - 1] + 1
    return 1
