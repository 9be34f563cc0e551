"""Shifted affine-Weyl geometry on E_h.

A multipartition with component heights bounded by hbar = (h_1, ..., h_ell)
embeds into Z^h, h = h_1 + ... + h_ell, one coordinate per row, with the
block of component ell FIRST and component 1 last.  The shift rho lists
(s_m, s_m - 1, ..., s_m - h_m + 1) in the same block order; everything
below works with the shifted point v = lambda + rho.  Roots are
eps_i - eps_j; the hyperplanes are <x, alpha> = r*e.  The standing
assumption e > h is enforced on every entry point.
"""

from functools import lru_cache

from .multipartitions import tableau_sums


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


def _fits(mp, hbar):
    """mp, once checked to have one component per entry of hbar, each no
    taller than its entry."""
    if len(mp) != len(hbar):
        raise ValueError("multipartition and hbar must have the same level")
    if any(len(comp) > h for comp, h in zip(mp, hbar)):
        raise ValueError("component height exceeds hbar")
    return mp


def embed(mp, hbar):
    """Row lengths of mp in the block coordinate order, zero-padded."""
    _fits(mp, hbar)
    out = []
    for m in range(len(hbar) - 1, -1, -1):
        out += mp[m]
        out += (0,) * (hbar[m] - len(mp[m]))
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


@lru_cache(maxsize=None)
def _pairs(h):
    """The positive roots eps_i - eps_j of Z^h as pairs i < j."""
    return tuple((i, j) for i in range(h) for j in range(i + 1, h))


@lru_cache(maxsize=None)
def _walls(ch, hbar):
    """The table of the frame (ch, hbar): rho, the windows, and the chains.

    - windows: for each positive root (i, j) the open window (lo, hi) of
      the row-length difference x_i - x_j that puts <x + rho, alpha> in the
      origin's e-window (k*e, (k+1)*e), as rows (i, j, lo, hi) with
      lo = k*e - <rho, alpha> and hi = lo + e; None when the origin lies on
      a hyperplane of any root;
    - chains: for each coordinate k, the coordinates (above, below) next
      to it in its component's block, -1 at the block's ends.  A shifted
      point is a multipartition point when it is strictly decreasing along
      each block and its last coordinate in each block is at least rho's.
    """
    p = rho(ch, hbar)
    e = ch.e
    chains = []
    for m in range(len(hbar), 0, -1):
        start, h = len(chains), hbar[m - 1]
        chains.extend((k - 1 if k > start else -1, k + 1 if k < start + h - 1 else -1)
                      for k in range(start, start + h))
    windows = []
    for i, j in _pairs(len(p)):
        d0 = p[i] - p[j]
        if d0 % e == 0:
            return p, None, tuple(chains)
        lo = d0 // e * e - d0
        windows.append((i, j, lo, lo + e))
    return p, tuple(windows), tuple(chains)


def _windows(ch, hbar):
    """The windows of the frame's wall table; ValueError when the origin
    lies on a hyperplane."""
    windows = _walls(ch, hbar)[1]
    if windows is None:
        raise ValueError("origin lies on a hyperplane; charge/hbar invalid")
    return windows


def _inside(mp, hbar, windows):
    """Does lambda + rho lie in the fundamental alcove of the frame with
    these windows?  mp must fit hbar (_fits), which is not checked: its
    rows are laid out in the block order, zero-padded, and each root's
    row-length difference is read against its window."""
    rows = ()
    for m in range(len(hbar) - 1, -1, -1):
        comp = mp[m]
        rows += comp + (0,) * (hbar[m] - len(comp))
    for i, j, lo, hi in windows:
        if not lo < rows[i] - rows[j] < hi:
            return False
    return True


def in_fundamental_alcove(mp, ch, hbar):
    """Is lambda + rho in the alcove of the origin (closure-free)?

    For each positive root the inner product must avoid all hyperplanes and
    sit in the same e-window as the origin's; the windows are read, moved
    onto row lengths, from the frame's wall table.  Raises ValueError for
    every label of a frame whose origin lies on a hyperplane, and for a
    multipartition that does not fit hbar.
    """
    hbar = tuple(hbar)
    windows = _windows(ch, hbar)
    return _inside(_fits(mp, hbar), hbar, windows)


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
    return tuple(coord_index(r, m, hbar) for r, c, m in t)


def path_points(p, ch, hbar):
    """rho followed by each prefix point rho + sum of steps."""
    cur = list(rho(ch, hbar))
    out = [tuple(cur)]
    for idx in p:
        cur[idx] += 1
        out.append(tuple(cur))
    return out


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


@lru_cache(maxsize=None)
def _path_fold(ch, hbar):
    """The fold over prefix shapes that keeps the shapes in the fundamental
    alcove of the frame (ch, hbar): fold(mp) = |Path^F(mp)|, 0 when no such
    path reaches mp.  One fold per frame, so the labels of a frame
    test each prefix shape against the alcove once between them; the KLR
    check (bgg._klr_fold) walks the down-steps it records (fold.kept)."""
    windows = _windows(ch, hbar)
    return tableau_sums(keep=lambda shape: _inside(shape, hbar, windows))


def count_fundamental_paths(mp, ch, hbar):
    """Standard tableaux of mp all of whose prefix shapes stay in the
    fundamental alcove."""
    if not in_fundamental_alcove(mp, ch, hbar):
        raise ValueError("shape not in the fundamental alcove")
    return _path_fold(ch, tuple(hbar))(mp)


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
