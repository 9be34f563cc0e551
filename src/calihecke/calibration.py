"""Classification of calibrated labels: border multisets, FLOTW and Cali
tests, enumeration, and construction of charged multipartitions from
semi-infinite Young diagrams (staircase splittings)."""

from .crystal import reachable_by_size
from .multipartitions import Charge, charged_content, is_cylindrical_charge, residue


def border_multiset(mp, ch):
    """Charged contents of each row's last box, as a sorted tuple (with
    multiplicities)."""
    out = []
    for m, comp in enumerate(mp, start=1):
        for r, row_len in enumerate(comp, start=1):
            out.append(charged_content((r, row_len, m), ch))
    return tuple(sorted(out))


def reading_word(mp, ch):
    """Per-component increasing listings of border contents, concatenated."""
    word = []
    for m, comp in enumerate(mp, start=1):
        contents = [charged_content((r, comp[r - 1], m), ch) for r in range(1, len(comp) + 1)]
        word.extend(sorted(contents))
    return tuple(word)


def is_increasing(word):
    return all(word[i] < word[i + 1] for i in range(len(word) - 1))


def has_period_at_most_e(border, e):
    if not border:
        return True
    return max(border) - min(border) <= e - 1


def is_flotw(mp, ch):
    """Cylindrical charge, cylindrical multipartition, and no row length
    whose rightmost-box residues cover all of Z/eZ."""
    if not is_cylindrical_charge(ch):
        return False
    if not _is_cylindrical_mp(mp, ch):
        return False
    res_by_length = {}
    for m, comp in enumerate(mp, start=1):
        for r, row_len in enumerate(comp, start=1):
            if row_len > 0:
                res_by_length.setdefault(row_len, set()).add(residue((r, row_len, m), ch))
    return all(len(v) < ch.e for v in res_by_length.values())


def _row(comp, k):
    return comp[k - 1] if 1 <= k <= len(comp) else 0


def _is_cylindrical_mp(mp, ch):
    """lambda^m_k >= lambda^{m+1}_{k + shift} for each of the ell cyclic
    neighbour pairs (m, m+1 mod ell): shift = s_{m+1} - s_m, and
    e + s_1 - s_ell for the wrap-around pair (ell, 1)."""
    s, e, ell = ch.s, ch.e, len(mp)
    for m in range(ell):
        shift = s[m + 1] - s[m] if m + 1 < ell else e + s[0] - s[-1]
        comp, nxt = mp[m], mp[(m + 1) % ell]
        for k in range(1, len(nxt) + len(comp) + 1):
            if _row(comp, k) < _row(nxt, k + shift):
                return False
    return True


def _nonempty_indices(mp):
    return [j for j in range(1, len(mp) + 1) if mp[j - 1]]


def _co_bottom_left(mp, ch, j):
    """Charged content of the leftmost box of the bottom row of component j."""
    h = len(mp[j - 1])
    return ch.s[j - 1] + 1 - h


def is_cylindrical_mp_via_lemma(mp, ch):
    """Cylindricity test assuming the border has period <= e and an
    increasing reading word: compare charges against bottom-left contents."""
    word = reading_word(mp, ch)
    if not (has_period_at_most_e(border_multiset(mp, ch), ch.e) and is_increasing(word)):
        raise ValueError("lemma form requires period <= e and increasing word")
    nonempty = _nonempty_indices(mp)
    if not nonempty:
        return True
    for j in nonempty:
        if j >= 2 and not ch.s[j - 2] < _co_bottom_left(mp, ch, j):
            return False
    j0 = nonempty[0]
    return ch.s[-1] < _co_bottom_left(mp, ch, j0) + ch.e


def is_cali(mp, ch):
    """Border has period <= e, reading word strictly increasing, and the
    multipartition is FLOTW (cylindrical plus the row-residue covering
    condition; covering can only fail here when the border fills a full
    window of e consecutive contents)."""
    if not is_cylindrical_charge(ch):
        raise ValueError("is_cali requires a cylindrical charge")
    border = border_multiset(mp, ch)
    if not has_period_at_most_e(border, ch.e):
        return False
    if not is_increasing(reading_word(mp, ch)):
        return False
    return is_flotw(mp, ch)


def enumerate_cali(n, ch):
    """All Cali multipartitions of size n, found by filtering the crystal
    BFS layer (Cali members are always reachable)."""
    return sorted(mp for mp in reachable_by_size(n, ch)[n] if is_cali(mp, ch))


# ---------------------------------------------------------------------------
# Staircase splittings of a semi-infinite Young diagram.
#
# For a duplicate-free border set I = {i_h < ... < i_1} the diagram Ytilde(I)
# has rows x = 1..h with boxes (x, y), y <= i_x + x, content y - x.  A
# splitting repeatedly cuts off a charged component from the bottom:
# choose s_1 <= i_h and a box b_1 = (x_1, y_1) of content s_1; the first
# component is everything weakly below-right of b_1.  At each later step
# choose s_{i-1} < s_i < alpha + e (alpha = content of the first component's
# bottom-left box) and a box b_i = (x_i, y_i) with content s_i, x_i < x_{i-1}
# and y_i >= y_{i-1} (forced to the top row when s_i = alpha + e - 1); the
# i-th component is the band of rows x_i .. x_{i-1} - 1 starting at y_i.


def _component_from_band(border_rows, x_top, x_bottom, y_start):
    """Partition with rows x_top..x_bottom of Ytilde cut at column y_start."""
    return tuple(border_rows[x - 1] + x - y_start + 1 for x in range(x_top, x_bottom + 1))


def charged_splittings_of_border(I, ell, e):
    """All charged splittings of Ytilde(I) into at most ell components.

    Returns a sorted list of (multipartition, charge) pairs; every output
    satisfies is_cali and has border multiset equal to I.
    """
    if len(I) != len(set(I)):
        raise ValueError("border set must be duplicate-free")
    I = sorted(I)
    if not I:
        return []
    h = len(I)
    if len(I) >= e or max(I) - min(I) >= e:
        raise ValueError("need |I| < e and max(I) - min(I) < e")
    border_rows = list(reversed(I))  # border_rows[x-1] = i_x, decreasing in x
    results = set()

    def extend(parts, charges, x_prev, y_prev, alpha):
        # parts/charges built bottom-up so far; component above must occupy
        # rows x < x_prev starting at column >= y_prev
        if x_prev == 1:
            results.add((tuple(parts), tuple(charges)))
            return
        if len(parts) == ell:
            return
        for x in range(1, x_prev):
            for si in range(charges[-1] + 1, alpha + e):
                y = si + x
                if y < y_prev or y > border_rows[x - 1] + x:
                    continue
                if si == alpha + e - 1 and x != 1:
                    continue
                comp = _component_from_band(border_rows, x, x_prev - 1, y)
                if any(part <= 0 for part in comp):
                    continue
                extend(parts + [comp], charges + [si], x, y, alpha)

    for x1 in range(1, h + 1):
        # the first component must reach the bottom row and keep every one of
        # its rows nonempty; s1 is bounded below to keep the search finite
        s1_max = min(border_rows[x - 1] + x for x in range(x1, h + 1)) - x1
        for s1 in range(I[0] - h + 1, s1_max + 1):
            y1 = s1 + x1
            comp = _component_from_band(border_rows, x1, h, y1)
            alpha = y1 - h  # content of the bottom-left box of component 1
            extend([comp], [s1], x1, y1, alpha)

    out = []
    for mp, s in sorted(results):
        out.append((mp, Charge(s, e)))
    return out


def skew_shape(mp, ch):
    """Forget components: stack the components of a Cali multipartition into
    a single skew diagram, returned as a tuple of (row_start_content,
    row_end_content) pairs, top row first."""
    if not is_cali(mp, ch):
        raise ValueError("skew_shape requires a Cali multipartition")
    rows = []
    for m, comp in enumerate(mp, start=1):
        for r, row_len in enumerate(comp, start=1):
            start = charged_content((r, 1, m), ch)
            end = charged_content((r, row_len, m), ch)
            rows.append((start, end))
    # stack so that end contents decrease from top to bottom
    rows.sort(key=lambda se: -se[1])
    return tuple(rows)


def pad_with_empty_components(mp, ch, ell):
    """All ways of inserting empty components (with charges) into a Cali
    multipartition, keeping it Cali, up to ell components total.

    Candidate charges for an inserted empty component range over the window
    that can keep the padded charge cylindrical.
    """
    base = [(comp, s) for comp, s in zip(mp, ch.s)]
    lo = min(ch.s) - ch.e
    hi = max(ch.s) + ch.e
    results = set()

    def insertions(seq, budget):
        results.add(tuple(seq))
        if budget == 0:
            return
        for pos in range(len(seq) + 1):
            for sv in range(lo, hi + 1):
                cand = seq[:pos] + [((), sv)] + seq[pos:]
                s = tuple(x[1] for x in cand)
                if any(s[i] > s[i + 1] for i in range(len(s) - 1)):
                    continue
                if s[-1] >= s[0] + ch.e:
                    continue
                insertions(cand, budget - 1)

    insertions(base, ell - len(mp))
    out = []
    for seq in sorted(results):
        cand_mp = tuple(x[0] for x in seq)
        cand_ch = Charge(tuple(x[1] for x in seq), ch.e, ch.a)
        if is_cali(cand_mp, cand_ch):
            out.append((cand_mp, cand_ch))
    return out
