"""Charged multipartition combinatorics.

A multipartition is an ell-tuple of partitions, each stored as a tuple of
weakly decreasing positive integers (no trailing zeros inside a component,
but empty components are allowed and significant).  Boxes are (row, col,
component) triples, all 1-indexed.  A charge attaches an integer s_m to each
component and a quantum characteristic e; the charged content of a box
(r, c, m) is s_m + c - r and its residue is that value mod e.
"""

from functools import lru_cache
from itertools import permutations
from operator import le
from typing import NamedTuple


class Charge(NamedTuple):
    s: tuple
    e: int

    @property
    def level(self):
        return len(self.s)


def make_charge(s, e):
    s = tuple(s)
    if not s:
        raise ValueError("charge must have at least one entry")
    if any(type(x) is not int for x in s):
        raise ValueError("charge entries must be integers")
    if e < 2:
        raise ValueError("quantum characteristic e must be >= 2")
    return Charge(s, e)


def is_cylindrical_charge(ch):
    """s_1 <= s_2 <= ... <= s_ell < s_1 + e."""
    s, e = ch.s, ch.e
    return all(s[i] <= s[i + 1] for i in range(len(s) - 1)) and s[-1] < s[0] + e


def is_partition(p):
    return all(type(x) is int and x > 0 for x in p) and all(
        p[i] >= p[i + 1] for i in range(len(p) - 1)
    )


def is_multipartition(mp):
    return all(is_partition(comp) for comp in mp)


def mp_size(mp):
    return sum(sum(comp) for comp in mp)


def heights(mp):
    return tuple(len(comp) for comp in mp)


def boxes(mp):
    """All boxes of mp as (r, c, m) with r, c, m 1-indexed."""
    out = []
    for m, comp in enumerate(mp, start=1):
        for r, row_len in enumerate(comp, start=1):
            for c in range(1, row_len + 1):
                out.append((r, c, m))
    return out


def charged_content(b, ch):
    r, c, m = b
    return ch.s[m - 1] + c - r


def residue(b, ch):
    return charged_content(b, ch) % ch.e


def box_key(b, ch):
    """Sort key for the dominance order on boxes: bigger key = more dominant.

    A box is more dominant when its charged content is larger; ties are
    broken by smaller component index winning.
    """
    return (charged_content(b, ch), -b[2])


def add_box(mp, b):
    r, c, m = b
    if not (1 <= m <= len(mp) and 1 <= r <= len(mp[m - 1]) + 1):
        raise ValueError(f"box {b} not addable")
    comp = list(mp[m - 1])
    if r == len(comp) + 1:
        comp.append(0)
    # row r grows by one box and stays no longer than the row above
    if comp[r - 1] + 1 != c or (r > 1 and comp[r - 2] < c):
        raise ValueError(f"box {b} not addable")
    comp[r - 1] = c
    out = list(mp)
    out[m - 1] = tuple(comp)
    return tuple(out)


def remove_box(mp, b):
    r, c, m = b
    if not (1 <= m <= len(mp) and 1 <= r <= len(mp[m - 1])):
        raise ValueError(f"box {b} not removable")
    comp = list(mp[m - 1])
    # row r ends at column c and the row below is shorter
    if comp[r - 1] != c or (r < len(comp) and comp[r] == c):
        raise ValueError(f"box {b} not removable")
    comp[r - 1] -= 1
    if c == 1:
        comp.pop()
    out = list(mp)
    out[m - 1] = tuple(comp)
    return tuple(out)


def addable_boxes(mp, ch=None, i=None):
    """Addable boxes of mp; with a residue i (and its charge ch) only
    those of residue i."""
    out = []
    for m, comp in enumerate(mp, start=1):
        for r in range(1, len(comp) + 2):
            c = (comp[r - 1] if r <= len(comp) else 0) + 1
            if r > 1 and comp[r - 2] < c:
                continue
            b = (r, c, m)
            if i is None or residue(b, ch) == i % ch.e:
                out.append(b)
    return out


def removable_boxes(mp, ch=None, i=None):
    """Removable boxes of mp; with a residue i (and its charge ch) only
    those of residue i."""
    out = []
    for m, comp in enumerate(mp, start=1):
        for r in range(1, len(comp) + 1):
            c = comp[r - 1]
            if r < len(comp) and comp[r] == c:
                continue
            b = (r, c, m)
            if i is None or residue(b, ch) == i % ch.e:
                out.append(b)
    return out


def _slack(hbar, ch):
    """bound_m - h_m for each m, where bound_1 = e + s_1 - s_ell and
    bound_m = s_m - s_{m-1} for m > 1."""
    s, e = ch.s, ch.e
    return [(e + s[0] - s[-1] if m == 1 else s[m - 1] - s[m - 2]) - hbar[m - 1]
            for m in range(1, len(hbar) + 1)]


def is_s_admissible(hbar, ch):
    """h_m <= bound_m for every m, strictly for at least one."""
    slack = _slack(hbar, ch)
    return all(x >= 0 for x in slack) and any(x > 0 for x in slack)


def step_changes(hbar, ch):
    """Indices m where the admissibility inequality is strict."""
    return [m for m, x in enumerate(_slack(hbar, ch), start=1) if x > 0]


# ---------------------------------------------------------------------------
# Tableaux.  A tableau mirrors its shape: a tuple of components, each a tuple
# of rows, each row a tuple of entries from {1..n}.


def tableau_boxes_by_entry(t):
    """Dict entry -> box."""
    out = {}
    for m, comp in enumerate(t, start=1):
        for r, row in enumerate(comp, start=1):
            for c, k in enumerate(row, start=1):
                out[k] = (r, c, m)
    return out


def tableau_from_box_order(mp, order):
    """Build the tableau whose k-th entry sits at order[k-1]."""
    filling = [[[None] * row_len for row_len in comp] for comp in mp]
    for k, (r, c, m) in enumerate(order, start=1):
        filling[m - 1][r - 1][c - 1] = k
    return tuple(tuple(tuple(row) for row in comp) for comp in filling)


def standard_tableaux(mp):
    """Yield all standard tableaux of mp (in a deterministic order)."""
    n = mp_size(mp)
    order = []

    def rec(shape):
        if len(order) == n:
            yield tableau_from_box_order(mp, order)
            return
        for b in sorted(addable_boxes(shape)):
            r, c, m = b
            if r > len(mp[m - 1]) or c > mp[m - 1][r - 1]:
                continue  # outside the target shape
            order.append(b)
            yield from rec(add_box(shape, b))
            order.pop()

    yield from rec(tuple(() for _ in mp))


def _down_steps(shape):
    """(b, shape - b) for each removable box b of shape, in the order of
    removable_boxes: one scan, which trusts shape to be a multipartition
    and checks nothing."""
    out = []
    for m, comp in enumerate(shape):
        last = len(comp) - 1
        for r, c in enumerate(comp):
            if r < last and comp[r + 1] == c:
                continue
            # a box in column 1 is removable only from the last row
            rows = comp[:r] if c == 1 else comp[:r] + (c - 1,) + comp[r + 1:]
            out.append(((r + 1, c, m + 1), shape[:m] + (rows,) + shape[m + 1:]))
    return out


def tableau_sums(steps=None, keep=None):
    """The fold over prefix shapes behind every sum over standard tableaux.

    Returns F: shape -> {degree: count}, the number of standard tableaux of
    the shape by degree, where a tableau's degree is the sum of its step
    degrees: F(empty) = {0: 1} and F(shape) = sum over removable b of
    t^steps(shape)[b] F(shape - b).  Without steps there is no degree, and
    F(shape) is the number itself, an int.  With a predicate keep(shape),
    F(shape) = {} (or 0) when it fails, so only the tableaux all of whose
    prefix shapes satisfy keep are counted.  F memoises every prefix shape
    it meets for as long as F lives, so one F evaluated at shapes that share
    sub-shapes visits (and tests with keep) each once.  Each visit reads
    the shape's down-steps (b, shape - b) off one scan (_down_steps).

    An ungraded F with keep also has F.kept(shape): the down-steps
    (b, shape - b) whose smaller shape F reaches (F(shape - b) nonzero),
    recorded as it sums, and nothing when F(shape) is zero.  These are the
    last steps of the tableaux that F counts, so a walk over them needs no
    scan.  No other F has kept.
    """
    memo, record = {}, {}

    def fold(shape):
        out = memo.get(shape)
        if out is not None:
            return out
        if keep is not None and not keep(shape):
            out = 0 if steps is None else {}
        elif not any(shape):
            out = 1 if steps is None else {0: 1}
        elif steps is None and keep is None:
            # no record: the tableau count shares one F among all shapes, and
            # recording its steps raised the n = 36 bgg command's peak RSS
            # from 440 to 591 MB
            out = sum(fold(smaller) for _, smaller in _down_steps(shape))
        elif steps is None:
            out = 0
            kept = []
            for step in _down_steps(shape):
                x = fold(step[1])
                if x:
                    out += x
                    kept.append(step)
            record[shape] = tuple(kept)
        else:
            out = {}
            degrees = steps(shape)
            for b, smaller in _down_steps(shape):
                d = degrees[b]
                for k, x in fold(smaller).items():
                    out[k + d] = out.get(k + d, 0) + x
        memo[shape] = out
        return out

    def kept(shape):
        fold(shape)
        return record.get(shape, ())

    if steps is None and keep is not None:
        fold.kept = kept
    return fold


@lru_cache(maxsize=None)
def _count_fold():
    """The ungraded fold, one for every shape: a tableau count depends on
    nothing but the shape."""
    return tableau_sums()


def count_standard_tableaux(mp):
    return _count_fold()(mp)


def reverse_column_reading_tableau(mp, m=1):
    """The tableau filling column 1 of components m-1, m-2, ... (wrapping
    around to m), then column 2 in the same component order, and so on."""
    ell = len(mp)
    comp_order = [(m - 2 - j) % ell + 1 for j in range(ell)]
    max_width = max((comp[0] if comp else 0) for comp in mp) if mp else 0
    order = []
    for c in range(1, max_width + 1):
        for cm in comp_order:
            comp = mp[cm - 1]
            for r in range(1, len(comp) + 1):
                if comp[r - 1] >= c:
                    order.append((r, c, cm))
    return tableau_from_box_order(mp, order)


def _step_degrees(mu, ch):
    """{b: d(mu, b)} over the removable boxes b of mu, in the order of
    removable_boxes.

    d(mu, b) is the degree of the step that adds b last to reach mu: the
    number of addable boxes of mu with b's residue strictly more dominant
    than b, minus the number of such removable boxes (Brundan-Kleshchev-Wang,
    Graded Specht modules).  It depends only on mu and b, so a tableau's
    degree is the sum of the steps along its prefix shapes.

    One scan of the rows finds every addable and removable box, each filed
    under its residue with the int content * (ell + 1) - m, which orders
    boxes as box_key does, and a sign: +1 addable, -1 removable.
    """
    s, e = ch.s, ch.e
    scale = len(mu) + 1
    signed = {}  # residue -> [(key, sign)]
    removable = []  # (box, residue, key)
    for m, comp in enumerate(mu, start=1):
        sm = s[m - 1]
        height = len(comp)
        for r, c in enumerate(comp, start=1):
            if r == 1 or comp[r - 2] > c:  # (r, c + 1) is addable
                content = sm + c + 1 - r
                signed.setdefault(content % e, []).append((content * scale - m, 1))
            if r == height or comp[r] < c:  # (r, c) is removable
                content = sm + c - r
                i, key = content % e, content * scale - m
                signed.setdefault(i, []).append((key, -1))
                removable.append(((r, c, m), i, key))
        content = sm - height  # (height + 1, 1) is addable
        signed.setdefault(content % e, []).append((content * scale - m, 1))
    return {b: sum(sign for k, sign in signed[i] if k > key) for b, i, key in removable}


def tableau_degree(t, ch):
    """Sum over the entries k of d(shape, b) for the box b holding k and the
    shape of the entries 1..k: the addable boxes of that shape with b's
    residue and a larger box_key, minus such removable boxes.  Only the
    added box is looked at, so this per-tableau sum shares no code with
    the fold's _step_degrees."""
    by_entry = tableau_boxes_by_entry(t)
    shape = tuple(() for _ in t)
    deg = 0
    for k in range(1, len(by_entry) + 1):
        b = by_entry[k]
        shape = add_box(shape, b)
        i, key = residue(b, ch), box_key(b, ch)
        deg += (sum(1 for x in addable_boxes(shape, ch, i) if box_key(x, ch) > key)
                - sum(1 for x in removable_boxes(shape, ch, i) if box_key(x, ch) > key))
    return deg


# ---------------------------------------------------------------------------
# Dominance.


def dominance_signature(mp, ch):
    """{i: the box_keys of mp's boxes of residue i, in decreasing order}.

    mu >= la iff the signatures have the same residues with the same number
    of boxes each, and the k-th key of la sits at or below the k-th key of
    mu for every residue and every k (see signature_dominates).
    """
    s = ch.s
    keys = {}
    for m, comp in enumerate(mp, start=1):
        sm = s[m - 1]
        for r, row_len in enumerate(comp, start=1):
            for content in range(sm + 1 - r, sm + row_len + 1 - r):
                key = (content, -m)
                i = content % ch.e
                if i in keys:
                    keys[i].append(key)
                else:
                    keys[i] = [key]
    return {i: sorted(k, reverse=True) for i, k in keys.items()}


def signature_dominates(sig_mu, sig_la):
    """mu >= la from the dominance signatures of two multipartitions of one
    size.  Greedy per residue class: within one class the box order is
    total, so a residue-preserving bijection moving every box weakly down
    exists iff, after sorting both sides decreasingly, the k-th la-box sits
    at or below the k-th mu-box."""
    if sig_mu.keys() != sig_la.keys():
        return False
    for i, ku in sig_mu.items():
        kl = sig_la[i]
        if len(ku) != len(kl):
            return False
        for u, l in zip(ku, kl):
            if l > u:
                return False
    return True


def dominates(mu, la, ch):
    """Test mu >= la: is there a residue-preserving bijection from the boxes
    of mu onto those of la moving every box weakly down the dominance order?
    Read off the two dominance signatures."""
    if mp_size(mu) != mp_size(la):
        raise ValueError("dominance needs equal sizes")
    return signature_dominates(dominance_signature(mu, ch), dominance_signature(la, ch))


def keys_by_residue(mp, ch):
    """{i: the box_keys of mp's boxes of residue i}, unsorted, in box order:
    the search's input, built box by box apart from dominance_signature."""
    out = {}
    for b in boxes(mp):
        out.setdefault(residue(b, ch), []).append(box_key(b, ch))
    return out


def dominates_by_search(mu, la, ch):
    """Test mu >= la by the definition: search every residue-preserving
    bijection from the boxes of mu onto those of la for one that moves every
    box weakly down the dominance order.  Exponential in the boxes of one
    residue; the reference that dominates is checked against."""
    return search_dominates(keys_by_residue(mu, ch), keys_by_residue(la, ch))


def search_dominates(ku, kl):
    """dominates_by_search on the keys_by_residue of mu and of la, so that a
    sweep builds each multipartition's key lists once."""
    if ku.keys() != kl.keys():
        return False
    for i, up in ku.items():
        down = kl[i]
        if len(up) != len(down) or not any(all(map(le, down, perm)) for perm in permutations(up)):
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration helpers.


def partitions_of(n, max_part=None, max_rows=None):
    """All partitions of n as tuples, largest part first, with parts at most
    max_part and at most max_rows rows."""
    if max_part is None:
        max_part = n
    if max_rows is None:
        max_rows = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        if first * max_rows < n:
            break  # max_rows rows of at most `first` boxes cannot hold n
        for rest in partitions_of(n - first, first, max_rows - 1):
            out.append((first,) + rest)
    return out


def multipartitions_of(n, ell, hbar=None):
    """All ell-multipartitions of n; with hbar, only those whose component
    m has at most hbar[m] rows."""
    rows = hbar[0] if hbar is not None else None
    if ell == 1:
        return [(p,) for p in partitions_of(n, max_rows=rows)]
    out = []
    for first_size in range(n + 1):
        firsts = partitions_of(first_size, max_rows=rows)
        if not firsts:
            continue
        rests = multipartitions_of(n - first_size, ell - 1,
                                   hbar[1:] if hbar is not None else None)
        out.extend((p,) + rest for p in firsts for rest in rests)
    return out
