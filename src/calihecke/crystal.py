"""The sl_e-hat crystal on charged multipartitions.

The i-word of a multipartition lists its addable and removable i-boxes in
increasing dominance order (least dominant first, by ``box_key``), marking
addable boxes + and removable boxes -.  Reduction cancels adjacent (-+)
pairs; f_tilde adds the box of the rightmost surviving +, e_tilde removes
the box of the leftmost surviving - (Kashiwara's signature rule).

``residue_signature`` reads every i-word from one pass over the rows: the
box after row r of component m is addable when r = 1 or row r - 1 is
longer, the last box of row r is removable when row r + 1 is shorter, and
a box (r, c, m) has charged content s_m + c - r.  One sort of these boxes
by ``box_key`` orders every word at once, and every crystal operation here
reads its word from the signature.

Reachability and the stuttering test are one fold over the e_tilde images
per charge (``_crystal_fold``): its memo is keyed by shape inside the
charge's fold, so every query at a charge (the sizes of a sweep, or the
level-1 locus oracle at each a) shares one recursion.  The f_tilde walk
``reachable_by_size`` shares nothing with it but the signature.
"""

from functools import lru_cache

# addable_boxes is not called here; the benchmark's self-test
# (perfbench/selftest.py) checks that tracing rebinds this name.
from .multipartitions import Charge, add_box, addable_boxes, remove_box  # noqa: F401


def residue_signature(mp, ch):
    """{i: i-word} for every residue i that has an addable or removable
    box: each word a list of (box, sign), increasing in dominance order."""
    s, e = ch.s, ch.e
    boxes = []
    for m, comp in enumerate(mp, start=1):
        sm, h = s[m - 1], len(comp)
        above = None  # the length of row r - 1
        for r in range(1, h + 2):
            length = comp[r - 1] if r <= h else 0
            if above is None or above > length:
                boxes.append((sm + length + 1 - r, -m, (r, length + 1, m), "+"))
            if r <= h and (r == h or comp[r] < length):
                boxes.append((sm + length - r, -m, (r, length, m), "-"))
            above = length
    # (content, -m) is box_key, and no two boxes of mp share it: the rim of
    # a partition crosses each diagonal once
    boxes.sort()
    sig = {}
    for content, _, b, sign in boxes:
        i = content % e
        if i in sig:
            sig[i].append((b, sign))
        else:
            sig[i] = [(b, sign)]
    return sig


def i_word(mp, ch, i):
    """List of (box, sign) for residue i, increasing in dominance order."""
    return list(residue_signature(mp, ch).get(i % ch.e, ()))


def reduced_i_word(word):
    """Cancel adjacent (-+) pairs recursively; result is (+)^a(-)^b."""
    out = []
    for entry in word:
        if entry[1] == "+" and out and out[-1][1] == "-":
            out.pop()
        else:
            out.append(entry)
    return out


def _good_boxes(word):
    """(good +, good -) of an i-word: the box of the rightmost + and of the
    leftmost - that survive reduction, None where there is none."""
    plus, minus = None, []  # minus: the - boxes that no later + has cancelled
    for b, sign in word:
        if sign == "-":
            minus.append(b)
        elif minus:
            minus.pop()
        else:
            plus = b
    return plus, minus[0] if minus else None


def f_tilde(mp, ch, i):
    """Add the good addable i-box (rightmost + of the reduced word), or None."""
    plus, _ = _good_boxes(residue_signature(mp, ch).get(i % ch.e, ()))
    return None if plus is None else add_box(mp, plus)


def e_tilde(mp, ch, i):
    """Remove the good removable i-box (leftmost - of the reduced word), or None."""
    _, minus = _good_boxes(residue_signature(mp, ch).get(i % ch.e, ()))
    return None if minus is None else remove_box(mp, minus)


def build_from_word(word, ch):
    """Apply f_tilde along a residue word starting from the empty
    multipartition; None if any step dies."""
    mp = tuple(() for _ in ch.s)
    for i in word:
        mp = f_tilde(mp, ch, i)
        if mp is None:
            return None
    return mp


def reachable_by_size(n, ch):
    """All crystal-reachable multipartitions of each size 0..n.

    Returns a list of sets, indexed by size.  Each multipartition of a
    layer gets one signature, and the good + box of each of its residues
    is added.
    """
    empty = tuple(() for _ in ch.s)
    layers = [{empty}]
    for _ in range(n):
        nxt = set()
        for mp in layers[-1]:
            for word in residue_signature(mp, ch).values():
                plus, _ = _good_boxes(word)
                if plus is not None:
                    nxt.add(add_box(mp, plus))
        layers.append(nxt)
    return layers


def e_tilde_images(mp, ch):
    """[(i, e_tilde(mp, ch, i))] over the residues i at which e_tilde acts,
    from one signature, in the signature's order."""
    out = []
    for i, word in residue_signature(mp, ch).items():
        _, minus = _good_boxes(word)
        if minus is not None:
            out.append((i, remove_box(mp, minus)))
    return out


@lru_cache(maxsize=None)
def _crystal_fold(s, e):
    """mp -> (reachable, stutters, the residues at which e_tilde acts on
    mp), at charge (s, e), built from one signature of each shape.

    - reachable: mp is in the component of the empty multipartition.
      e_tilde inverts f_tilde, so this holds iff mp is empty or some
      e_tilde image is reachable.
    - stutters: mp can be written f_{i_n}...f_{i_1}(empty) with
      i_k = i_{k+1} somewhere, that is e_tilde acts at i on mp and then
      again at i on the image, or some image stutters.

    The memo is keyed by shape and lives as long as the charge's fold, so
    every query at the charge shares it."""
    ch = Charge(s, e)
    memo = {}

    def fold(mp):
        out = memo.get(mp)
        if out is None:
            downs = e_tilde_images(mp, ch)
            reachable, stutters = not any(mp), False
            for i, down in downs:
                down_reachable, down_stutters, down_residues = fold(down)
                reachable = reachable or down_reachable
                stutters = stutters or down_stutters or i in down_residues
            out = memo[mp] = (reachable, stutters, tuple(i for i, _ in downs))
        return out

    return fold


def is_reachable(mp, ch):
    """Is mp in the connected crystal component of the empty multipartition?"""
    return _crystal_fold(ch.s, ch.e)(mp)[0]


def is_no_stuttering(mp, ch):
    """Reachable, and no build expression repeats a residue consecutively."""
    reachable, stutters, _ = _crystal_fold(ch.s, ch.e)(mp)
    return reachable and not stutters
