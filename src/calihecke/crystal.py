"""The sl_e-hat crystal on charged multipartitions.

The i-word of a multipartition lists its addable and removable i-boxes in
increasing dominance order (least dominant first), marking addable boxes +
and removable boxes -.  Reduction cancels adjacent (-+) pairs; f_tilde adds
the box of the rightmost surviving +, e_tilde removes the box of the
leftmost surviving -.
"""

from functools import lru_cache

from .multipartitions import (
    add_box,
    addable_boxes,
    box_key,
    mp_size,
    remove_box,
    removable_boxes,
    residue,
)


def i_word(mp, ch, i):
    """List of (box, sign) for residue i, increasing in dominance order."""
    word = [(b, "+") for b in addable_boxes(mp, ch, i)]
    word += [(b, "-") for b in removable_boxes(mp, ch, i)]
    word.sort(key=lambda bs: box_key(bs[0], ch))
    return word


def reduced_i_word(word):
    """Cancel adjacent (-+) pairs recursively; result is (+)^a(-)^b."""
    out = []
    for entry in word:
        if entry[1] == "+" and out and out[-1][1] == "-":
            out.pop()
        else:
            out.append(entry)
    return out


def f_tilde(mp, ch, i):
    """Add the good addable i-box (rightmost + of the reduced word), or None."""
    red = reduced_i_word(i_word(mp, ch, i))
    plus = [b for b, sign in red if sign == "+"]
    if not plus:
        return None
    return add_box(mp, plus[-1])


def e_tilde(mp, ch, i):
    """Remove the good removable i-box (leftmost - of the reduced word), or None."""
    red = reduced_i_word(i_word(mp, ch, i))
    minus = [b for b, sign in red if sign == "-"]
    if not minus:
        return None
    return remove_box(mp, minus[0])


def build_from_word(word, ch):
    """Apply f_tilde along a residue word starting from the empty
    multipartition; None if any step dies."""
    mp = tuple(() for _ in ch.s)
    for i in word:
        mp = f_tilde(mp, ch, i)
        if mp is None:
            return None
    return mp


def _residues(boxes, ch):
    """The residues of boxes in increasing order: over the addable boxes the
    only i at which f_tilde acts, over the removable ones those of e_tilde."""
    return sorted({residue(b, ch) for b in boxes})


def reachable_by_size(n, ch):
    """All crystal-reachable multipartitions of each size 0..n.

    Returns a list of sets, indexed by size.
    """
    empty = tuple(() for _ in ch.s)
    layers = [{empty}]
    for _ in range(n):
        nxt = set()
        for mp in layers[-1]:
            for i in _residues(addable_boxes(mp), ch):
                out = f_tilde(mp, ch, i)
                if out is not None:
                    nxt.add(out)
        layers.append(nxt)
    return layers


@lru_cache(maxsize=None)
def _reachable(mp, s, e):
    from .multipartitions import Charge

    if mp_size(mp) == 0:
        return True
    ch = Charge(s, e)
    for i in _residues(removable_boxes(mp), ch):
        down = e_tilde(mp, ch, i)
        # e_tilde inverts f_tilde, so mp is reachable iff some e_tilde image
        # is reachable
        if down is not None and _reachable(down, s, e):
            return True
    return False


def is_reachable(mp, ch):
    """Is mp in the connected crystal component of the empty multipartition?"""
    return _reachable(mp, ch.s, ch.e)


@lru_cache(maxsize=None)
def _has_stuttering_build(mp, s, e):
    """Can mp be written f_{i_n}...f_{i_1}(empty) with i_k = i_{k+1} somewhere?"""
    from .multipartitions import Charge

    ch = Charge(s, e)
    for i in _residues(removable_boxes(mp), ch):
        down = e_tilde(mp, ch, i)
        if down is None:
            continue
        if e_tilde(down, ch, i) is not None:
            return True
        if _has_stuttering_build(down, s, e):
            return True
    return False


def is_no_stuttering(mp, ch):
    """Reachable, and no build expression repeats a residue consecutively."""
    return is_reachable(mp, ch) and not _has_stuttering_build(mp, ch.s, ch.e)
