"""Block posets of fundamental-alcove points, Carter-Payne covers,
diamond/strand structure with a GF(2) sign system, graded characters, the
Euler identity, and the explicit KLR action on the calibrated simple.
The free functions of one label read one cached BlockPoset, built once,
and the folds over prefix shapes are shared wider: the alcove fold (which
gives |Path^F(lambda)|) and the KLR verdicts by every label of a frame
(ch, hbar), the graded fold by every label of a charge, the tableau count
by all.  Each fold steps down from a shape by one scan of its rows
(multipartitions._down_steps), the alcove fold tests row lengths against
the frame's windows (alcoves._inside), and the KLR walk takes no step of
its own: it reads the down-steps that the alcove fold kept.

One orbit walk builds a label's block: its nodes, and for each node the
nodes one affine reflection away.  The covers are the reflection pairs
whose lengths differ by one, since two nodes that differ along a root and
are no reflection pair differ by a translation, which changes the length
by an even number.  The diamond signs are one GF(2) solve over the edges'
diamond-incidence columns, taken in edge order: its answer is the unique
solution supported on the greedy column basis, every other edge +1.

The KLR relations are checked on windows, not on paths.  psi_k changes
only steps k and k+1 of a basis path of D(lambda), so every relation reads
at most three consecutive steps with the rest of the path fixed: R3 and
swap closure read two-step windows, R5 is one residue predicate on
three-step windows (no i_k = i_{k+2} = i_{k+1} +- 1), the cyclotomic
relation reads the first step, and R1, R2 (every distance) and R4 follow
from closure or hold by construction (verify_klr_relations).  A window is a
prefix shape the frame's alcove fold reaches and the steps after it, each
a down-step the fold kept, read backwards, so the frame's handful of
shapes stand in for its paths, which can number in the trillions.

Graded characters are Laurent polynomials in t stored as dicts
degree -> coefficient.
"""

from functools import lru_cache

from .alcoves import (
    _fits,
    _inside,
    _path_fold,
    _walls,
    _windows,
    embed,
    point_length,
)
from .multipartitions import (
    count_standard_tableaux,
    dominance_signature,
    mp_size,
    multipartitions_of,
    signature_dominates,
    tableau_sums,
    _step_degrees,
)
# Nothing here enumerates tableaux: perfbench/selftest.py checks through
# this binding that its tracer wraps and restores from-imported names.
from .multipartitions import standard_tableaux  # noqa: F401


def _point_to_mp(v, base, hbar):
    """The multipartition of a shifted point that is a multipartition point."""
    rows = [a - b for a, b in zip(v, base)]
    mp = []
    pos = 0
    for m in range(len(hbar), 0, -1):
        block = rows[pos : pos + hbar[m - 1]]
        pos += hbar[m - 1]
        while block and block[-1] == 0:
            block.pop()
        mp.append(tuple(block))
    return tuple(reversed(mp))


class BlockPoset:
    """Orbit of lambda + rho under the shifted affine Weyl group,
    intersected with valid multipartition points; nodes carry lengths, and
    reflections[mu] lists the nodes that one affine reflection takes mu to.

    The walk reflects each point v in every hyperplane <x, eps_i - eps_j> =
    r*e that keeps the new row lengths v_j + r*e - rho_i and v_i - r*e -
    rho_j in [0, n], and judges the reflected point by the two coordinates
    it changed: each must stay strictly between its neighbours in its
    component's block (the frame's chains).
    """

    def __init__(self, la, ch, hbar):
        windows = _windows(ch, hbar)
        rows = embed(la, hbar)
        if not _inside(la, hbar, windows):
            raise ValueError("base point must lie in the fundamental alcove")
        self.ch, self.hbar = ch, hbar
        base, _, chains = _walls(ch, hbar)
        self.base = base
        n = mp_size(la)
        e = ch.e
        h = len(base)
        start = tuple(a + b for a, b in zip(rows, base))
        points = {la: start}
        label = {start: la}  # point -> its multipartition
        reflections = {}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            out = reflections[label[v]] = []
            for i in range(h):
                vi, (a, b) = v[i], chains[i]
                for j in range(i + 1, h):
                    vj, (c, d) = v[j], chains[j]
                    # the new v_i = vj + r*e and v_j = vi - r*e
                    r_lo = -((vj - base[i]) // e)
                    r_hi = min((base[i] + n - vj) // e, (vi - base[j]) // e)
                    for r in range(r_lo, r_hi + 1):
                        wi = vj + r * e
                        if wi == vi:
                            continue
                        wj = vi - r * e
                        if a >= 0 and v[a] <= wi or c >= 0 and (wi if c == i else v[c]) <= wj:
                            continue
                        if b >= 0 and (wj if b == j else v[b]) >= wi or d >= 0 and v[d] >= wj:
                            continue
                        w = v[:i] + (wi,) + v[i + 1 : j] + (wj,) + v[j + 1 :]
                        mu = label.get(w)
                        if mu is None:
                            mu = label[w] = _point_to_mp(w, base, hbar)
                            points[mu] = w
                            frontier.append(w)
                        out.append(mu)
        self.points = points
        self.reflections = reflections
        self.lengths = {mp: point_length(v, base, e) for mp, v in points.items()}
        self.nodes = sorted(points, key=lambda mp: (self.lengths[mp], mp))


@lru_cache(maxsize=1)
def block(la, ch, hbar):
    """The BlockPoset of one label, shared by its callers.  One entry: the
    BGG command and sweeps call the free functions below one after another
    on the same label."""
    return BlockPoset(la, ch, hbar)


def block_poset(la, ch, hbar, cross_validate=False):
    hbar = tuple(hbar)
    poset = block(la, ch, hbar)
    if cross_validate:
        expected = dominance_block(la, ch, hbar)
        if sorted(poset.nodes) != expected:
            raise AssertionError("orbit block differs from dominance block")
    return poset


def dominance_block(la, ch, hbar):
    """{mu : mu dominates la with the same residue multiset}, the
    combinatorial description of the block, among the multipartitions whose
    component heights hbar bounds.  la's dominance signature is built once;
    equal signature lengths are the equal residue multisets."""
    target = dominance_signature(la, ch)
    out = []
    for mu in multipartitions_of(mp_size(la), len(ch.s), hbar):
        if signature_dominates(dominance_signature(mu, ch), target):
            out.append(mu)
    return sorted(out)


def covers(poset):
    """Edges (mu, nu) with length(nu) = length(mu) - 1 and mu, nu related by
    an affine reflection, ordered by the node index of mu, then of nu.

    They are read off the orbit walk's reflections.  Two nodes whose
    coordinates differ by t(eps_i - eps_j) are either a reflection pair or
    a translation along the root, and a translation changes the length by
    an even number, so the pairs of the walk are every such pair of
    lengths one apart.
    """
    index = {mu: k for k, mu in enumerate(poset.nodes)}
    lengths = poset.lengths
    edges = []
    for mu in poset.nodes:
        below = lengths[mu] - 1
        bottoms = sorted(index[nu] for nu in poset.reflections[mu] if lengths[nu] == below)
        edges.extend((mu, poset.nodes[k]) for k in bottoms)
    return edges


def diamonds_and_strands(poset, edges=None):
    """Length-2 intervals: (top, mid1, mid2, bottom) diamonds and
    (top, mid, bottom) strands; every interval has at most two midpoints."""
    if edges is None:
        edges = covers(poset)
    down = {}
    for mu, nu in edges:
        down.setdefault(mu, []).append(nu)
    diamonds, strands = [], []
    for w in poset.nodes:
        seconds = {}
        for y in down.get(w, []):
            for z in down.get(y, []):
                seconds.setdefault(z, []).append(y)
        for z, mids in seconds.items():
            if len(mids) > 2:
                raise AssertionError("length-2 interval with > 2 midpoints")
            mids = sorted(mids)
            if len(mids) == 2:
                diamonds.append((w, mids[0], mids[1], z))
            else:
                strands.append((w, mids[0], z))
    return diamonds, strands


def sign_assignment(poset, edges=None):
    """Edge signs with product -1 around every diamond, as a GF(2) system
    (sign -1 <-> bit 1).  Returns a map edge -> +-1, or None if infeasible.

    The solution is the unique one supported on the greedy column basis:
    the edges whose diamond-incidence column is independent of the columns
    of the edges before them, every other edge +1.  A column is one int,
    bit d for diamond d.  Each is reduced into an XOR basis keyed by lowest
    set bit, whose entries carry the set of edges they combine, and the
    all-ones right-hand side is reduced last; a remainder that cannot be
    reduced means no solution.
    """
    if edges is None:
        edges = covers(poset)
    diamonds, _ = diamonds_and_strands(poset, edges)
    index = {edge: k for k, edge in enumerate(edges)}
    columns = [0] * len(edges)
    for d, (w, y1, y2, z) in enumerate(diamonds):
        bit = 1 << d
        for edge in ((w, y1), (y1, z), (w, y2), (y2, z)):
            columns[index[edge]] ^= bit
    basis = {}  # lowest bit -> (column, edges combined in it)
    for k, col in enumerate(columns):
        combined = 1 << k
        while col:
            low = col & -col
            entry = basis.get(low)
            if entry is None:
                basis[low] = (col, combined)
                break
            col ^= entry[0]
            combined ^= entry[1]
    rhs = (1 << len(diamonds)) - 1
    bits = 0
    while rhs:
        entry = basis.get(rhs & -rhs)
        if entry is None:
            return None
        rhs ^= entry[0]
        bits ^= entry[1]
    return {edge: (-1 if bits >> k & 1 else 1) for edge, k in index.items()}


@lru_cache(maxsize=None)
def _graded_fold(ch):
    """The graded fold of one charge: the step degrees d(., ch) depend on
    nothing else, so every label of the charge shares it."""
    return tableau_sums(steps=lambda shape: _step_degrees(shape, ch))


def graded_specht_character(mu, ch):
    """Sum over standard tableaux of t^degree, as a dict degree -> count.

    A tableau's degree is the sum of its step degrees d(shape, box), so
    char(mu) = sum over removable b of t^d(mu, b) char(mu - b), with
    char(empty) = 1: the fold tableau_sums with steps d(., ch).
    """
    return dict(_graded_fold(ch)(mu))  # a copy: the memo is shared by the charge


def euler_check(la, ch, hbar):
    hbar = tuple(hbar)
    poset = block(la, ch, hbar)
    lhs = sum((-1) ** poset.lengths[mu] * count_standard_tableaux(mu) for mu in poset.nodes)
    rhs = _path_fold(ch, hbar)(la)
    return {"alternating_sum": lhs, "fundamental_paths": rhs, "ok": lhs == rhs}


def graded_character_identity(la, ch, hbar):
    """Test sum over mu of (-1)^len t^(c*len) grchar(mu) = |Path^F| t^0 for
    the shift conventions c = 1 and c = 2; report which hold.  One pass
    over the nodes folds both sums."""
    hbar = tuple(hbar)
    poset = block(la, ch, hbar)
    rhs = _path_fold(ch, hbar)(la)
    char = _graded_fold(ch)
    one, two = {}, {}
    for mu in poset.nodes:
        ln = poset.lengths[mu]
        sign = -1 if ln & 1 else 1
        for d, coeff in char(mu).items():
            x = sign * coeff
            one[d + ln] = one.get(d + ln, 0) + x
            two[d + 2 * ln] = two.get(d + 2 * ln, 0) + x
    want = {0: rhs} if rhs else {}
    return {c: {d: x for d, x in total.items() if x} == want for c, total in ((1, one), (2, two))}


# ---------------------------------------------------------------------------
# The KLR action on the calibrated simple D(lambda), basis Path^F(lambda).


class KLRModule:
    """D(lambda) on its basis Path^F(lambda), held as its label: the basis
    is the set of paths that the frame's alcove fold counts, and the
    relations are read off the fold's windows, never path by path."""

    def __init__(self, la, ch, hbar):
        if ch.e <= 2:
            raise ValueError("quiver Hecke relations require e > 2")
        hbar = tuple(hbar)
        self.la, self.ch, self.hbar = la, ch, hbar
        windows = _windows(ch, hbar)
        if not _inside(_fits(la, hbar), hbar, windows):
            raise ValueError("base point must lie in the fundamental alcove")

    def dim(self):
        return _path_fold(self.ch, self.hbar)(self.la)


def build_klr_module(la, ch, hbar):
    return KLRModule(la, ch, hbar)


# the bits of a verdict of _klr_fold, each set while its rows hold
_CLOSED, _R3, _R5, _CYCLOTOMIC = 1, 2, 4, 8
_HOLDS = _CLOSED | _R3 | _R5 | _CYCLOTOMIC


def _far(x, y, e):
    """psi swaps two steps of residues x, y when this holds, else kills."""
    return (x - y) % e not in (0, 1, e - 1)


def _braid_fails(x, y, z, e):
    """R5 fails on the three-step window of residues (x, y, z): both braid
    words vanish there, and the correction at x = z = y -+ 1 is left."""
    return x == z and (y - x) % e in (1, e - 1)


@lru_cache(maxsize=None)
def _klr_fold(ch, hbar):
    """The KLR verdict of each label of the frame (ch, hbar), memoised per
    prefix shape: the verdict at nu ANDs the windows that end at nu with
    the verdicts at nu - b for each down-step that the frame's alcove fold
    keeps (fold.kept), so it is the verdict of D(nu), and every label of
    the frame reuses the shapes its earlier labels checked.  A verdict is
    an int of the _CLOSED, _R3, _R5 and _CYCLOTOMIC bits.

    The returned value closes over the frame's memo of verdicts; every key
    is a shape of the frame's alcove fold, and the walk reads each step's
    residue off its box.
    """
    kept = _path_fold(ch, hbar).kept
    s, e = ch.s, ch.e
    targets = {x % e for x in s}
    memo = {}

    def value(nu):
        ok = memo.get(nu)
        if ok is not None:
            return ok
        ok = _HOLDS
        below = kept(nu)
        for c, nu1 in below:
            z = (s[c[2] - 1] + c[1] - c[0]) % e
            if not any(nu1) and z not in targets:  # the first step
                ok &= ~_CYCLOTOMIC
            for b, nu2 in kept(nu1):  # the window nu2 -> b -> c
                y = (s[b[2] - 1] + b[1] - b[0]) % e
                if y == z:
                    ok &= ~_R3
                # far boxes are not adjacent, so b is removable from nu, and
                # the fold reaches nu - b iff b is one of nu's kept down-steps
                if _far(y, z, e) and all(b != a for a, _ in below):
                    ok &= ~_CLOSED
                for a, _ in kept(nu2):  # the window nu3 -> a -> b -> c
                    if _braid_fails((s[a[2] - 1] + a[1] - a[0]) % e, y, z, e):
                        ok &= ~_R5
            ok &= value(nu1)
        memo[nu] = ok
        return ok

    return value


def verify_klr_relations(mod):
    """Exact verification of R1-R5 and the cyclotomic relation at y = 0,
    read off the windows of the frame's alcove fold.

    psi_k swaps steps k and k+1 of a basis path when their residues are far
    (differ by more than 1 mod e) and kills the path otherwise; e(i) is the
    indicator of the paths of residue sequence i.  Each relation checked
    below reads at most three consecutive steps of a path and leaves the
    steps before and after them in place, so it holds on D(lambda) iff it
    holds on every window of the fold that lies on a path to lambda: a
    prefix shape mu that the fold reaches and up to three steps after it,
    ending at a shape that the walk down from lambda meets.
    - R3 (no residue repeats in consecutive steps) and swap closure read
      the two-step windows mu -> a -> b: when a and b have far residues,
      mu + b must be a shape of the fold, so that the swapped path lies in
      Path^F(lambda) again.
    - R5, the braid relation with its +-1 correction on the columns
      i_k = i_{k+2} = i_{k+1} -+ 1, reads the three-step windows.  Each
      braid word kills the window unless all three residue pairs are far,
      and then both reverse it; so both kill the corrected columns, where
      i_k = i_{k+2}, and R5 fails exactly there (_braid_fails), whatever
      the sign of the correction.
    - cyclotomic reads the first step: y_1^c e(i) = 0 with
      c = #{m : s_m = i_1} only bites at c = 0, so no path may start with a
      residue outside {s_m mod e}.
    The other rows follow.  R1_sum and R1_orth hold by construction: the
    e(i) are the indicators of the fibres of the map from a path to its
    residue sequence, one fibre per sequence, so they are orthogonal and
    sum to the identity.  Given closure, R1_intertwine holds because a swap
    moves two boxes with their residues; R2 at every distance >= 2 because
    the two swaps touch disjoint steps and neither changes the residues the
    other reads; R4 because a far swap undone is the identity and a column
    that is not far is killed.  These three rows rest on closure and read
    its verdict: when a far swap leaves Path^F(lambda), psi is no operator
    on D(lambda), and R1_intertwine, R2 and R4 are false together.

    The keys, their order and their values are those of the column-by-column
    check over the listed paths, which the tests keep as the oracle.
    """
    ok = _klr_fold(mod.ch, mod.hbar)(mod.la)
    closed = bool(ok & _CLOSED)
    return {
        "R1_sum": True,
        "R1_orth": True,
        "R1_intertwine": closed,
        "R2": closed,
        "R3": bool(ok & _R3),
        "R4": closed,
        "R5": bool(ok & _R5),
        "cyclotomic": bool(ok & _CYCLOTOMIC),
    }
