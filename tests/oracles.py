"""Slow, independent references for the fast paths of calihecke.

``FracCyc`` is the original Fraction-vector arithmetic in Q(zeta_e): a
length-e vector of Fractions, reduced by polynomial division modulo Phi_e
after every product, inverted by the extended Euclidean algorithm over Q.
``dense_form_invariance`` is the dense form-invariance check, which compares
every entry of M^dagger G M with the entry of G: each T_i and X_k must be
an isometry of the diagonal Gram form.
``column_hecke_relations`` is the original Hecke-relation check, which
applies each side's operators to every basis vector in turn, starting from
that vector times one.
``tableau_sum_character`` is the original graded character, a sum over every
standard tableau of t^degree; ``step_degrees_by_helpers`` is the original
step degree, which reads the addable and removable boxes, their residues
and their box keys through the public helpers, and ``down_steps_by_remove``
the original down-steps, removable_boxes with remove_box applied to each; ``alcove_filtered_basis`` is the original KLR
basis, every standard tableau filtered by rebuilding each prefix shape from
its boxes and testing it against the fundamental alcove, and
``path_residues`` reads a path's residues off its coordinates.
``fundamental_paths`` lists Path^F(la) path by path, walking down the
frame's alcove fold and back up; ``ColumnKLRModule`` holds the listed basis
with its residue sequences and the column map of each psi_k, and
``column_klr_relations`` is the original KLR check, which composes the
column maps and tests every relation on every basis path.
``in_fundamental_alcove_direct`` is the original alcove test, which
recomputes rho and the origin's window of every positive root on each call,
and raises for a frame whose origin lies on a wall before it reads the label.
``covers_all_pairs`` is the original cover search, which tests every pair
of nodes for lengths one apart and a coordinate difference along a root;
``sign_assignment_rows`` is the original diamond sign solver, Gauss-Jordan
elimination over GF(2) on one int row per diamond.
``dominance_block_full`` is the original dominance block, which tests every
multipartition of |la| and drops those too tall for the frame afterwards.
``admissible_transposition_reduced`` is the original admissibility test,
which reduces the whole weight mod e before comparing two of its entries,
and ``weight_class_by_search`` the original weight class, a search with it.
``EagerSeminormalModule`` is the original seminormal module, which builds
every X_k and T_i in its constructor as lists that a test may change;
``column_hecke_relations`` and ``dense_form_invariance`` check such a
module on its own operators.
``class_form_signs_per_edge`` is the original form-sign propagation, which
builds its own adjacency of the class with the reduced admissibility test,
walks it, and calls ``re_compare`` once per edge.
``i_word_scan`` is the original i-word, which rescans every box of the
multipartition for one residue; ``f_tilde_scan`` and ``e_tilde_scan`` read
the reduced scanned word, ``reachable_by_size_scan`` is the breadth-first
walk over them, and ``is_reachable_recursive`` and
``has_stuttering_build_recursive`` are the original recursions over the
e_tilde images, with a memo local to one call.
``is_standard_tableau``, ``residue_sequence`` and ``residue_multiset`` read
a tableau or a multipartition by the definitions: standardness entry by
entry, the residues of the entries 1..n in order, and the residues of the
boxes counted.
"""

from fractions import Fraction
from math import gcd

from calihecke.alcoves import _path_fold, coord_index, embed, rho
from calihecke.bgg import diamonds_and_strands
from calihecke.crystal import reduced_i_word
from calihecke.cyclotomics import Cyc, cyclotomic_polynomial, re_compare
from calihecke.multipartitions import (
    add_box,
    addable_boxes,
    box_key,
    boxes,
    dominates,
    heights,
    is_multipartition,
    mp_size,
    multipartitions_of,
    remove_box,
    removable_boxes,
    residue,
    standard_tableaux,
    tableau_boxes_by_entry,
    tableau_degree,
)
from calihecke.seminormal import (
    _class_edges,
    _t_op,
    _x_op,
    form_values,
)


def _polydivmod(num, den):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    dn = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        coef = num[i] / lead
        q[i - dn] = coef
        if coef:
            for j in range(dn + 1):
                num[i - dn + j] -= coef * den[j]
    return q, num[:dn] if dn > 0 else [Fraction(0)]


def _reduce(coeffs, e):
    """Reduce a coefficient list modulo Phi_e, padded to length e."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(e)]
    _, r = _polydivmod([Fraction(c) for c in coeffs], phi)
    r = list(r) + [Fraction(0)] * (e - len(r))
    return tuple(r[:e])


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


class FracCyc:
    """An element of Q(zeta_e) as a reduced length-e Fraction vector."""

    def __init__(self, e, coeffs):
        self.e = e
        self.coeffs = _reduce(coeffs, e)

    def __add__(self, other):
        return FracCyc(self.e, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FracCyc(self.e, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FracCyc(self.e, _polymul(self.coeffs, other.coeffs))

    def inv(self):
        if all(c == 0 for c in self.coeffs):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        a = list(self.coeffs)
        while a and a[-1] == 0:
            a.pop()
        r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(self.e)], a
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _polydivmod(r0, r1)
            while r and r[-1] == 0:
                r.pop()
            u_new = _polysub(u0, _polymul(q, u1))
            r0, u0 = r1, u1
            r1, u1 = (r if r else [Fraction(0)]), u_new
        const = next(c for c in r0 if c != 0)
        return FracCyc(self.e, [c / const for c in u0])

    def conj(self):
        out = [Fraction(0)] * self.e
        for k, c in enumerate(self.coeffs):
            out[(-k) % self.e] += c
        return FracCyc(self.e, out)

    def galois(self, j):
        """zeta^k -> zeta^(j*k) on the length-e vector, then reduced."""
        out = [Fraction(0)] * self.e
        for k, c in enumerate(self.coeffs):
            out[(j * k) % self.e] += c
        return FracCyc(self.e, out)

    def __eq__(self, other):
        return self.e == other.e and self.coeffs == other.coeffs


def power_basis_vector(x):
    """A Cyc as the padded length-e Fraction vector FracCyc keeps."""
    vec = [Fraction(c, x.den) for c in x.num]
    return tuple(vec + [Fraction(0)] * (x.e - len(vec)))


def dense_form_invariance(mod):
    """M^dagger G M = G on dense dim x dim matrices, entry by entry."""
    G = form_values(mod)
    dim = mod.dim()
    zero = Cyc.zero(mod.e)

    def dense(op):
        mat = [[zero for _ in range(dim)] for _ in range(dim)]
        for j, col in enumerate(op):
            for i, c in col:
                mat[i][j] = c
        return mat

    def invariant(op):
        M = dense(op)
        for i in range(dim):
            # (M^dagger G M)_{ij} = sum_k conj(M_ki) G_k M_kj; column i of M
            # is read off the dense matrix, without its zeros
            column = [(k, M[k][i].conj() * G[k]) for k in range(dim) if not M[k][i].is_zero()]
            for j in range(dim):
                entry = zero
                for k, c in column:
                    entry = entry + c * M[k][j]
                if entry != (G[i] if i == j else zero):
                    return False
        return True

    report = {}
    for i in range(1, mod.n):
        report[f"T_{i}"] = invariant(mod.T[i - 1])
    for k in range(1, mod.n + 1):
        report[f"X_{k}"] = invariant(mod.X[k - 1])
    return report


def _apply(op, vec):
    """vec is a dict index -> Cyc; returns op(vec)."""
    out = {}
    for j, c in vec.items():
        for i, coeff in op[j]:
            term = coeff * c
            out[i] = out[i] + term if i in out else term
    return {i: c for i, c in out.items() if not c.is_zero()}


def _compose(mod, ops, j):
    """Apply ops right-to-left to the j-th basis vector."""
    vec = {j: Cyc.one(mod.e)}
    for op in reversed(ops):
        vec = _apply(op, vec)
    return vec


def column_hecke_relations(mod):
    """The defining relations, checked column by column."""
    n, dim = mod.n, mod.dim()
    report = {}

    def same(vec1, vec2):
        keys = set(vec1) | set(vec2)
        z = Cyc.zero(mod.e)
        return all(vec1.get(k, z) == vec2.get(k, z) for k in keys)

    def check(name, left_ops, right_ops, scale=None):
        ok = True
        for j in range(dim):
            lhs = _compose(mod, left_ops, j)
            rhs = _compose(mod, right_ops, j)
            if scale is not None:
                rhs = {k: scale * c for k, c in rhs.items()}
            if not same(lhs, rhs):
                ok = False
                break
        report[name] = ok

    for i in range(1, n):
        Ti = mod.T[i - 1]
        # (T_i + 1)(T_i - q) = 0  <=>  T_i^2 = (q - 1) T_i + q
        ok = True
        for j in range(dim):
            lhs = _compose(mod, [Ti, Ti], j)
            rhs = _apply(Ti, {j: mod.q - 1})
            rhs[j] = rhs.get(j, Cyc.zero(mod.e)) + mod.q
            if not same(lhs, rhs):
                ok = False
        report[f"quadratic_{i}"] = ok
    for i in range(1, n - 1):
        check(f"braid_{i}", [mod.T[i - 1], mod.T[i], mod.T[i - 1]],
              [mod.T[i], mod.T[i - 1], mod.T[i]])
    for i in range(1, n):
        for j in range(i + 2, n):
            check(f"distant_{i}_{j}", [mod.T[i - 1], mod.T[j - 1]],
                  [mod.T[j - 1], mod.T[i - 1]])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            check(f"xcomm_{i}_{j}", [mod.X[i - 1], mod.X[j - 1]],
                  [mod.X[j - 1], mod.X[i - 1]])
    for i in range(1, n):
        check(f"txt_{i}", [mod.T[i - 1], mod.X[i - 1], mod.T[i - 1]],
              [mod.X[i]], scale=mod.q)
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                check(f"tx_{i}_{j}", [mod.T[i - 1], mod.X[j - 1]],
                      [mod.X[j - 1], mod.T[i - 1]])
    return report


def tableau_sum_character(mu, ch):
    """Sum over the standard tableaux of mu of t^degree, as degree -> count."""
    out = {}
    for t in standard_tableaux(mu):
        d = tableau_degree(t, ch)
        out[d] = out.get(d, 0) + 1
    return out


def step_degrees_by_helpers(mu, ch):
    """{b: d(mu, b)} over the removable boxes b of mu: the addable boxes of
    mu with b's residue and a larger box_key, minus such removable boxes."""
    add = [(residue(x, ch), box_key(x, ch)) for x in addable_boxes(mu)]
    rem_boxes = removable_boxes(mu)
    rem = [(residue(x, ch), box_key(x, ch)) for x in rem_boxes]
    out = {}
    for b, (i, key) in zip(rem_boxes, rem):
        out[b] = (sum(1 for j, k in add if j == i and k > key)
                  - sum(1 for j, k in rem if j == i and k > key))
    return out


def down_steps_by_remove(shape):
    """(b, shape - b) for each removable box b, through remove_box."""
    return [(b, remove_box(shape, b)) for b in removable_boxes(shape)]


def _prefix_shape(order, ell):
    """Shape of the partial tableau holding the boxes in `order`."""
    maxes = {}
    for r, c, m in order:
        maxes[(m, r)] = max(maxes.get((m, r), 0), c)
    mp = []
    for m in range(1, ell + 1):
        nrows = max((r for (mm, r) in maxes if mm == m), default=0)
        mp.append(tuple(maxes[(m, r)] for r in range(1, nrows + 1)))
    return tuple(mp)


def in_fundamental_alcove_direct(mp, ch, hbar):
    """Is lambda + rho in the alcove of the origin?  First no root may put
    the origin on a hyperplane; then, root by root, the inner product must
    avoid all hyperplanes and sit in the origin's e-window."""
    p = rho(ch, hbar)
    e = ch.e
    pairs = [(i, j) for i in range(len(p)) for j in range(i + 1, len(p))]
    if any((p[i] - p[j]) % e == 0 for i, j in pairs):
        raise ValueError("origin lies on a hyperplane; charge/hbar invalid")
    v = tuple(a + b for a, b in zip(embed(mp, hbar), p))
    for i, j in pairs:
        d = v[i] - v[j]
        if d % e == 0 or d // e != (p[i] - p[j]) // e:
            return False
    return True


def alcove_filtered_basis(la, ch, hbar):
    """The sorted standard tableaux of la all of whose prefix shapes lie in
    the fundamental alcove."""
    n = mp_size(la)
    out = []
    for t in standard_tableaux(la):
        by_entry = tableau_boxes_by_entry(t)
        order = [by_entry[k] for k in range(1, n + 1)]
        if all(in_fundamental_alcove_direct(_prefix_shape(order[:k], len(la)), ch, hbar)
               for k in range(n + 1)):
            out.append(t)
    return sorted(out)


def path_residues(p, ch, hbar):
    """Residue of each step's box: the new coordinate value plus rho - 1."""
    base = rho(ch, hbar)
    count = [0] * len(base)
    out = []
    for idx in p:
        count[idx] += 1
        out.append((base[idx] + count[idx] - 1) % ch.e)
    return tuple(out)


def fundamental_paths(mp, ch, hbar):
    """Path^F(mp), sorted, and the residue sequence of each path: two lists
    paths and residues, empty when no path reaches mp.

    The walk down starts at mp and removes each removable box whose smaller
    shape the frame's alcove fold reaches, so it meets exactly the prefix
    shapes of the paths to mp, and no dead end.  The box (r, c, m) added by
    a step is the path's coordinate index coord_index(r, m, hbar), of
    residue s_m + c - r mod e.  The walk back up from the empty shape takes
    each shape's steps in index order, so it lists the paths sorted.
    """
    hbar = tuple(hbar)
    fold = _path_fold(ch, hbar)
    paths, residues = [], []
    if not fold(mp):
        return paths, residues
    s, e = ch.s, ch.e
    ups = {}  # prefix shape -> [(index, residue, the shape one step up)]
    stack = [mp]
    while stack:
        shape = stack.pop()
        for b in removable_boxes(shape):
            smaller = remove_box(shape, b)
            if fold(smaller):
                if smaller not in ups:
                    ups[smaller] = []
                    stack.append(smaller)
                r, c, m = b
                ups[smaller].append((coord_index(r, m, hbar), (s[m - 1] + c - r) % e, shape))
    for steps in ups.values():
        steps.sort()
    n = mp_size(mp)
    path, res = [], []

    def walk(shape):
        if len(path) == n:
            paths.append(tuple(path))
            residues.append(tuple(res))
            return
        for idx, i, bigger in ups[shape]:
            path.append(idx)
            res.append(i)
            walk(bigger)
            path.pop()
            res.pop()

    walk(tuple(() for _ in mp))
    return paths, residues


class ColumnKLRModule:
    """D(lambda) on its listed basis Path^F(lambda): paths[k] and
    residues[k] are the k-th basis path, in sorted order, and its residue
    sequence."""

    def __init__(self, la, ch, hbar):
        self.ch, self.hbar = ch, hbar
        self.n = mp_size(la)
        self.paths, self.residues = fundamental_paths(la, ch, hbar)
        self.index = {p: k for k, p in enumerate(self.paths)}

    def dim(self):
        return len(self.paths)

    def psi_map(self, k):
        """Column map of psi_k: for each basis index the image index, or -1
        when the vector is killed.  psi_k swaps entries k, k+1 when their
        residues differ by more than 1 in Z/eZ: on the path, steps k and k+1
        trade places.  A swapped path outside Path^F raises KeyError."""
        e = self.ch.e
        out = []
        for p, r in zip(self.paths, self.residues):
            if (r[k - 1] - r[k]) % e in (0, 1, e - 1):
                out.append(-1)
            else:
                out.append(self.index[p[:k - 1] + (p[k], p[k - 1]) + p[k + 1:]])
        return out

    def residue_sequences(self):
        return sorted(set(self.residues))


def _compose_maps(f, g):
    """Column map of f after g (maps are index lists with -1 for zero)."""
    return [f[x] if x >= 0 else -1 for x in g]


def column_klr_relations(mod):
    """R1-R5 and the cyclotomic relation, column by column on the listed
    basis of a ColumnKLRModule.  All operators are 0/1 matrices with at most
    one entry per column, so this is the dense matrix identity evaluated
    without the matmuls."""
    n, e = mod.n, mod.ch.e
    d = mod.dim()
    res = mod.residues
    psis = {k: mod.psi_map(k) for k in range(1, n)}
    report = {}

    # R1: the e_i are the indicators of the fibres of the sequences listed by
    # residue_sequences(); they sum to the identity when every basis index
    # lies in at least one listed fibre, and are orthogonal when it lies in
    # at most one.  Also check that psi_k sends the i-fibre into s_k(i)
    fibres = {}
    for j, r in enumerate(res):
        fibres.setdefault(r, []).append(j)
    hits = [0] * d
    for i in mod.residue_sequences():
        for j in fibres.get(i, ()):
            hits[j] += 1
    report["R1_sum"] = all(hits)
    report["R1_orth"] = all(x <= 1 for x in hits)
    ok = True
    for k in range(1, n):
        for j, target in enumerate(psis[k]):
            if target < 0:
                continue
            i = list(res[j])
            i[k - 1], i[k] = i[k], i[k - 1]
            if res[target] != tuple(i):
                ok = False
    report["R1_intertwine"] = ok

    # R2: distant psi commute (y relations are trivial at y = 0)
    report["R2"] = all(
        _compose_maps(psis[r], psis[s]) == _compose_maps(psis[s], psis[r])
        for r in range(1, n) for s in range(r + 2, n))

    # R3 at y = 0 reduces to: no residue sequence repeats adjacently
    report["R3"] = all(
        i[k - 1] != i[k] for i in res for k in range(1, n))

    # R4: psi_k^2 = 1 on far-residue columns, 0 otherwise (y = 0)
    ok = True
    for k in range(1, n):
        sq = _compose_maps(psis[k], psis[k])
        for j in range(d):
            far = (res[j][k - 1] - res[j][k]) % e not in (0, 1, e - 1)
            if sq[j] != (j if far else -1):
                ok = False
    report["R4"] = ok

    # R5: braid with the +-1 corrections on the i_r = i_{r+2} = i_{r+1} -+ 1
    # columns; each side has at most one entry per column, so compare the
    # column vectors as sparse dicts
    ok = True
    for k in range(1, n - 1):
        lhs = _compose_maps(psis[k], _compose_maps(psis[k + 1], psis[k]))
        rhs = _compose_maps(psis[k + 1], _compose_maps(psis[k], psis[k + 1]))
        for j in range(d):
            corr = braid_correction(*res[j][k - 1:k + 2], e)
            col = {}
            if rhs[j] >= 0:
                col[rhs[j]] = 1
            if corr:
                col[j] = col.get(j, 0) + corr
            col = {r: x for r, x in col.items() if x}
            expect = {lhs[j]: 1} if lhs[j] >= 0 else {}
            if col != expect:
                ok = False
    report["R5"] = ok

    # cyclotomic: y_1^c e_i = 0 with c = #{m : s_m = i_1}; at y = 0 this
    # only bites when c = 0, where it forces e_i = 0 -- i.e. no basis path
    # may start with a residue outside {s_m mod e}
    targets = {s % e for s in mod.ch.s}
    report["cyclotomic"] = all(i[0] in targets for i in res if i)
    return report


def braid_correction(x, y, z, e):
    """The R5 correction on a column of residues (i_k, i_{k+1}, i_{k+2})."""
    if x == z == (y + 1) % e:
        return -1
    if x == z == (y - 1) % e:
        return 1
    return 0


def braid_holds_on_window(x, y, z, e):
    """R5 at y = 0 on one three-step window of residues (x, y, z), from the
    words: psi_k psi_{k+1} psi_k and psi_{k+1} psi_k psi_{k+1} applied to
    the window, the correction added to the second.  The window's steps are
    distinct, so positions 0, 1, 2 stand for them: psi swaps two adjacent
    positions whose residues are far, and kills the window otherwise."""
    def psi(k, w):
        if w is None or (w[k][0] - w[k + 1][0]) % e in (0, 1, e - 1):
            return None
        return w[:k] + (w[k + 1], w[k]) + w[k + 2:]

    window = ((x, 0), (y, 1), (z, 2))
    lhs = psi(0, psi(1, psi(0, window)))
    rhs = psi(1, psi(0, psi(1, window)))
    col = {} if rhs is None else {rhs: 1}
    col[window] = col.get(window, 0) + braid_correction(x, y, z, e)
    return {w: v for w, v in col.items() if v} == ({} if lhs is None else {lhs: 1})


def covers_all_pairs(poset):
    """Edges (mu, nu) with length(nu) = length(mu) - 1 and mu, nu related by
    an affine reflection (coordinate difference proportional to a root),
    over all pairs of nodes."""
    edges = []
    for mu in poset.nodes:
        for nu in poset.nodes:
            if poset.lengths[nu] != poset.lengths[mu] - 1:
                continue
            diff = [a - b for a, b in zip(poset.points[mu], poset.points[nu])]
            support = [k for k, x in enumerate(diff) if x]
            if len(support) == 2 and diff[support[0]] == -diff[support[1]]:
                edges.append((mu, nu))
    return edges


def sign_assignment_rows(poset, edges=None):
    """Edge signs with product -1 around every diamond (sign -1 <-> bit 1),
    or None if infeasible, by Gauss-Jordan elimination on the rows.

    A row is one int: bit k for edge k, bit len(edges) for the right-hand
    side.  Column by column, the pivot is the first row that is not yet a
    pivot and has the column's bit; each row left with the right-hand side
    sets its first edge to -1.
    """
    if edges is None:
        edges = covers_all_pairs(poset)
    diamonds, _ = diamonds_and_strands(poset, edges)
    index = {edge: k for k, edge in enumerate(edges)}
    rhs = 1 << len(edges)
    rows = []
    for w, y1, y2, z in diamonds:
        row = rhs
        for edge in ((w, y1), (y1, z), (w, y2), (y2, z)):
            row ^= 1 << index[edge]
        rows.append(row)
    free = list(range(len(rows)))  # rows that are not pivots, in order
    for col in range(len(edges)):
        bit = 1 << col
        p = next((k for k in free if rows[k] & bit), None)
        if p is None:
            continue
        free.remove(p)
        pivot = rows[p]
        for k, r in enumerate(rows):
            if r & bit and k != p:
                rows[k] = r ^ pivot
    if rhs in rows:  # 0 = 1
        return None
    bits = 0
    for r in rows:
        if r & rhs and r != rhs:
            bits |= r & -r  # the row's first edge
    return {edge: (-1 if bits >> k & 1 else 1) for edge, k in index.items()}


def dominance_block_full(la, ch, hbar):
    """{mu : mu dominates la with the same residue multiset}, searched among
    all multipartitions of |la| and cut to the heights hbar afterwards."""
    n = mp_size(la)
    target = residue_multiset(la, ch)
    out = []
    for mu in multipartitions_of(n, len(ch.s)):
        if any(h1 > h2 for h1, h2 in zip(heights(mu), hbar)):
            continue
        if residue_multiset(mu, ch) == target and dominates(mu, la, ch):
            out.append(mu)
    return sorted(out)


def admissible_transposition_reduced(m, i, e):
    """s_i is admissible at m when b_{i+1} != q^{+-1} b_i, decided on the
    weight reduced mod e."""
    m = tuple(x % e for x in m) if e else tuple(m)
    up = (m[i - 1] + 1) % e if e else m[i - 1] + 1
    down = (m[i - 1] - 1) % e if e else m[i - 1] - 1
    return m[i] != up and m[i] != down


def weight_class_by_search(m, e):
    """The weights that m, reduced mod e when e > 0, reaches by the s_i
    that admissible_transposition_reduced admits and that swap two
    different entries, by a breadth-first search, sorted."""
    start = tuple(x % e for x in m) if e else tuple(m)
    seen, queue = {start}, [start]
    for wt in queue:
        for i in range(1, len(wt)):
            if wt[i - 1] != wt[i] and admissible_transposition_reduced(wt, i, e):
                swapped = wt[:i - 1] + (wt[i], wt[i - 1]) + wt[i + 1:]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return sorted(seen)


class EagerSeminormalModule:
    """SeminormalModule with X and T built in the constructor, by the same
    _x_op and _t_op calls that build them on first read, and kept as lists
    of lists that a test may change.  X is built before the edge list and
    T after it, so the constructor rejects what those builds reject, in
    that order."""

    def __init__(self, cls, e, a=1):
        if gcd(a, e) != 1:
            raise ValueError("need gcd(a, e) = 1")
        if not cls:
            raise ValueError("empty weight class")
        self.cls = list(cls)
        if len(set(self.cls)) != len(self.cls):
            raise ValueError("a weight repeats in the weight class")
        self.e = e
        self.a = a
        self.n = len(cls[0])
        self.q = Cyc.zeta_power(e, a)
        self.X = column_lists(_x_op(self.cls, e, a, k) for k in range(self.n))
        edges = _class_edges(tuple(self.cls), e)
        self.T = column_lists(_t_op(edges, e, a, i) for i in range(self.n - 1))

    def dim(self):
        return len(self.cls)


def column_lists(ops):
    """Operators (column maps) as lists of lists of (i, coeff)."""
    return [[list(col) for col in op] for op in ops]


def class_form_signs_per_edge(cls, e, a=1):
    """Signs of the diagonal form values A_b on a sorted weight class,
    propagated from the least weight (sign +1) along admissible
    transpositions, with its own adjacency of the class and one re_compare
    of Re(q) against Re(b_i/b_{i+1}) per edge."""
    cls = sorted(cls)
    index = {b: j for j, b in enumerate(cls)}
    adj = {}
    for j, wt in enumerate(cls):
        for i in range(1, len(wt)):
            if wt[i - 1] != wt[i] and admissible_transposition_reduced(wt, i, e):
                swapped = wt[:i - 1] + (wt[i], wt[i - 1]) + wt[i + 1:]
                adj.setdefault(j, []).append((index[swapped], i))
    vals = {0: 1}
    frontier = [0]
    while frontier:
        j = frontier.pop()
        for k, i in adj.get(j, []):
            wt = cls[j]
            cmp = re_compare(a, a * (wt[i - 1] - wt[i]), e)
            if cmp == 0:
                raise ValueError("wall weight: Re(ratio) = Re(q) inside a class")
            target = vals[j] * (1 if cmp > 0 else -1)
            if k in vals:
                if vals[k] != target:
                    raise ValueError("inconsistent sign propagation around a cycle")
            else:
                vals[k] = target
                frontier.append(k)
    if len(vals) != len(cls):
        raise ValueError("weight class is not connected by admissible transpositions")
    return {b: vals[j] for j, b in enumerate(cls)}


def i_word_scan(mp, ch, i):
    """List of (box, sign) for residue i, increasing in dominance order,
    from a scan of every addable and removable box."""
    word = [(b, "+") for b in addable_boxes(mp, ch, i)]
    word += [(b, "-") for b in removable_boxes(mp, ch, i)]
    word.sort(key=lambda bs: box_key(bs[0], ch))
    return word


def f_tilde_scan(mp, ch, i):
    red = reduced_i_word(i_word_scan(mp, ch, i))
    plus = [b for b, sign in red if sign == "+"]
    return add_box(mp, plus[-1]) if plus else None


def e_tilde_scan(mp, ch, i):
    red = reduced_i_word(i_word_scan(mp, ch, i))
    minus = [b for b, sign in red if sign == "-"]
    return remove_box(mp, minus[0]) if minus else None


def _residues(bs, ch):
    return sorted({residue(b, ch) for b in bs})


def reachable_by_size_scan(n, ch):
    """The crystal-reachable multipartitions of each size 0..n, breadth
    first, trying f_tilde_scan at every residue of an addable box."""
    layers = [{tuple(() for _ in ch.s)}]
    for _ in range(n):
        nxt = set()
        for mp in layers[-1]:
            for i in _residues(addable_boxes(mp), ch):
                out = f_tilde_scan(mp, ch, i)
                if out is not None:
                    nxt.add(out)
        layers.append(nxt)
    return layers


def is_reachable_recursive(mp, ch):
    """mp is empty, or some e_tilde_scan image is reachable."""
    memo = {}

    def reachable(mp):
        if mp not in memo:
            memo[mp] = mp_size(mp) == 0 or any(
                down is not None and reachable(down)
                for down in (e_tilde_scan(mp, ch, i)
                             for i in _residues(removable_boxes(mp), ch)))
        return memo[mp]

    return reachable(mp)


def has_stuttering_build_recursive(mp, ch):
    """Can mp be written f_{i_n}...f_{i_1}(empty) with i_k = i_{k+1}
    somewhere?"""
    memo = {}

    def stutters(mp):
        if mp not in memo:
            out = False
            for i in _residues(removable_boxes(mp), ch):
                down = e_tilde_scan(mp, ch, i)
                if down is not None and (e_tilde_scan(down, ch, i) is not None
                                         or stutters(down)):
                    out = True
                    break
            memo[mp] = out
        return memo[mp]

    return stutters(mp)


def is_standard_tableau(t):
    shape = tuple(tuple(len(row) for row in comp) for comp in t)
    if not is_multipartition(shape):
        return False
    entries = [k for comp in t for row in comp for k in row]
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        return False
    for comp in t:
        for r, row in enumerate(comp):
            for c, k in enumerate(row):
                if c + 1 < len(row) and row[c + 1] <= k:
                    return False
                if r + 1 < len(comp) and c < len(comp[r + 1]) and comp[r + 1][c] <= k:
                    return False
    return True


def residue_sequence(t, ch):
    by_entry = tableau_boxes_by_entry(t)
    return tuple(residue(by_entry[k], ch) for k in range(1, len(by_entry) + 1))


def residue_multiset(mp, ch):
    out = {}
    for b in boxes(mp):
        i = residue(b, ch)
        out[i] = out.get(i, 0) + 1
    return out
