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
standard tableau of t^degree; ``alcove_filtered_basis`` is the original KLR
basis, every standard tableau filtered by rebuilding each prefix shape from
its boxes and testing it against the fundamental alcove, and
``path_residues`` reads a path's residues off its coordinates.
``in_fundamental_alcove_direct`` is the original alcove test, which
recomputes rho and the origin's window of every positive root on each call,
and raises for a frame whose origin lies on a wall before it reads the label.
``sign_assignment_lists`` is the original diamond sign solver, GF(2)
elimination on rows stored as lists of 0/1 entries.
``dominance_block_full`` is the original dominance block, which tests every
multipartition of |la| and drops those too tall for the frame afterwards.
``admissible_transposition_reduced`` is the original admissibility test,
which reduces the whole weight mod e before comparing two of its entries.
"""

from fractions import Fraction

from calihecke.alcoves import embed, rho
from calihecke.bgg import covers, diamonds_and_strands
from calihecke.cyclotomics import Cyc, cyclotomic_polynomial
from calihecke.multipartitions import (
    dominates,
    heights,
    mp_size,
    multipartitions_of,
    residue_multiset,
    standard_tableaux,
    tableau_boxes_by_entry,
    tableau_degree,
)
from calihecke.seminormal import form_values


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


def sign_assignment_lists(poset, edges=None):
    """Edge signs with product -1 around every diamond (sign -1 <-> bit 1),
    or None if infeasible, by elimination on lists of 0/1 entries."""
    if edges is None:
        edges = covers(poset)
    diamonds, _ = diamonds_and_strands(poset, edges)
    index = {edge: k for k, edge in enumerate(edges)}
    rows = []
    for w, y1, y2, z in diamonds:
        row = [0] * (len(edges) + 1)
        for edge in ((w, y1), (y1, z), (w, y2), (y2, z)):
            row[index[edge]] ^= 1
        row[-1] = 1
        rows.append(row)
    pivots = []
    for col in range(len(edges)):
        pivot = next((r for r in rows if r[col] == 1 and
                      all(r[c] == 0 for c in pivots)), None)
        if pivot is None:
            continue
        pivots.append(col)
        for r in rows:
            if r is not pivot and r[col] == 1:
                for c in range(len(edges) + 1):
                    r[c] ^= pivot[c]
    if any(all(x == 0 for x in r[:-1]) and r[-1] == 1 for r in rows):
        return None
    bits = [0] * len(edges)
    for r in rows:
        cols = [c for c in range(len(edges)) if r[c] == 1]
        if cols and r[-1] == 1:
            bits[cols[0]] = 1
    return {edge: (-1 if bits[k] else 1) for edge, k in index.items()}


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
