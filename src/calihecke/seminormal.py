"""Seminormal construction of calibrated modules for the affine and
cyclotomic Hecke algebras, with exact Hecke-relation verification and the
invariant Hermitian form.

A calibrated weight is stored by its exponent vector m (b_k = zeta^(a*m_k),
q = zeta^a, zeta = exp(2*pi*i/e)).  All matrix arithmetic is exact in
Q(zeta_e); operators are kept column-sparse (at most two entries per
column).

T_i moves a basis vector only within the span of w_m and w_{s_i m}, and X_k
is diagonal, so every relation and every invariance condition, read on one
column, involves only the orbit of that column under the operators it
names: at most 6 weights.  Both checks walk the columns one orbit at a
time and memoise the verdict on the orbit's local submatrices, relabelled
0..k-1 and written as exact integers, so equal local configurations are
checked once.  The relations come from one table per (n, e, a).  Form
invariance is checked as an isometry, M^dagger G M = G for every T_i and
X_k, so no inverse operator is built.
"""

from functools import lru_cache

from .cyclotomics import Cyc, _new, re_compare


def _norm(m, e):
    return tuple(x % e for x in m) if e else tuple(m)


def is_calibrated_weight(m, e):
    """For every equal pair m_i = m_j (i < j), both neighbours m_i + 1 and
    m_i - 1 must occur strictly between them (all mod e when e > 0)."""
    m = _norm(m, e)
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i] == m[j]:
                between = set(m[i + 1 : j])
                up = (m[i] + 1) % e if e else m[i] + 1
                down = (m[i] - 1) % e if e else m[i] - 1
                if up not in between or down not in between:
                    return False
    return True


def admissible_transposition(m, i, e):
    """s_i is admissible at m when b_{i+1} != q^{+-1} b_i, that is when
    m_{i+1} - m_i is not +-1 (mod e when e > 0)."""
    d = m[i] - m[i - 1]
    if e:
        return (d - 1) % e != 0 and (d + 1) % e != 0
    return d != 1 and d != -1


def weight_class(m, e):
    """Closure of m under admissible transpositions, sorted."""
    if not is_calibrated_weight(m, e):
        raise ValueError("weight is not calibrated")
    start = _norm(m, e)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for i in range(1, len(cur)):
            if admissible_transposition(cur, i, e):
                nxt = list(cur)
                nxt[i - 1], nxt[i] = nxt[i], nxt[i - 1]
                nxt = tuple(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return sorted(seen)


class SeminormalModule:
    """Exact matrices for T_1..T_{n-1} and X_1..X_n on a weight class.

    Operators are stored as column maps: op[j] is a list of (i, coeff)
    meaning the basis vector w_{class[j]} maps to sum coeff * w_{class[i]}.
    """

    def __init__(self, cls, e, a=1):
        if not cls:
            raise ValueError("empty weight class")
        self.cls = list(cls)
        self.e = e
        self.a = a
        self.n = len(cls[0])
        self.index = {b: i for i, b in enumerate(self.cls)}
        self.q = Cyc.zeta_power(e, a)
        self.X = [self._x_op(k) for k in range(1, self.n + 1)]
        self.T = [self._t_op(k) for k in range(1, self.n)]

    def dim(self):
        return len(self.cls)

    def _b(self, wt, k):
        """Eigenvalue b_k = zeta^(a*m_k) at the weight wt."""
        return Cyc.zeta_power(self.e, self.a * wt[k - 1])

    def _x_op(self, k):
        return [[(j, self._b(wt, k))] for j, wt in enumerate(self.cls)]

    def _t_op(self, i):
        e = self.e
        cols = []
        for j, wt in enumerate(self.cls):
            diag, off = _t_entries(e, self.a, wt[i - 1] % e, wt[i] % e)
            col = [(j, diag)]
            if admissible_transposition(wt, i, e):
                swapped = list(wt)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                col.append((self.index[tuple(swapped)], off))
            cols.append(col)
        return cols


@lru_cache(maxsize=None)
def _t_entries(e, a, mi, mi1):
    """The T_i entries at a weight with (m_i, m_{i+1}) = (mi, mi1) mod e:
    the diagonal b_{i+1}(q - 1)/(b_{i+1} - b_i) and the off-diagonal
    diagonal - q.  At most e^2 pairs per (e, a)."""
    q = Cyc.zeta_power(e, a)
    bi, bi1 = Cyc.zeta_power(e, a * mi), Cyc.zeta_power(e, a * mi1)
    diag = bi1 * (q - 1) / (bi1 - bi)
    return diag, diag - q


def seminormal_module(cls, e, a=1):
    return SeminormalModule(cls, e, a)


def _column(side, j):
    """Column j of one side of a relation.  A side is a list of terms
    (scalar or None, ops): the product ops[0] ... ops[-1] of stored column
    maps, times the scalar; an empty product is the identity.  The product
    starts from the stored column j of ops[-1], an index listed twice is
    summed, and zero entries are dropped."""
    out = {}
    for scalar, ops in side:
        vec = None
        for op in reversed(ops):
            pairs = op[j] if vec is None else [
                (i, coeff * c) for k, c in vec.items() for i, coeff in op[k]]
            vec = {}
            for i, c in pairs:
                vec[i] = vec[i] + c if i in vec else c
        if vec is None:
            vec = {j: scalar}
        elif scalar is not None:
            vec = {i: scalar * c for i, c in vec.items()}
        for i, c in vec.items():
            out[i] = out[i] + c if i in out else c
    return {i: c for i, c in out.items() if not c.is_zero()}


def _orbits(ops, dim):
    """Yield (orbit, pos): the indices that a column reaches through the
    column maps of ops, in walk order from the first column not yet
    covered, and pos[index] = its place in the orbit.  Each orbit is closed
    under every op, and together they cover all dim columns."""
    covered = [False] * dim
    for j in range(dim):
        if covered[j]:
            continue
        orbit, pos = [j], {j: 0}
        for k in orbit:
            for op in ops:
                for i, _ in op[k]:
                    if i not in pos:
                        pos[i] = len(orbit)
                        orbit.append(i)
        for k in orbit:
            covered[k] = True
        yield orbit, pos


def _local(op, orbit, pos):
    """The submatrix of op on a closed orbit as one flat int tuple: per
    local column its entry count, then per entry the local row, the
    denominator and the phi(e) numerators."""
    flat = []
    for k in orbit:
        col = op[k]
        flat.append(len(col))
        for i, c in col:
            flat.append(pos[i])
            flat.append(c.den)
            flat.extend(c.num)
    return tuple(flat)


def _unflatten_columns(e, flat):
    """The column map that _local wrote into flat."""
    d = len(Cyc.zero(e).num)
    cols, p = [], 0
    while p < len(flat):
        col, count = [], flat[p]
        p += 1
        for _ in range(count):
            col.append((flat[p], _new(e, flat[p + 2:p + 2 + d], flat[p + 1])))
            p += 2 + d
        cols.append(col)
    return cols


@lru_cache(maxsize=None)
def _relation_table(n, e, a):
    """The defining relations at (n, e, a) in report order, as rows (name,
    slots, shape): slots index the distinct operators, in order of first
    use, into mod.T + mod.X; shape is each side's terms, the scalar as
    (num, den) or None and the operators as positions in slots."""
    zq = Cyc.zeta_power(e, a)
    q, q1 = (zq.num, zq.den), ((zq - 1).num, (zq - 1).den)  # as (num, den)
    commute = (((None, (0, 1)),), ((None, (1, 0)),))
    x = n - 2  # X_k is at x + k
    # (T_i + 1)(T_i - q) = 0  <=>  T_i^2 = (q - 1) T_i + q
    rows = [(f"quadratic_{i}", (i - 1,), (((None, (0, 0)),), ((q1, (0,)), (q, ()))))
            for i in range(1, n)]
    rows += [(f"braid_{i}", (i - 1, i), (((None, (0, 1, 0)),), ((None, (1, 0, 1)),)))
             for i in range(1, n - 1)]
    rows += [(f"distant_{i}_{j}", (i - 1, j - 1), commute)
             for i in range(1, n) for j in range(i + 2, n)]
    rows += [(f"xcomm_{i}_{j}", (x + i, x + j), commute)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i in range(1, n):
        rows.append((f"txt_{i}", (i - 1, x + i, x + i + 1), (((None, (0, 1, 0)),), ((q, (2,)),))))
        rows += [(f"tx_{i}_{j}", (i - 1, x + j), commute)
                 for j in range(1, n + 1) if j not in (i, i + 1)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _relation_verdict(e, shape, local):
    """Does the relation of this shape hold on every column of the local
    operators (one flat tuple each, see _local)?  Everything is rebuilt
    from the key, so equal keys give equal verdicts."""
    ops = [_unflatten_columns(e, flat) for flat in local]

    def side(terms):
        return [(None if s is None else _new(e, *s), tuple(ops[k] for k in positions))
                for s, positions in terms]

    lhs, rhs = side(shape[0]), side(shape[1])
    return all(_column(lhs, j) == _column(rhs, j) for j in range(len(ops[0])))


def verify_hecke_relations(mod):
    """Exact verification of the defining relations on every basis vector:
    each row of _relation_table holds when every column of its two sides
    agrees.  The columns are checked one orbit of the row's operators at a
    time, each through the verdict memo _relation_verdict."""
    ops, e, dim = mod.T + mod.X, mod.e, mod.dim()
    report = {}
    for name, slots, shape in _relation_table(mod.n, e, mod.a):
        row = [ops[k] for k in slots]
        report[name] = all(_relation_verdict(e, shape, tuple(_local(op, orbit, pos) for op in row))
                           for orbit, pos in _orbits(row, dim))
    return report


def _propagate(cls, e, start, step, inconsistent):
    """Values on the weight class cls, start at cls[0], carried along every
    admissible transposition s_i: the value at s_i b is the value at b times
    step(b, i).  Raises ValueError(inconsistent) when two paths disagree."""
    index = {b: j for j, b in enumerate(cls)}
    adj = {}
    for j, wt in enumerate(cls):
        for i in range(1, len(wt)):
            if wt[i - 1] != wt[i] and admissible_transposition(wt, i, e):
                swapped = wt[:i - 1] + (wt[i], wt[i - 1]) + wt[i + 1:]
                adj.setdefault(j, []).append((index[swapped], i))
    vals = {0: start}
    frontier = [0]
    while frontier:
        j = frontier.pop()
        for k, i in adj.get(j, []):
            target = vals[j] * step(cls[j], i)
            if k in vals:
                if vals[k] != target:
                    raise ValueError(inconsistent)
            else:
                vals[k] = target
                frontier.append(k)
    if len(vals) != len(cls):
        raise ValueError("weight class is not connected by admissible transpositions")
    return [vals[j] for j in range(len(cls))]


@lru_cache(maxsize=1)
def _class_edges(cls, e):
    """The edges of the sorted weight class cls: for each weight, in class
    order, a tuple of (neighbour index, (m_i - m_{i+1}) mod e) over the
    admissible transpositions s_i with m_i != m_{i+1}, in order of i.  One
    entry: the sweeps, the locus oracle and the benchmark ask for the
    values of a of one class one after another."""
    index = {b: j for j, b in enumerate(cls)}
    edges = []
    for wt in cls:
        out = []
        for i in range(1, len(wt)):
            if wt[i - 1] != wt[i] and admissible_transposition(wt, i, e):
                swapped = wt[:i - 1] + (wt[i], wt[i - 1]) + wt[i + 1:]
                out.append((index[swapped], (wt[i - 1] - wt[i]) % e))
        edges.append(tuple(out))
    return tuple(edges)


def class_form_signs(cls, e, a=1):
    """Signs of the diagonal form values A_b on a sorted weight class,
    propagated from the lexicographically least weight (sign +1) along
    admissible transpositions; the ratio rule is
    sign(A_{s_i b}/A_b) = sign(Re(q) - Re(b_i/b_{i+1})), decided exactly by
    re_compare on exponents.  No matrices are needed.

    The class's edges are cached per (class, e), and the sign of an edge
    depends only on d = (m_i - m_{i+1}) mod e, so re_compare runs once per
    difference d that the walk meets."""
    cls = tuple(sorted(cls))
    edges = _class_edges(cls, e)
    step = {}  # d -> the sign along an edge of difference d

    vals = {0: 1}
    frontier = [0] if cls else []
    while frontier:
        j = frontier.pop()
        for k, d in edges[j]:
            sign = step.get(d)
            if sign is None:
                # Re(q) against Re(b_i / b_{i+1}) at the source weight
                cmp = re_compare(a, a * d, e)
                if cmp == 0:
                    raise ValueError("wall weight: Re(ratio) = Re(q) inside a class")
                sign = step[d] = 1 if cmp > 0 else -1
            target = vals[j] * sign
            if k in vals:
                if vals[k] != target:
                    raise ValueError("inconsistent sign propagation around a cycle")
            else:
                vals[k] = target
                frontier.append(k)
    if len(vals) != len(cls):
        raise ValueError("weight class is not connected by admissible transpositions")
    return {b: vals[j] for j, b in enumerate(cls)}


def form_signs(mod):
    return class_form_signs(mod.cls, mod.e, mod.a)


def form_values(mod):
    """Exact diagonal Gram entries A_b (real cyclotomic numbers), with the
    base weight normalized to A = 1, propagated by the ratio
    A_{s_i b} / A_b = (b_i - q b_{i+1}) / (q b_i - b_{i+1}), which is what
    form invariance under T_i forces."""

    e, a = mod.e, mod.a

    def step(wt, i):
        return _form_ratio(e, a, wt[i - 1] % e, wt[i] % e)

    return _propagate(mod.cls, e, Cyc.one(e), step,
                      "inconsistent form values around a cycle")


@lru_cache(maxsize=None)
def _form_ratio(e, a, mi, mi1):
    """A_{s_i b} / A_b = (b_i - q b_{i+1}) / (q b_i - b_{i+1}) at a weight
    with (m_i, m_{i+1}) = (mi, mi1) mod e.  At most e^2 pairs per (e, a)."""
    q = Cyc.zeta_power(e, a)
    bi, bi1 = Cyc.zeta_power(e, a * mi), Cyc.zeta_power(e, a * mi1)
    return (bi - q * bi1) / (q * bi - bi1)


def is_unitary_class(mod):
    return all(s == 1 for s in form_signs(mod).values())


def verify_form_invariance(mod):
    """Check that every T_i and X_k is an isometry of the exact diagonal
    Gram form G: < M u, M v > = < u, v >, that is M^dagger G M = G with
    dagger the cyclotomic conjugate-transpose.  An isometry is invertible,
    because no form value is 0, so this is < M u, v > = < u, M^{-1} v >
    without forming M^{-1}.

    The columns are checked one orbit of M at a time, each through the
    verdict memo _invariance_verdict.  Every entry of a column lies in that
    column's orbit, and an orbit is closed under M, so M^dagger G M is
    computed exactly on each orbit.  An entry of M^dagger G M whose row k
    and column j share no orbit needs a row i that columns j and k both
    hold, with k not reached from i: an entry M_ik whose mirror M_ki is 0,
    which only a corruption adds.  The orbit of k then holds the closed
    orbit P of i but not k.  If M^dagger G M = G holds on P, M is
    invertible there, because no form value is 0, so the entries of column
    k in the rows of P give column k of M^dagger G M a nonzero entry in a
    row of P, and the check of the orbit of k fails.  So the orbit checks
    all pass exactly when M^dagger G M = G."""
    G = [[(j, g)] for j, g in enumerate(form_values(mod))]  # as a diagonal column map

    def invariant(op):
        return all(_invariance_verdict(mod.e, _local(G, orbit, pos), _local(op, orbit, pos))
                   for orbit, pos in _orbits((op,), mod.dim()))

    report = {}
    for i in range(1, mod.n):
        report[f"T_{i}"] = invariant(mod.T[i - 1])
    for k in range(1, mod.n + 1):
        report[f"X_{k}"] = invariant(mod.X[k - 1])
    return report


@lru_cache(maxsize=None)
def _invariance_verdict(e, g, op):
    """M^dagger G M = G on every column of the local operator, with g the
    local form values as a diagonal column map (flat tuples, see _local),
    rebuilt from the key alone.  Each column of the product goes through
    _column, as the relations do."""
    G, M = _unflatten_columns(e, g), _unflatten_columns(e, op)
    adjoint = [[] for _ in M]
    for j, col in enumerate(M):
        for i, c in col:
            adjoint[i].append((j, c.conj()))
    product = [(None, (adjoint, G, M))]
    return all(_column(product, j) == dict(G[j]) for j in range(len(M)))


def cyclotomic_membership(mod, ch):
    """Does prod_i (X_1 - q^{s_i}) vanish?  X_1 is diagonal, so this just
    asks that every weight's first eigenvalue is one of the Q_i."""
    targets = {(ch.a * s) % mod.e for s in ch.s}
    return all((mod.a * wt[0]) % mod.e in targets for wt in mod.cls)


def enumerate_calibrated_classes(n, e):
    """All weight classes of calibrated exponent vectors in (Z/e)^n,
    each represented by its sorted member list."""
    classes = []
    seen = set()
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            if prefix not in seen and is_calibrated_weight(prefix, e):
                cls = tuple(weight_class(prefix, e))
                seen.update(cls)
                classes.append(list(cls))
            continue
        # prune: m_i != m_{i+1} always; m_i != m_{i+2} unless e = 2, where
        # +1 and -1 coincide mod e and a single value between suffices
        for v in range(e):
            if len(prefix) >= 1 and prefix[-1] == v:
                continue
            if e != 2 and len(prefix) >= 2 and prefix[-2] == v:
                continue
            stack.append(prefix + (v,))
    return sorted(classes)
