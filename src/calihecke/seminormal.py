"""Seminormal construction of calibrated modules for the affine and
cyclotomic Hecke algebras, with exact Hecke-relation verification and the
invariant Hermitian form.

A calibrated weight is stored by its exponent vector m (b_k = zeta^(a*m_k),
q = zeta^a, zeta = exp(2*pi*i/e)).  All matrix arithmetic is exact in
Q(zeta_e); operators are kept column-sparse (at most two entries per
column).

Along an edge s_i of a weight class, whether s_i is admissible, T_i's two
entries, the form ratio A_{s_i b}/A_b and its sign depend only on
b_i/b_{i+1} = zeta^(a*d), d = (m_i - m_{i+1}) mod e.  So T_i, the form
values and the form signs all read one edge list per class, built from
the sorted class in one place (_class_edges), and the entries and the
ratio are cached by (e, a, d).  The form values and signs are carried
from the first weight along every edge (_propagate).

A module is its construction: X_k and T_i are read-only tuples built on
first read, and the constructor makes every lookup that building them
would fail at.  So the checks never read them.  The commutation relations
and the invariance of X_k hold whatever the entries are.  quadratic_i and
txt_i read only the window (m_i, m_{i+1}) of each weight, braid_i only
(m_i, m_{i+1}, m_{i+2}), and T_i invariance only (m_i, m_{i+1}).  Each is
checked once per window that occurs, shifted to end in 0, on the
construction over the window's closure (at most 6 weights), every column
of both sides compared directly (_window_check).  Form invariance is
checked as an isometry, M^dagger G M = G, so no inverse operator is
built.  The window verdicts are memoised per (e, a, kind, window) across
modules, and a window at q = zeta^a takes the verdict at q = zeta:
sigma_a: zeta -> zeta^a (a prime to e) is a field automorphism of
Q(zeta_e) that commutes with complex conjugation, so an equality of such
matrices holds at a iff it holds at 1.  That the construction at a is the
sigma_a-image of the one at 1 is checked once per (e, a)
(_is_galois_image), not assumed.
"""

from functools import lru_cache
from math import gcd

from .cyclotomics import Cyc, re_compare


def _norm(m, e):
    return tuple(x % e for x in m)


def is_calibrated_weight(m, e):
    """For every equal pair m_i = m_j (i < j), both neighbours m_i + 1 and
    m_i - 1 must occur strictly between them, all mod e."""
    m = _norm(m, e)
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i] == m[j]:
                between = set(m[i + 1 : j])
                if (m[i] + 1) % e not in between or (m[i] - 1) % e not in between:
                    return False
    return True


def admissible_transposition(m, i, e):
    """s_i is admissible at m when b_{i+1} != q^{+-1} b_i, that is when
    m_{i+1} - m_i is not +-1 mod e."""
    d = m[i] - m[i - 1]
    return (d - 1) % e != 0 and (d + 1) % e != 0


def weight_class(m, e):
    """Closure of m under admissible transpositions, sorted (_walk)."""
    if not is_calibrated_weight(m, e):
        raise ValueError("weight is not calibrated")
    return list(_walk(_norm(m, e), e))


def _walk(start, e):
    """The weights that start (a tuple) reaches by transpositions s_i that
    are admissible and swap two different entries, by a breadth-first
    search, sorted, as a tuple: the rule of _class_edges.  On a calibrated
    weight no two neighbours are equal, so this is its weight class."""
    found, seen = [start], {start}
    for cur in found:
        for i in range(1, len(cur)):
            if cur[i - 1] != cur[i] and admissible_transposition(cur, i, e):
                nxt = cur[:i - 1] + (cur[i], cur[i - 1]) + cur[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    found.append(nxt)
    return tuple(sorted(found))


class SeminormalModule:
    """Exact matrices for T_1..T_{n-1} and X_1..X_n on a weight class.

    Operators are column maps: op[j] holds pairs (i, coeff) meaning the
    basis vector w_{cls[j]} maps to sum coeff * w_{cls[i]}.  X and T are
    read-only tuples of them, built on first read (_x_op, _t_op), so a
    module is its construction.
    """

    def __init__(self, cls, e, a=1):
        if gcd(a, e) != 1:
            raise ValueError("need gcd(a, e) = 1")
        if not cls:
            raise ValueError("empty weight class")
        self.cls = tuple(cls)
        if len(set(self.cls)) != len(self.cls):
            raise ValueError("a weight repeats in the weight class")
        self.e = e
        self.a = a
        self.n = len(cls[0])
        self.q = Cyc.zeta_power(e, a)
        self._X = self._T = None
        # every lookup that building X and T would fail at, in the same
        # order: an entry that is no index into the power table or a weight
        # shorter than the first (X), a class that is not closed (KeyError
        # in _class_edges) and a pole of _t_entries (ZeroDivisionError)
        power = _zeta_powers(e, a)
        for k in range(self.n):
            for wt in self.cls:
                power[wt[k] % e]
        for out in _class_edges(self.cls, e):
            for i in range(self.n - 1):
                _t_entries(e, a, out[i][1])

    @property
    def X(self):
        if self._X is None:
            self._X = tuple(_x_op(self.cls, self.e, self.a, k) for k in range(self.n))
        return self._X

    @property
    def T(self):
        if self._T is None:
            edges = _class_edges(self.cls, self.e)
            self._T = tuple(_t_op(edges, self.e, self.a, i) for i in range(self.n - 1))
        return self._T

    def dim(self):
        return len(self.cls)


def _x_op(cls, e, a, k):
    """X_{k+1} on the class cls: column j is the eigenvalue b = zeta^(a*m)
    at j, m = cls[j][k], read off the power table of (e, a)."""
    power = _zeta_powers(e, a)
    return tuple(((j, power[wt[k] % e]),) for j, wt in enumerate(cls))


def _t_op(edges, e, a, i):
    """T_{i+1} on a class with the edge list edges (see _class_edges):
    column j is the diagonal entry of _t_entries(e, a, d) at j and, where
    the edge list gives the index of s_{i+1} m, the off-diagonal one
    there."""
    cols = []
    for j, out in enumerate(edges):
        k, d = out[i]
        diag, off = _t_entries(e, a, d)
        cols.append(((j, diag),) if k is None else ((j, diag), (k, off)))
    return tuple(cols)


@lru_cache(maxsize=None)
def _zeta_powers(e, a):
    """zeta^(a*m) for m = 0..e-1: every eigenvalue b_k that X_k holds."""
    return tuple(Cyc.zeta_power(e, a * m) for m in range(e))


@lru_cache(maxsize=None)
def _t_entries(e, a, d):
    """The T_i entries at d = (m_i - m_{i+1}) mod e: the diagonal
    b_{i+1}(q - 1)/(b_{i+1} - b_i) = (q - 1)/(1 - r), r = b_i/b_{i+1} =
    zeta^(a*d), and the off-diagonal diagonal - q."""
    q, r = Cyc.zeta_power(e, a), Cyc.zeta_power(e, a * d)
    diag = (q - 1) / (1 - r)
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


@lru_cache(maxsize=None)
def _relation_table(n):
    """The defining relations at n in report order, as rows (name, kind,
    position): quadratic_i, braid_i and txt_i have kind "quadratic",
    "braid" or "txt" and position i - 1, the index of T_i; the commutation
    rows distant_*, xcomm_* and tx_* have kind and position None."""
    rows = [(f"quadratic_{i}", "quadratic", i - 1) for i in range(1, n)]
    rows += [(f"braid_{i}", "braid", i - 1) for i in range(1, n - 1)]
    rows += [(f"distant_{i}_{j}", None, None) for i in range(1, n) for j in range(i + 2, n)]
    rows += [(f"xcomm_{i}_{j}", None, None) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i in range(1, n):
        rows.append((f"txt_{i}", "txt", i - 1))
        rows += [(f"tx_{i}_{j}", None, None) for j in range(1, n + 1) if j not in (i, i + 1)]
    return tuple(rows)


def verify_hecke_relations(mod):
    """Exact verification of the defining relations on every basis vector,
    in the order of _relation_table.  mod is its construction, so no row
    reads its operators.

    The commutation rows distant_*, xcomm_* and tx_* hold whatever values
    _t_entries gives, so they are reported true:
    - every X_k is diagonal, and diagonal operators commute;
    - T_i column m has entries only at m and at s_i m, and s_i leaves m_j
      fixed for j not in {i, i+1}, so X_j scales both by the same b_j;
    - for |i - j| >= 2, s_i and s_j touch disjoint positions, so T_i's
      entries and the admissibility of s_i, which read only
      m_i - m_{i+1}, are the same at m and at s_j m, s_i s_j m = s_j s_i m,
      and T_i T_j and T_j T_i expand into the same four terms.
    quadratic_i and txt_i read the window (m_i, m_{i+1}) of each weight,
    and braid_i the window (m_i, m_{i+1}, m_{i+2}); each window is checked
    by _windows_hold, memoised across modules and shared across the
    coprime a whose construction is the sigma_a-image of the one at a = 1
    (the scalars q and q - 1 of the relations are then the images of zeta
    and zeta - 1 too).  This reads the module exactly:
    - the columns that column m reaches under the row's operators are the
      weights that admissible s_i (and s_{i+1}) reach from m, each once (a
      class that lacks one of them, or repeats a weight, builds no
      module); they change only the window, and their admissibility reads
      only the window, so they are the closure of m's window (_walk) with
      the other entries held fixed, and any weight of it gives the same
      closure;
    - T_i's entries and its admissibility read only m_i - m_{i+1}, so
      shifting every entry of a window by one constant changes no T;
    - X_i and X_{i+1} are diagonal, and a shift by c multiplies both by
      zeta^(-a*c) on every weight of the closure; txt_i is linear in the
      X's on each side, so dividing them by b_{i+1} keeps its verdict.
    So a row holds iff it holds on the construction over the closure of
    every window that occurs, shifted so that its last entry is 0."""
    e, a = mod.e, mod.a
    # per i, the difference d = (m_i - m_{i+1}) mod e at every weight
    ds = [[d for _, d in col] for col in zip(*_class_edges(mod.cls, e))]
    pairs = [{(d, 0) for d in col} for col in ds]
    report = {}
    for name, kind, i in _relation_table(mod.n):
        if kind is None:
            report[name] = True
        else:
            windows = pairs[i] if kind != "braid" else {
                ((x + y) % e, y, 0) for x, y in set(zip(ds[i], ds[i + 1]))}
            report[name] = _windows_hold(e, a, kind, windows)
    return report


def _windows_hold(e, a, kind, windows):
    """Does the row kind_1 (quadratic, txt or braid), or the T_1
    invariance (kind "invariance"), hold on the construction at (e, a)
    over the closure of every window in windows, each a tuple of 2 or 3
    residues ending in 0?  When the construction at (e, a) is the
    sigma_a-image of the one at (e, 1) (_is_galois_image), these are the
    verdicts at (e, 1): sigma_a is a field automorphism that commutes with
    complex conjugation, so it maps each side of a relation, and
    M^dagger G M, at a = 1 onto the one at a, and an equality holds at a
    iff it holds at 1."""
    if a != 1 and _is_galois_image(e, a):
        a = 1
    return all(_window_check(e, a, kind, w) for w in windows)


@lru_cache(maxsize=None)
def _window_check(e, a, kind, window):
    """_windows_hold at (e, a) itself, on one window: both sides of the
    relation, or M^dagger G M and G for T_1 invariance, built from _t_op
    and _x_op on the window's closure (_walk) and compared column by
    column.  The closure's edge list is built by _class_edges uncached, so
    it does not push the module's class out of that one-entry cache.  The
    closure is closed under the row's operators, and every window of it,
    shifted to end in 0, gives the same verdict (see
    verify_hecke_relations), so each window defers to the least of them.
    G is the diagonal of the construction's form values, 1 at the first
    weight, carried along every edge of the closure by _form_values, which
    raises its ValueError where two edges disagree.  The key holds no
    entry value: a change of _t_entries needs cache_clear."""
    cls = _walk(window, e)
    least = min(tuple((x - w[-1]) % e for x in w) for w in cls)
    if window != least:
        return _window_check(e, a, kind, least)
    edges = _class_edges.__wrapped__(cls, e)
    T = _t_op(edges, e, a, 0)
    if kind == "invariance":
        values = _form_values(edges, e, a)
        adjoint = [[] for _ in T]
        for j, col in enumerate(T):
            for i, c in col:
                adjoint[i].append((j, c.conj()))
        product = [(None, (adjoint, [((j, g),) for j, g in enumerate(values)], T))]
        return all(_column(product, j) == {j: g} for j, g in enumerate(values))
    q = Cyc.zeta_power(e, a)
    if kind == "quadratic":
        # (T_i + 1)(T_i - q) = 0  <=>  T_i^2 = (q - 1) T_i + q
        lhs, rhs = [(None, (T, T))], [(q - 1, (T,)), (q, ())]
    elif kind == "braid":
        U = _t_op(edges, e, a, 1)
        lhs, rhs = [(None, (T, U, T))], [(None, (U, T, U))]
    else:
        # txt: T_i X_i T_i = q X_{i+1}
        lhs, rhs = [(None, (T, _x_op(cls, e, a, 0), T))], [(q, (_x_op(cls, e, a, 1),))]
    return all(_column(lhs, j) == _column(rhs, j) for j in range(len(cls)))


@lru_cache(maxsize=None)
def _is_galois_image(e, a):
    """Is the construction at (e, a) the sigma_a-image of the one at
    (e, 1)?  It is when a is prime to e and every value it is built from
    is: _zeta_powers, and _t_entries and _form_ratio at every d, defined
    at both or at neither.  True for the formulas as they stand; checked
    once per (e, a), so a formula that is wrong at some a alone is caught.
    The key holds no entry value: a change of _t_entries needs
    cache_clear."""
    if gcd(a, e) != 1:
        return False

    def at(f, b, d):
        """f(e, b, d) as a tuple, or None where it divides by zero."""
        try:
            out = f(e, b, d)
        except ZeroDivisionError:
            return None
        return out if isinstance(out, tuple) else (out,)

    def image(values):
        return None if values is None else tuple(x.galois(a) for x in values)

    return _zeta_powers(e, a) == image(_zeta_powers(e, 1)) and all(
        at(f, a, d) == image(at(f, 1, d)) for f in (_t_entries, _form_ratio) for d in range(e))


@lru_cache(maxsize=1)
def _class_edges(cls, e):
    """The adjacency of the weight class cls (a tuple): per weight, in the
    order of cls, one (k, d) per i = 1..n-1, with k the index of s_i m when
    s_i is admissible (and m_i != m_{i+1}), else None, and d = (m_i -
    m_{i+1}) mod e.  One entry: a module, its form values and signs, and
    the sweeps over a ask for one class one after another.  This is the
    only code that lists edges; _window_check calls it uncached
    (__wrapped__) on a window's closure."""
    index = {b: j for j, b in enumerate(cls)}
    edges = []
    for wt in cls:
        out = []
        for i in range(1, len(wt)):
            k = None
            if wt[i - 1] != wt[i] and admissible_transposition(wt, i, e):
                k = index[wt[:i - 1] + (wt[i], wt[i - 1]) + wt[i + 1:]]
            out.append((k, (wt[i - 1] - wt[i]) % e))
        edges.append(tuple(out))
    return tuple(edges)


def _propagate(edges, start, step, inconsistent):
    """Values on a weight class with the edge list edges (see
    _class_edges), start at its first weight, carried along every edge:
    the value at s_i m is the value at m times step(d).  Raises
    ValueError(inconsistent) where an edge disagrees with the value
    already set."""
    vals = [start] + [None] * (len(edges) - 1)
    frontier = [0] if edges else []
    reached = 1
    while frontier:
        j = frontier.pop()
        value = vals[j]
        for k, d in edges[j]:
            if k is None:
                continue
            target = value * step(d)
            if vals[k] is None:
                vals[k] = target
                frontier.append(k)
                reached += 1
            elif vals[k] != target:
                raise ValueError(inconsistent)
    if reached != len(edges):
        raise ValueError("weight class is not connected by admissible transpositions")
    return vals


def class_form_signs(cls, e, a=1):
    """Signs of the diagonal form values A_b on a sorted weight class,
    propagated from the lexicographically least weight (sign +1) along
    admissible transpositions; the ratio rule is
    sign(A_{s_i b}/A_b) = sign(Re(q) - Re(b_i/b_{i+1})), decided exactly by
    re_compare on exponents.  No matrices are needed.

    The sign of an edge depends only on d = (m_i - m_{i+1}) mod e, so
    re_compare runs once per difference d that the walk meets.  a must be
    prime to e, so that q = zeta^a is primitive; then no edge is a wall:
    Re(zeta^(a*d)) = Re(q) means a*d = +-a, so d = +-1 (mod e), and s_i is
    not admissible there."""
    if gcd(a, e) != 1:
        raise ValueError("need gcd(a, e) = 1")
    cls = tuple(sorted(cls))
    signs = {}  # d -> the sign along an edge of difference d

    def step(d):
        sign = signs.get(d)
        if sign is None:
            # Re(q) against Re(b_i / b_{i+1}) at the source weight
            sign = signs[d] = 1 if re_compare(a, a * d, e) > 0 else -1
        return sign

    vals = _propagate(_class_edges(cls, e), 1, step, "inconsistent sign propagation around a cycle")
    return dict(zip(cls, vals))


def form_signs(mod):
    return class_form_signs(mod.cls, mod.e, mod.a)


def form_values(mod):
    """Exact diagonal Gram entries A_b (real cyclotomic numbers), with the
    base weight normalized to A = 1, propagated by the ratio
    A_{s_i b} / A_b = (b_i - q b_{i+1}) / (q b_i - b_{i+1}), which is what
    form invariance under T_i forces."""
    return _form_values(_class_edges(tuple(mod.cls), mod.e), mod.e, mod.a)


def _form_values(edges, e, a):
    """form_values on a class with the edge list edges at (e, a)."""
    return _propagate(edges, Cyc.one(e), lambda d: _form_ratio(e, a, d),
                      "inconsistent form values around a cycle")


@lru_cache(maxsize=None)
def _form_ratio(e, a, d):
    """A_{s_i b} / A_b = (b_i - q b_{i+1}) / (q b_i - b_{i+1}) = (r - q)/(q r - 1)
    at d = (m_i - m_{i+1}) mod e, r = b_i/b_{i+1} = zeta^(a*d)."""
    q, r = Cyc.zeta_power(e, a), Cyc.zeta_power(e, a * d)
    return (r - q) / (q * r - 1)


def is_unitary_class(mod):
    return all(s == 1 for s in form_signs(mod).values())


def verify_form_invariance(mod):
    """Check that every T_i and X_k is an isometry of the exact diagonal
    Gram form G (form_values): < M u, M v > = < u, v >, that is
    M^dagger G M = G with dagger the cyclotomic conjugate-transpose.  An
    isometry is invertible, because no form value is 0, so this is
    < M u, v > = < u, M^{-1} v > without forming M^{-1}.

    mod is its construction, so no operator is read.  Every X_k is an
    isometry: it is diagonal with roots of unity b on the diagonal, and
    conj(b) g b = g for every diagonal form value g.  T_i is read off
    windows.  G has no zero and g_k = g_j * _form_ratio(e, a, d) along
    every edge j -> k = s_i j.  T_i keeps the span of w_j and w_k (of w_j
    alone where s_i is not admissible), reads on it only d = (m_i -
    m_{i+1}) mod e at j, and G on it is g_j times the form (1, ratio) of
    the construction over the closure of the window (d, 0).  M^dagger
    (c G) M = c G iff M^dagger G M = G for c != 0, so T_i is an isometry
    iff it is one on each such window: _windows_hold(e, a, "invariance",
    ...) over the windows (d, 0) that occur, memoised and shared across
    coprime a as the relation windows are.  Each window builds its form
    values as G is built (_form_values), and raises the same ValueError
    where they disagree."""
    e, a = mod.e, mod.a
    edges = _class_edges(mod.cls, e)
    report = {}
    for i in range(1, mod.n):
        windows = {(out[i - 1][1], 0) for out in edges}
        report[f"T_{i}"] = _windows_hold(e, a, "invariance", windows)
    for k in range(1, mod.n + 1):
        report[f"X_{k}"] = True
    return report


def cyclotomic_membership(mod, ch):
    """Does prod_i (X_1 - q^{s_i}) vanish?  X_1 is diagonal with entries
    zeta^(a*m_1) and a is a unit mod e, so this asks that each m_1 is an
    s_i mod e.  A charge at another e than the module's raises ValueError."""
    if ch.e != mod.e:
        raise ValueError("the charge and the module must have the same e")
    targets = {s % mod.e for s in ch.s}
    return all(wt[0] % mod.e in targets for wt in mod.cls)


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
