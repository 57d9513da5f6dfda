"""Independent slow-path evaluators used as oracles.

Everything here works on plain Python tuples and dicts, straight from the
displayed formulas, sharing no code with the vectorised implementations it
checks.  Signs and index conventions are written out longhand on purpose.
The Kronecker lift is built with the rings' ``mat_kron``, which the
strand-wise braid check and gauge conjugation never call.  The representative
longhand composes the library's level maps, which the homotopy identities
check against the displayed formulas, and exchanges each step with the level
projection, which the library's single walk does not build.
"""

import math
from fractions import Fraction
from itertools import product
from operator import mul

import numpy as np

from ybrack.cochains import add, coboundary, scale, zero_cochain
from ybrack.homotopy import insertion_homotopy, level_projection
from ybrack.rings import PrimeField


def all_tuples(q, n):
    return list(product(range(q), repeat=n))


def pair_basis_longhand(rack, n, mode):
    """Sorted pair codes of the diagonal or quasi-diagonal subcomplex: the
    pairs of n-tuples whose coordinates are equal, or have equal columns of
    the table (act alike), position by position."""
    q = rack.size
    column = [rack.column(a) for a in range(q)]
    related = {"diagonal": lambda a, b: a == b,
               "quasidiagonal": lambda a, b: column[a] == column[b]}[mode]
    tuples = all_tuples(q, n)
    return [x * q**n + y for x, xs in enumerate(tuples) for y, ys in enumerate(tuples)
            if all(map(related, xs, ys))]


def act_through(rack, element, suffix):
    """element acted on by each suffix coordinate in turn, left to right."""
    for y in suffix:
        element = rack.op(element, y)
    return element


def conj_prefix(rack, tup, i):
    """(x_0^{x_i}, ..., x_{i-1}^{x_i}, x_{i+1}, ..., x_{n}) as a tuple."""
    return tuple(rack.op(tup[a], tup[i]) for a in range(i)) + tup[i + 1:]


def drop(tup, i):
    return tup[:i] + tup[i + 1:]


def partial_coboundary_entry(rack, f, i, xs, ys):
    """(d_i f)[xs ; ys] for a cochain given as a dict {(xt, yt): value}.

    xs, ys are (n+1)-tuples, i runs 0..n.
    """
    n = len(xs) - 1
    plus = 0
    if act_through(rack, xs[i], xs[i + 1:]) == act_through(rack, ys[i], ys[i + 1:]):
        plus = f.get((drop(xs, i), drop(ys, i)), 0)
    minus = 0
    if xs[i] == ys[i]:
        minus = f.get((conj_prefix(rack, xs, i), conj_prefix(rack, ys, i)), 0)
    return plus - minus


def coboundary_entry(rack, f, xs, ys):
    n = len(xs) - 1
    total = 0
    for i in range(n + 1):
        term = partial_coboundary_entry(rack, f, i, xs, ys)
        total += term if i % 2 == 0 else -term
    return total


def partial_boundary_basis(rack, i, xs, ys):
    """Image of the basis chain |xs ; ys| under the i-th partial boundary.

    i runs 1..n; returns a dict over (n-1)-tuple basis pairs with integer
    coefficients.
    """
    j = i - 1
    out = {}
    if act_through(rack, xs[j], xs[j + 1:]) == act_through(rack, ys[j], ys[j + 1:]):
        key = (drop(xs, j), drop(ys, j))
        out[key] = out.get(key, 0) + 1
    if xs[j] == ys[j]:
        key = (conj_prefix(rack, xs, j), conj_prefix(rack, ys, j))
        out[key] = out.get(key, 0) - 1
    return out


def rack_coboundary_entry(rack, lam, args):
    """(delta lam)(a_0, ..., a_n) for lam a dict over n-tuples."""
    n = len(args) - 1
    total = 0
    for i in range(1, n + 1):
        keep = lam.get(drop(args, i), 0)
        moved = lam.get(conj_prefix(rack, args, i), 0)
        term = keep - moved
        total += -term if i % 2 else term
    return total


def pairing_value(q, n, chain, cochain):
    """tr(f g) evaluated termwise from the two dicts."""
    total = 0
    for (xs, ys), coeff in chain.items():
        total += coeff * cochain.get((ys, xs), 0)
    return total


def series_product_longhand(p, a, b):
    """The product of (N, rows, inner) and (N, inner, cols) coefficient stacks
    over F_p[h]/(h^N) by the schoolbook rule c_k = sum_{i<=k} a_i b_(k-i),
    each entry a sum of Python-int products; nested lists [k][row][col]."""
    order, rows, _ = a.shape
    cols = b.shape[2]
    a_rows = [[list(map(int, row)) for row in coeff] for coeff in a]
    b_cols = [[list(map(int, col)) for col in coeff.T] for coeff in b]
    return [[[sum(sum(map(mul, a_rows[i][r], b_cols[k - i][c])) for i in range(k + 1)) % p
              for c in range(cols)] for r in range(rows)] for k in range(order)]


def ring_grid(ring, rows):
    """A list of rows of scalars as a dense grid in ``ring``'s layout, set
    entry by entry."""
    grid = ring.zeros(len(rows), len(rows[0]) if len(rows) else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            ring.mat_set_entry(grid, i, j, v)
    return grid


def apply_longhand(mat, vec):
    """The product of an ExactMatrix with a list of scalars, one stored
    entry at a time."""
    ring = mat.ring
    out = [ring.zero()] * mat.rows
    for (i, j), v in mat.nonzero_items():
        out[i] = ring.add(out[i], ring.mul(v, vec[j]))
    return out


def transpose_longhand(mat):
    """The transpose of an ExactMatrix, rebuilt from swapped triples."""
    return type(mat).from_coordinates(mat.ring, mat.cols, mat.rows,
                                      ((j, i, v) for (i, j), v in mat.nonzero_items()))


def rref_longhand(grid, ring):
    """Gauss-Jordan on row dicts {col: value} with the ring's own scalars
    (``Fraction`` over Q, Python ints mod p over F_p).

    ``grid`` is a list of rows.  Returns the pivot columns and
    {pivot column: its reduced row as {col: value}}.
    """
    rows = [{j: v for j, v in enumerate(row) if not ring.is_zero(v)} for row in grid]
    cols = len(grid[0]) if grid else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, len(rows)) if c in rows[k]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = {j: ring.mul(inv, v) for j, v in rows[r].items()}
        for k in range(len(rows)):
            coeff = rows[k].get(c)
            if k == r or coeff is None:
                continue
            for j, v in rows[r].items():
                new = ring.sub(rows[k].get(j, ring.zero()), ring.mul(coeff, v))
                if ring.is_zero(new):
                    rows[k].pop(j, None)
                else:
                    rows[k][j] = new
        pivots.append(c)
        r += 1
    return pivots, {c: rows[k] for k, c in enumerate(pivots)}


def kernel_longhand(grid, ring):
    """One kernel vector per free column, in column order, read off the RREF."""
    cols = len(grid[0]) if grid else 0
    pivots, reduced = rref_longhand(grid, ring)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [ring.zero()] * cols
        vec[free] = ring.one()
        for c in pivots:
            if free in reduced[c]:
                vec[c] = ring.neg(reduced[c][free])
        basis.append(vec)
    return basis


def solve_longhand(grid, rhs, ring):
    """The solution of Mx = rhs with free coordinates zero, or None."""
    cols = len(grid[0])
    pivots, reduced = rref_longhand([list(row) + [b] for row, b in zip(grid, rhs)], ring)
    if cols in pivots:
        return None
    x = [ring.zero()] * cols
    for c in pivots:
        x[c] = reduced[c].get(cols, ring.zero())
    return x


def unit_pivots_longhand(mat):
    """(pivot count, core keys, core values) of ``linalg._unit_pivots``, with
    each round's pivots chosen by one sort of every unit entry.

    The values are integers: residues over F_p, and over Q each row scaled
    by the lcm of its denominators.  A round sorts the unit entries (1 and
    p - 1, or 1 and -1) by Markowitz cost (r - 1)(c - 1) and then position,
    keeps the first of each row and then the first of each column, and for
    each entry in one pivot's row and another pivot's column drops the later
    of the two pivots in that order.  The pivots meet in a diagonal diag(d)
    with d = d^-1, and the round replaces the matrix by its Schur complement.
    Over Q the rounds stop as soon as a sum could leave int64; the core's
    values are then Fractions of the scaled integers.
    """
    rows, cols = mat.rows, mat.cols
    keys = mat._keys
    prime = isinstance(mat.ring, PrimeField)
    unit = mat.ring.p - 1 if prime else -1
    int64_max = 2**63 - 1
    if prime:
        vals = mat._vals
    else:
        row_of = (keys // max(cols, 1)).tolist()
        lcm = {}
        for i, v in zip(row_of, mat._vals.tolist()):
            lcm[i] = math.lcm(lcm.get(i, 1), v.denominator)
        ints = [int(v * lcm[i]) for i, v in zip(row_of, mat._vals.tolist())]
        fits = all(abs(v) <= int64_max for v in ints)
        vals = np.array(ints, dtype=np.int64 if fits else object)
    count = 0
    while vals.size and vals.dtype != object:
        row, col = np.divmod(keys, cols)
        cand = np.flatnonzero((vals == 1) | (vals == unit))
        if not cand.size:
            break
        cost = ((np.bincount(row, minlength=rows)[row[cand]] - 1)
                * (np.bincount(col, minlength=cols)[col[cand]] - 1))
        cand = cand[np.argsort(cost, kind="stable")]
        for axis in (row, col):
            cand = cand[np.sort(np.unique(axis[cand], return_index=True)[1])]
        at_row, at_col = np.full(rows, -1), np.full(cols, -1)
        at_row[row[cand]] = at_col[col[cand]] = np.arange(cand.size)
        kr, kc = at_row[row], at_col[col]
        cross = (kr >= 0) & (kc >= 0) & (kr != kc)
        keep = np.ones(cand.size, dtype=bool)
        keep[np.maximum(kr[cross], kc[cross])] = False
        cand = cand[keep]
        at_row, at_col = np.full(rows, -1), np.full(cols, -1)
        at_row[row[cand]] = at_col[col[cand]] = np.arange(cand.size)
        kr, kc = at_row[row], at_col[col]
        rest = (kr < 0) & (kc < 0)
        lower = np.flatnonzero((kr < 0) & (kc >= 0))  # A[~R, C]
        right = np.flatnonzero((kr >= 0) & (kc < 0))  # A[R, ~C]
        if not prime and lower.size and right.size:
            # a cell takes at most one product per entry of its row in a pivot column
            per_cell = int(np.bincount(row[lower]).max())
            big = max(abs(int(vals[lower].max())), abs(int(vals[lower].min())))
            big *= max(abs(int(vals[right].max())), abs(int(vals[right].min())))
            if per_cell * big + max(map(abs, vals[rest].tolist()), default=0) > int64_max:
                break
        right = right[np.argsort(kr[right], kind="stable")]
        # each a below pivot k, times -d_k, meets each b beside pivot k
        k = kc[lower]
        width = np.bincount(kr[right], minlength=cand.size)[k]
        src = np.repeat(np.arange(lower.size), width)
        shift = np.searchsorted(kr[right], k) - (np.cumsum(width) - width)
        dst = right[np.arange(src.size) + np.repeat(shift, width)]
        f = -vals[lower] * vals[cand][k]
        if prime:
            f %= mat.ring.p
        prod = f[src] * vals[dst]
        if prime:
            prod %= mat.ring.p
        keys, where = np.unique(np.concatenate([row[lower][src] * cols + col[dst], keys[rest]]),
                                return_inverse=True)
        sums = np.zeros(keys.size, dtype=np.int64)
        np.add.at(sums, where, np.concatenate([prod, vals[rest]]))
        if prime:
            sums %= mat.ring.p
        keys, vals = keys[sums != 0], sums[sums != 0]
        count += cand.size
    core = vals.tolist() if prime else [Fraction(v) for v in vals.tolist()]
    return count, keys.tolist(), core


def lift_longhand(ring, matrix, dim, strands, position):
    """id^(position-1) tensor c tensor id^(strands-position-1) on the
    strands-fold tensor power, as two Kronecker products with identities."""
    if not 1 <= position <= strands - 1:
        raise ValueError(f"position {position} outside 1..{strands - 1}")
    left = ring.eye(dim ** (position - 1))
    right = ring.eye(dim ** (strands - position - 1))
    return ring.mat_kron(ring.mat_kron(left, matrix), right)


def _row_dicts(ring, mat):
    """A ring-layout matrix as {row: {col: nonzero scalar}}."""
    rows, cols = ring.shape(mat)
    out = {}
    for i in range(rows):
        for j in range(cols):
            v = ring.mat_entry(mat, i, j)
            if not ring.is_zero(v):
                out.setdefault(i, {})[j] = v
    return out


def _row_dicts_product(ring, a, b):
    out = {}
    for i, row in a.items():
        acc = {}
        for k, v in row.items():
            for j, w in b.get(k, {}).items():
                acc[j] = ring.add(acc.get(j, ring.zero()), ring.mul(v, w))
        out[i] = {j: v for j, v in acc.items() if not ring.is_zero(v)}
    return out


def braid_verdict_longhand(ring, matrix, dim):
    """(holds, witness, failure order) of c1 c2 c1 = c2 c1 c2, from the
    Kronecker lifts multiplied scalar by scalar as row dicts.

    The witness is the first differing entry in row-major order with both
    values; the failure order (truncated rings only) is the smallest
    valuation of a difference.
    """
    c1 = _row_dicts(ring, lift_longhand(ring, matrix, dim, 3, 1))
    c2 = _row_dicts(ring, lift_longhand(ring, matrix, dim, 3, 2))
    lhs = _row_dicts_product(ring, c1, _row_dicts_product(ring, c2, c1))
    rhs = _row_dicts_product(ring, c2, _row_dicts_product(ring, c1, c2))
    zero = ring.zero()
    diffs = {}
    for i in set(lhs) | set(rhs):
        left, right = lhs.get(i, {}), rhs.get(i, {})
        for j in set(left) | set(right):
            pair = (left.get(j, zero), right.get(j, zero))
            if not ring.eq(*pair):
                diffs[i, j] = pair
    if not diffs:
        return True, None, None
    first = min(diffs)
    order = None
    if ring.is_truncated:
        order = min(ring.valuation(ring.sub(*pair)) for pair in diffs.values())
    return False, (*first, *diffs[first]), order


def representative_longhand(f):
    """(rep, g) for a cocycle f, walking every level m = 0..degree-1 and
    checking at each that the level projection p(c) equals c + d(step) for
    step = -(-1)^(degree-m) s(c)."""
    n = f.degree
    if not coboundary(f).is_zero():
        raise ValueError("not a cocycle")
    current, g = f, zero_cochain(f.rack, n - 1, f.ring)
    for m in range(n):
        step = scale(1 if (n - m) % 2 else -1, insertion_homotopy(current, m))
        advanced = add(current, coboundary(step))
        if (advanced.values != level_projection(current, m).values).any():
            raise AssertionError(f"level-{m} projection is not c + d(step)")
        current, g = advanced, add(g, step)
    return current, g
