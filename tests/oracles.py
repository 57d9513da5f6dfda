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

from itertools import product
from operator import mul

from ybrack.cochains import add, coboundary, scale, zero_cochain
from ybrack.homotopy import insertion_homotopy, level_projection


def all_tuples(q, n):
    return list(product(range(q), repeat=n))


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
