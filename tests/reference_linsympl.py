"""Reference oracle: the plain Fraction Gauss-Jordan linear algebra.

A frozen copy of ``microsympl.linsympl``'s elimination routines as they were
before the fraction-free kernel, and of ``microsympl.sampling``'s symplectic
samplers as they were before block moves.  Tests require the library to agree
with these functions exactly; do not optimise this file.
"""

from fractions import Fraction

from microsympl.sampling import rand_invertible_int_matrix, rand_symmetric_matrix


def frac(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def unit_vector(n, index):
    return tuple(Fraction(1 if i == index else 0) for i in range(n))


def identity_matrix(n):
    return tuple(unit_vector(n, i) for i in range(n))


def rref(rows):
    """Reduced row echelon form and pivot column indices."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work), tuple(pivots)


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix."""
    if not rows:
        n = ncols if ncols is not None else 0
        return identity_matrix(n)
    n = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * n
        v[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            v[pcol] = -red[i][fcol]
        basis.append(tuple(v))
    return tuple(basis)


def solve(rows, rhs):
    """One solution of rows @ v = rhs, or None when the system is inconsistent."""
    if not rows:
        return () if not any(rhs) else None
    n = len(rows[0])
    aug = tuple(tuple(row) + (b,) for row, b in zip(rows, rhs))
    red, pivots = rref(aug)
    if n in pivots:
        return None
    v = [Fraction(0)] * n
    for i, pcol in enumerate(pivots):
        v[pcol] = red[i][n]
    return tuple(v)


def mat_inverse(rows):
    n = len(rows)
    if n == 0:
        return ()
    aug = tuple(tuple(row) + unit_vector(n, i) for i, row in enumerate(rows))
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        return None
    return tuple(row[n:] for row in red[:n])


def reduce_span(vectors):
    """Deterministic basis of the span (nonzero rows of the rref)."""
    vecs = tuple(tuple(frac(x) for x in v) for v in vectors)
    if not vecs:
        return ()
    red, pivots = rref(vecs)
    return tuple(red[i] for i in range(len(pivots)))


# -- the linear checks, as they were on Fraction vectors -----------------------
#
# Relations are the library's ``LinCanonicalRelation`` objects, read only
# through ``source_half_dim``, ``target_half_dim`` and ``vectors``; results
# are plain tuples: a basis, ``(ok, reasons)``, or ``(point, directions)``.


def zero_vector(n):
    return (Fraction(0),) * n


def lin_combo(vectors, coeffs):
    n = len(vectors[0]) if vectors else 0
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return tuple(out)


def form(blocks, u, v):
    """The signed symplectic form of the block space ``blocks``."""
    total = Fraction(0)
    offset = 0
    for n, sign in blocks:
        for i in range(n):
            a, b = u[offset + n + i], v[offset + i]
            if a and b:
                total += sign * a * b
            a, b = v[offset + n + i], u[offset + i]
            if a and b:
                total -= sign * a * b
        offset += 2 * n
    return total


def is_lagrangian(blocks, vectors):
    """``(ok, reasons)``; the length check of the library is left out."""
    vecs = tuple(tuple(frac(x) for x in v) for v in vectors)
    n = sum(half for half, _ in blocks)
    reasons = []
    r = rank(vecs)
    if r != n or len(vecs) != n:
        reasons.append(f"rank defect: {len(vecs)} vectors of rank {r}, expected {n}")
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            val = form(blocks, vecs[i], vecs[j])
            if val:
                reasons.append(f"form(basis[{i}], basis[{j}]) = {val} != 0")
    return not reasons, tuple(reasons)


def subspace_contains(span, v):
    base = list(span)
    return rank(tuple(base + [tuple(v)])) == rank(tuple(base)) if base else not any(v)


def subspace_equal(a, b):
    a = tuple(tuple(x) for x in a)
    b = tuple(tuple(x) for x in b)
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    return rank(a + b) == ra


def compose_linear(w, v):
    """Basis of the composite relation (its rref rows)."""
    mid = 2 * v.target_half_dim
    vvecs, wvecs = v.vectors, w.vectors
    rows = []
    for r in range(mid):
        rows.append(tuple(vec[2 * v.source_half_dim + r] for vec in vvecs)
                    + tuple(-vec[r] for vec in wvecs))
    combos = nullspace(tuple(rows), ncols=len(vvecs) + len(wvecs))
    produced = []
    for combo in combos:
        a, b = combo[:len(vvecs)], combo[len(vvecs):]
        u = lin_combo(vvecs, a)[:2 * v.source_half_dim] if vvecs else ()
        z = lin_combo(wvecs, b)[2 * w.source_half_dim:] if wvecs else ()
        produced.append(u + z)
    return reduce_span(produced)


def image_of_point(v, u):
    """``(point, directions)``, or None when the image is empty."""
    u = tuple(frac(x) for x in u)
    vvecs = v.vectors
    rows = tuple(tuple(vec[r] for vec in vvecs) for r in range(2 * v.source_half_dim))
    part = solve(rows, u)
    if part is None:
        return None
    point = lin_combo(vvecs, part)[2 * v.source_half_dim:] if vvecs else ()
    dirs = []
    for z in nullspace(rows, ncols=len(vvecs)):
        dirs.append(lin_combo(vvecs, z)[2 * v.source_half_dim:])
    return point, reduce_span(dirs)


def check_linear_micromorphism(v, phi):
    """``(ok, reasons)`` for an m x n core map matrix ``phi``."""
    m, n = v.source_half_dim, v.target_half_dim
    vvecs = v.vectors
    rows = tuple(tuple(vec[m + r] for vec in vvecs) for r in range(m))
    combos = nullspace(rows, ncols=len(vvecs))
    intersection = reduce_span([lin_combo(vvecs, c) for c in combos])
    graph = []
    for j in range(n):
        col = tuple(frac(phi[i][j]) for i in range(m))
        graph.append(col + zero_vector(m) + unit_vector(n, j) + zero_vector(n))
    ok = subspace_equal(intersection, tuple(graph))
    reasons = ()
    if not ok:
        reasons = (f"intersection with the horizontal has dimension {len(intersection)}, "
                   f"graph of the core map has dimension {n}; subspaces differ",)
    return ok, reasons


def transverse_to_splitting(v, b_rows):
    """Transversality to (horizontal source) x K_B for the symmetric matrix B."""
    m, n = v.source_half_dim, v.target_half_dim
    columns = list(v.vectors)
    for i in range(m):
        columns.append(unit_vector(2 * m, i) + zero_vector(2 * n))
    for j in range(n):
        kvec = tuple(frac(b_rows[i][j]) for i in range(n)) + unit_vector(n, j)
        columns.append(zero_vector(2 * m) + kvec)
    return rank(tuple(columns)) == 2 * (m + n)


# -- the samplers, as they were: dense generators multiplied in full ----------
#
# Draws go through ``microsympl.sampling``'s ``rand_symmetric_matrix`` and
# ``rand_invertible_int_matrix``; the generators, their products and the
# column read of a relation are frozen here.


def transpose(rows):
    if not rows:
        return ()
    return tuple(tuple(row[j] for row in rows) for j in range(len(rows[0])))


def mat_mul(a, b):
    if not a or not b:
        return tuple(() for _ in a)
    width = len(b[0])
    out = []
    for row in a:
        acc = [Fraction(0)] * width
        for k, v in enumerate(row):
            if v:
                for j, w in enumerate(b[k]):
                    if w:
                        acc[j] += v * w
        out.append(tuple(acc))
    return tuple(out)


def _shear_lower(rows, n):
    # [[I, 0], [C, I]] in (x..., p...) coordinates, C symmetric
    out = [list(unit_vector(2 * n, i)) for i in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[n + i][j] = rows[i][j]
    return tuple(tuple(r) for r in out)


def _shear_upper(rows, n):
    out = [list(unit_vector(2 * n, i)) for i in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i][n + j] = rows[i][j]
    return tuple(tuple(r) for r in out)


def _gl_block(rows, n):
    inv_t = transpose(mat_inverse(rows))
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = rows[i][j]
            out[n + i][n + j] = inv_t[i][j]
    return tuple(tuple(r) for r in out)


def _rotation(n):
    # (x, p) -> (p, -x)
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        out[i][n + i] = Fraction(1)
        out[n + i][i] = Fraction(-1)
    return tuple(tuple(r) for r in out)


def rand_symplectic_matrix(rng, n, steps=3):
    if n == 0:
        return ()
    result = identity_matrix(2 * n)
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0:
            gen = _shear_lower(rand_symmetric_matrix(rng, n, 2, 2), n)
        elif kind == 1:
            gen = _shear_upper(rand_symmetric_matrix(rng, n, 2, 2), n)
        elif kind == 2:
            gen = _gl_block(rand_invertible_int_matrix(rng, n, 2), n)
        else:
            gen = _rotation(n)
        result = mat_mul(gen, result)
    return result


def rand_lagrangian_relation(rng, source_dim, target_dim):
    """The basis vectors of the drawn relation, in (x1, -p1, x2, p2) order."""
    m, n = source_dim, target_dim
    total = m + n
    t_rows = rand_symplectic_matrix(rng, total, steps=3)
    vectors = []
    for i in range(total):
        # i-th column of T, the image of the i-th zero-section basis vector
        col = tuple(t_rows[r][i] for r in range(2 * total))
        x_all, p_all = col[:total], col[total:]
        vectors.append(x_all[:m] + tuple(-v for v in p_all[:m]) + x_all[m:] + p_all[m:])
    return tuple(vectors)
