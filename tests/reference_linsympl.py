"""Reference oracle: the plain Fraction Gauss-Jordan linear algebra.

A frozen copy of ``microsympl.linsympl``'s elimination routines as they were
before the fraction-free kernel.  Tests require the library to agree with
these functions exactly; do not optimise this file.
"""

from fractions import Fraction


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
