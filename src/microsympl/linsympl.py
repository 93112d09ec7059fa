"""Exact linear symplectic algebra over the rationals.

Vectors are tuples of Fractions.  A symplectic space is a product of signed
standard blocks; within each block of half-dimension n the coordinates are
ordered (x_1..x_n, p_1..p_n) and the form is
``omega((x,p),(x',p')) = <p, x'> - <p', x>`` scaled by the block sign.  A
linear canonical relation from half-dimension m to half-dimension n lives in
the two-block space ((m, -1), (n, +1)) with coordinates (x1, p1, x2, p2).

Subspace equality is always decided by mutual containment through exact rank
computations, never by comparing bases, since bases are not canonical.

All elimination runs through one fraction-free kernel, ``_eliminate``.  Each
row is scaled by the lcm of its denominators to an integer row with the same
span; Bareiss elimination (Math. Comp. 22, 1968) then updates
``row_i = (a * row_i - b * row_r) // prev`` with ``prev`` the previous pivot,
and checks that every such division is exact.  ``rank`` stops at echelon form;
``rref`` also clears above each pivot and divides by the common final pivot
once per entry.  The reduced row echelon form of a matrix is unique and
pivots are chosen as before (first nonzero row, column by column), so every
result is the same Fraction as the plain Gauss-Jordan elimination gives, and
formatted outputs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import CheckResult, InternalInvariantError, ShapeError, ValidityError
from .jetalg import frac

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(frac(v) for v in entries)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ShapeError("ragged matrix rows")
    return out


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, index: int) -> Vector:
    return tuple(Fraction(1 if i == index else 0) for i in range(n))


def identity_matrix(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def mat_vec(rows: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
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


def transpose(rows: Matrix) -> Matrix:
    if not rows:
        return ()
    return tuple(tuple(row[j] for row in rows) for j in range(len(rows[0])))


def _integer_rows(rows: Matrix) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators; the row space is kept."""
    out = []
    for row in rows:
        row = [frac(v) for v in row]
        den = lcm(*[v.denominator for v in row])
        out.append([v.numerator for v in row] if den == 1 else
                   [v.numerator * (den // v.denominator) for v in row])
    return out


def _eliminate(rows: Matrix, full: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) elimination of the integer rows of ``rows``.

    Returns the eliminated integer rows and the pivot columns.  With
    ``full=False`` the rows are in echelon form; with ``full=True`` every
    pivot column is also cleared above its pivot, and all pivots end equal.
    """
    work = _integer_rows(rows)
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        for pivot in range(r, nrows):
            if work[pivot][c]:
                break
        else:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        a = prow[c]
        for i in range(0 if full else r + 1, nrows):
            if i == r:
                continue
            row = work[i]
            b = row[c]
            if b:
                row = [a * x - b * y for x, y in zip(row, prow)]
            else:
                row = [a * x for x in row]
            if prev != 1:
                # Sylvester's identity: every entry is a minor, so prev divides it
                if any(x % prev for x in row):
                    raise InternalInvariantError(
                        f"inexact division by {prev} in fraction-free elimination")
                row = [x // prev for x in row]
            work[i] = row
        pivots.append(c)
        prev = a
        r += 1
    return work, pivots


def rref(rows: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    work, pivots = _eliminate(rows, True)
    d = work[0][pivots[0]] if pivots else 1
    zero = Fraction(0)
    return tuple(tuple(Fraction(v, d) if v else zero for v in row) for row in work), tuple(pivots)


def rank(rows: Matrix) -> int:
    return len(_eliminate(rows, False)[1])


def nullspace(rows: Matrix, ncols: int | None = None) -> tuple[Vector, ...]:
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


def solve(rows: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
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


def mat_inverse(rows: Matrix) -> Matrix | None:
    n = len(rows)
    if n == 0:
        return ()
    aug = tuple(tuple(row) + unit_vector(n, i) for i, row in enumerate(rows))
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        return None
    return tuple(row[n:] for row in red[:n])


def reduce_span(vectors: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    """Deterministic basis of the span (nonzero rows of the rref)."""
    vecs = tuple(tuple(frac(x) for x in v) for v in vectors)
    if not vecs:
        return ()
    red, pivots = rref(vecs)
    return tuple(red[i] for i in range(len(pivots)))


def subspace_contains(span: Sequence[Vector], v: Sequence[Fraction]) -> bool:
    base = list(span)
    return rank(tuple(base + [tuple(v)])) == rank(tuple(base)) if base else not any(v)


def subspace_equal(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    """Mutual containment via exact rank computations."""
    a = tuple(tuple(x) for x in a)
    b = tuple(tuple(x) for x in b)
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    return rank(a + b) == ra


def lin_combo(vectors: Sequence[Vector], coeffs: Sequence[Fraction]) -> Vector:
    n = len(vectors[0]) if vectors else 0
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return tuple(out)


# -- symplectic structure ----------------------------------------------------


@dataclass(frozen=True)
class SymplecticSpace:
    """Product of signed standard symplectic blocks.

    Each block is (half_dim, sign) with sign +1 for the standard form and -1
    for the opposite; coordinates inside a block run (x..., p...).
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for n, sign in self.blocks:
            if n < 0:
                raise ShapeError("block half-dimension must be non-negative")
            if sign not in (1, -1):
                raise ShapeError("block sign must be +1 or -1")

    @staticmethod
    def standard(n: int, sign: int = 1) -> "SymplecticSpace":
        return SymplecticSpace(((n, sign),))

    @staticmethod
    def relation_space(source_half_dim: int, target_half_dim: int) -> "SymplecticSpace":
        return SymplecticSpace(((source_half_dim, -1), (target_half_dim, 1)))

    @property
    def half_dim(self) -> int:
        return sum(n for n, _ in self.blocks)

    @property
    def dim(self) -> int:
        return 2 * self.half_dim

    def form(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        if len(u) != self.dim or len(v) != self.dim:
            raise ShapeError("vector length does not match the space dimension")
        total = Fraction(0)
        offset = 0
        for n, sign in self.blocks:
            for i in range(n):
                a, b = u[offset + n + i], v[offset + i]
                if a and b:
                    total += sign * a * b
                a, b = v[offset + n + i], u[offset + i]
                if a and b:
                    total -= sign * a * b
            offset += 2 * n
        return total


def is_lagrangian(space: SymplecticSpace, vectors: Sequence[Sequence[Fraction]]) -> CheckResult:
    """True iff the span has full half-dimension and the signed form vanishes on it."""
    vecs = tuple(tuple(frac(x) for x in v) for v in vectors)
    n = space.half_dim
    reasons = []
    for v in vecs:
        if len(v) != space.dim:
            raise ShapeError(f"vector length {len(v)} does not match dimension {space.dim}")
    r = rank(vecs)
    if r != n or len(vecs) != n:
        reasons.append(f"rank defect: {len(vecs)} vectors of rank {r}, expected {n}")
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            val = space.form(vecs[i], vecs[j])
            if val:
                reasons.append(f"form(basis[{i}], basis[{j}]) = {val} != 0")
    return CheckResult(not reasons, tuple(reasons))


@dataclass(frozen=True)
class LagrangianSubspace:
    """Exact-rational lagrangian subspace, validated on construction."""

    space: SymplecticSpace
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(vector(v) for v in self.vectors))
        res = is_lagrangian(self.space, self.vectors)
        if not res:
            raise ValidityError(f"not a lagrangian subspace: {res.describe()}")


@dataclass(frozen=True)
class Splitting:
    """Lagrangian complement K_B = {(B u, u)} to the horizontal, B symmetric."""

    half_dim: int
    rows: Matrix

    def __post_init__(self):
        object.__setattr__(self, "rows", matrix(self.rows))
        n = self.half_dim
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ShapeError(f"splitting matrix must be {n}x{n}")
        for i in range(n):
            for j in range(i + 1, n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValidityError(f"splitting matrix not symmetric at ({i},{j})")
        # K_B meets {p = 0} trivially; automatic for graphs over the vertical
        stacked = tuple(self.vertical_vectors())
        if rank(stacked) != n:
            raise InternalInvariantError("splitting basis degenerate")

    def vertical_vectors(self) -> tuple[Vector, ...]:
        """Basis of K_B inside one standard block, coordinates (x..., p...)."""
        n = self.half_dim
        out = []
        for j in range(n):
            x_part = tuple(self.rows[i][j] for i in range(n))
            out.append(x_part + unit_vector(n, j))
        return tuple(out)


@dataclass(frozen=True)
class LinCanonicalRelation:
    """Linear canonical relation: a lagrangian subspace of (R^2m, -w) x (R^2n, w)."""

    source_half_dim: int
    target_half_dim: int
    subspace: LagrangianSubspace

    def __post_init__(self):
        expected = SymplecticSpace.relation_space(self.source_half_dim, self.target_half_dim)
        if self.subspace.space != expected:
            raise ShapeError("subspace ambient does not match the relation dimensions")

    @staticmethod
    def from_vectors(source_half_dim: int, target_half_dim: int,
                     vectors: Sequence[Sequence[Fraction]]) -> "LinCanonicalRelation":
        space = SymplecticSpace.relation_space(source_half_dim, target_half_dim)
        return LinCanonicalRelation(source_half_dim, target_half_dim,
                                    LagrangianSubspace(space, tuple(tuple(frac(x) for x in v)
                                                                    for v in vectors)))

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return self.subspace.vectors


def identity_relation(n: int) -> LinCanonicalRelation:
    vecs = [unit_vector(2 * n, i) + unit_vector(2 * n, i) for i in range(2 * n)]
    return LinCanonicalRelation.from_vectors(n, n, vecs)


def graph_relation(rows: Matrix) -> LinCanonicalRelation:
    """Graph {(u, A u)} of a linear symplectic map as a relation."""
    dim = len(rows)
    if dim % 2:
        raise ShapeError("symplectic matrix must have even dimension")
    n = dim // 2
    vecs = [unit_vector(dim, i) + mat_vec(rows, unit_vector(dim, i)) for i in range(dim)]
    return LinCanonicalRelation.from_vectors(n, n, vecs)


def zero_section_relation(m: int, n: int) -> LinCanonicalRelation:
    vecs = [unit_vector(2 * m, i) + zero_vector(2 * n) for i in range(m)]
    vecs += [zero_vector(2 * m) + unit_vector(2 * n, j) for j in range(n)]
    return LinCanonicalRelation.from_vectors(m, n, vecs)


def compose_linear(w: LinCanonicalRelation, v: LinCanonicalRelation) -> LinCanonicalRelation:
    """Relation composition {(u, z) : exists y, (u, y) in v, (y, z) in w}.

    Computed by exact linear elimination of the middle block; for linear
    canonical relations the result is always lagrangian of half-dimension
    source(v) + target(w).
    """
    if v.target_half_dim != w.source_half_dim:
        raise ShapeError(
            f"middle dimensions differ: {v.target_half_dim} vs {w.source_half_dim}")
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
    basis = reduce_span(produced)
    if len(basis) != v.source_half_dim + w.target_half_dim:
        raise InternalInvariantError(
            f"linear composition produced dimension {len(basis)}, "
            f"expected {v.source_half_dim + w.target_half_dim}")
    return LinCanonicalRelation.from_vectors(v.source_half_dim, w.target_half_dim, basis)


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """Image of a point through a relation: base point plus direction span."""

    dim: int
    point: Vector | None
    directions: tuple[Vector, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.point is None

    def contains(self, v: Sequence[Fraction]) -> bool:
        if self.point is None:
            return False
        diff = tuple(frac(a) - b for a, b in zip(v, self.point))
        return subspace_contains(self.directions, diff)

    def __eq__(self, other):
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        if not subspace_equal(self.directions, other.directions):
            return False
        diff = tuple(a - b for a, b in zip(self.point, other.point))
        return subspace_contains(self.directions, diff)


def image_of_point(v: LinCanonicalRelation, u: Sequence[Fraction]) -> AffineSubspace:
    """The affine set {w : (u, w) in v}, possibly empty."""
    u = vector(u)
    if len(u) != 2 * v.source_half_dim:
        raise ShapeError(f"point has length {len(u)}, expected {2 * v.source_half_dim}")
    vvecs = v.vectors
    rows = tuple(tuple(vec[r] for vec in vvecs) for r in range(2 * v.source_half_dim))
    target_dim = 2 * v.target_half_dim
    part = solve(rows, u)
    if part is None:
        return AffineSubspace(target_dim, None)
    point = lin_combo(vvecs, part)[2 * v.source_half_dim:] if vvecs else ()
    dirs = []
    for z in nullspace(rows, ncols=len(vvecs)):
        dirs.append(lin_combo(vvecs, z)[2 * v.source_half_dim:])
    return AffineSubspace(target_dim, point, reduce_span(dirs))


def check_linear_micromorphism(v: LinCanonicalRelation,
                               phi_rows: Sequence[Sequence[Fraction]]) -> CheckResult:
    """True iff v intersected with {p1 = 0} equals the graph of the core map.

    ``phi_rows`` is the m x n matrix of the linear core map from the target
    core to the source core; the graph sits inside the zero sections as
    {(phi b, 0, b, 0)}.
    """
    m, n = v.source_half_dim, v.target_half_dim
    phi = matrix(phi_rows)
    if len(phi) != m or (m and len(phi[0]) != n) or (not m and phi and phi[0]):
        raise ShapeError(f"core map matrix must be {m}x{n}")
    vvecs = v.vectors
    rows = tuple(tuple(vec[m + r] for vec in vvecs) for r in range(m))
    combos = nullspace(rows, ncols=len(vvecs))
    intersection = reduce_span([lin_combo(vvecs, c) for c in combos])
    graph = []
    for j in range(n):
        col = tuple(phi[i][j] for i in range(m))
        graph.append(col + zero_vector(m) + unit_vector(n, j) + zero_vector(n))
    ok = subspace_equal(intersection, tuple(graph))
    reasons = ()
    if not ok:
        reasons = (f"intersection with the horizontal has dimension {len(intersection)}, "
                   f"graph of the core map has dimension {n}; subspaces differ",)
    return CheckResult(ok, reasons)


def transverse_to_splitting(v: LinCanonicalRelation, splitting: Splitting,
                            core_graph: Sequence[Sequence[Fraction]] | None = None) -> bool:
    """Transversality of the relation to (horizontal source) x K_B.

    Both subspaces have half the ambient dimension, so transversality is
    equivalent to their intersection being zero, decided by an exact rank
    computation.  When given, ``core_graph`` vectors are checked to lie in
    the relation as a consistency guard.
    """
    m, n = v.source_half_dim, v.target_half_dim
    if splitting.half_dim != n:
        raise ShapeError(f"splitting half-dimension {splitting.half_dim} != target {n}")
    if core_graph is not None:
        for g in core_graph:
            if not subspace_contains(v.vectors, vector(g)):
                raise ShapeError("core graph vector not contained in the relation")
    columns = list(v.vectors)
    for i in range(m):
        columns.append(unit_vector(2 * m, i) + zero_vector(2 * n))
    for kvec in splitting.vertical_vectors():
        columns.append(zero_vector(2 * m) + kvec)
    return rank(tuple(columns)) == 2 * (m + n)
