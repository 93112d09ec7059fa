"""Exact linear symplectic algebra over the rationals.

Vectors are tuples of Fractions at the interface.  A symplectic space is a
product of signed standard blocks; within each block of half-dimension n the
coordinates are ordered (x_1..x_n, p_1..p_n) and the form is
``omega((x,p),(x',p')) = <p, x'> - <p', x>`` scaled by the block sign.  A
linear canonical relation from half-dimension m to half-dimension n lives in
the two-block space ((m, -1), (n, +1)) with coordinates (x1, p1, x2, p2).

Inside the layer the working form is integer rows, each scaled by the lcm of
its denominators (the span is kept): a matrix is converted once where it
enters (``_integer_rows``) and ``LagrangianSubspace`` caches the rows of its
basis.  Ranks, Gram matrices of the form (positive scaling keeps which
entries vanish), nullspaces, combinations and membership tests stay integer.
Subspace equality is decided by ranks and containment, never by bases.  The
core-graph and transversality checks test their conditions on a relation's
own rows; a ``Splitting`` is only its checked symmetric matrix.  Bases from
outside are validated (``LagrangianSubspace``, ``from_vectors``,
``graph_relation``); the relations that ``compose_linear`` and
``micro.linearized_relation`` build lagrangian are made by
``LinCanonicalRelation._built``, unchecked.

All elimination runs through one fraction-free (Bareiss, Math. Comp. 22,
1968) kernel, ``_eliminate``: ``row_i = (a * row_i - b * row_r) // prev``
with ``prev`` the previous pivot, every division checked exact.  Fractions
are built only by ``_fractions``, which divides fully eliminated rows by
their common final pivot: the reduced row echelon form.  It is unique and
its pivots are the first nonzero rows, column by column, so every result is
the Fraction that Gauss-Jordan elimination gives, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
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


_ZERO, _ONE = Fraction(0), Fraction(1)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(n: int, index: int) -> Vector:
    return tuple(_ONE if i == index else _ZERO for i in range(n))


def mat_vec(rows: Matrix, v: Sequence[Fraction]) -> Vector:
    if any(len(row) != len(v) for row in rows):
        raise ShapeError(f"matrix rows do not all have the vector's length {len(v)}")
    return tuple(row[0] if row else _ZERO for row in mat_mul(rows, tuple((x,) for x in v)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The exact product a b: one integer ``_product`` over one denominator."""
    if any(len(row) != len(b) for row in a):
        raise ShapeError(f"left factor rows do not all have length {len(b)}")
    a, s = _over_one_denominator(a)
    b, t = _over_one_denominator(b)
    if b and any(len(row) != len(b[0]) for row in b):
        raise ShapeError("ragged matrix rows")
    return _fractions(_product(a, b), s * t)


def _over_one_denominator(rows) -> tuple[list[list[int]], int]:
    """Integer rows t * rows, with t the lcm of all the denominators of rows."""
    rows = [vector(row) for row in rows]
    t = lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (t // v.denominator) for v in row] for row in rows], t


def _product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer matrix product a b; a row of a has one entry per row of b."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _integer_rows(rows) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators; the row space is kept."""
    return [_scaled(vector(row)) for row in rows]


def _scaled(row: Vector) -> list[int]:
    """A row of Fractions times the lcm of their denominators."""
    den = lcm(*[v.denominator for v in row])
    return ([v.numerator for v in row] if den == 1 else
            [v.numerator * (den // v.denominator) for v in row])


def _eliminate(rows: Sequence[Sequence[int]], full: bool) -> tuple[list, list[int], int]:
    """Fraction-free (Bareiss) elimination of integer rows.

    Returns the eliminated rows, the pivot columns and the last pivot ``d``.
    With ``full=False`` the rows are in echelon form; with ``full=True`` every
    pivot column is also cleared above its pivot, and all pivots end equal to
    ``d``.  Rows are replaced, never changed in place.
    """
    work = list(rows)
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    if any(len(row) != ncols for row in work):
        raise ShapeError("ragged matrix rows")
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
    return work, pivots, prev


def _fractions(rows: Iterable[Sequence[int]], d: int) -> Matrix:
    """Integer rows of a full elimination divided by its common pivot ``d``."""
    zero = Fraction(0)
    return tuple(tuple(Fraction(v, d) if v else zero for v in row) for row in rows)


def _kernel(work: list, pivots: list[int], d: int, ncols: int) -> list[list[int]]:
    """Nullspace of the first ``ncols`` columns of a full elimination: v[f] = d."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = [0] * ncols
            v[f] = d
            for row, p in zip(work, pivots):
                v[p] = -row[f]
            basis.append(v)
    return basis


def _combine(rows: Sequence[Sequence[int]], coeffs, start: int, stop: int) -> list[int]:
    """Entries ``start:stop`` of the integer combination sum_j coeffs[j] * rows[j]."""
    pairs = [(c, row) for c, row in zip(coeffs, rows) if c]
    return [sum(c * row[k] for c, row in pairs) for k in range(start, stop)]


def _span_basis(rows: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Nonzero rows of the rref of integer rows: a deterministic basis of their span."""
    work, pivots, d = _eliminate(rows, True)
    return _fractions(work[:len(pivots)], d)


def _in_span(work: list, pivots: list[int], v: Sequence[int]) -> bool:
    """Whether v lies in the span of rows in echelon form: it reduces to zero."""
    if work and len(v) != len(work[0]):
        raise ShapeError(f"vector length {len(v)} does not match the span width {len(work[0])}")
    for row, c in zip(work, pivots):
        b = v[c]
        if b:
            a = row[c]
            v = [a * x - b * y for x, y in zip(v, row)]
    return not any(v)


def rref(rows: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    work, pivots, d = _eliminate(_integer_rows(rows), True)
    return _fractions(work, d), tuple(pivots)


def rank(rows: Matrix) -> int:
    return len(_eliminate(_integer_rows(rows), False)[1])


def nullspace(rows: Matrix, ncols: int | None = None) -> tuple[Vector, ...]:
    """Basis of the right nullspace of the matrix."""
    n = len(rows[0]) if rows else ncols or 0
    work, pivots, d = _eliminate(_integer_rows(rows), True)
    return _fractions(_kernel(work, pivots, d, n), d)


def solve(rows: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of rows @ v = rhs, or None when the system is inconsistent."""
    if len(rhs) != len(rows):
        raise ShapeError(f"right-hand side has length {len(rhs)}, expected {len(rows)}")
    n = len(rows[0]) if rows else 0
    aug = [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    work, pivots, d = _eliminate(_integer_rows(aug), True)
    if n in pivots:
        return None
    v = [0] * n
    for row, pcol in zip(work, pivots):
        v[pcol] = row[n]
    return _fractions((v,), d)[0]


def mat_inverse(rows: Matrix) -> Matrix | None:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError(f"matrix to invert must be {n}x{n}")
    return _left_solve(_integer_rows(tuple(r) + unit_vector(n, i) for i, r in enumerate(rows)), n)


def _left_solve(aug: Sequence[Sequence[int]], n: int) -> Matrix | None:
    """A^-1 B for integer rows [A | B], each row at any scale; None if A is singular."""
    work, pivots, d = _eliminate(aug, True)
    if pivots[:n] != list(range(n)):
        return None
    return _fractions((row[n:] for row in work[:n]), d)


def reduce_span(vectors: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    """Deterministic basis of the span (nonzero rows of the rref)."""
    return _span_basis(_integer_rows(vectors))


def subspace_contains(span: Sequence[Vector], v: Sequence[Fraction]) -> bool:
    work, pivots, _ = _eliminate(_integer_rows(span), False)
    return _in_span(work, pivots, _integer_rows((v,))[0])


def subspace_equal(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    """Equal ranks, and every vector of b reduces to zero against a."""
    b = _integer_rows(b)
    work, pivots, _ = _eliminate(_integer_rows(a), False)
    return (len(_eliminate(b, False)[1]) == len(pivots)
            and all(_in_span(work, pivots, v) for v in b))


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


def is_lagrangian(space: SymplecticSpace, vectors: Sequence[Sequence[Fraction]]) -> CheckResult:
    """True iff the span has full half-dimension and the signed form vanishes on it."""
    vectors = tuple(vectors)
    return _lagrangian(space, vectors, _integer_rows(vectors))


def _lagrangian(space: SymplecticSpace, vectors: Sequence, rows: Sequence) -> CheckResult:
    """``is_lagrangian`` on the integer rows of ``vectors``."""
    n = space.half_dim
    reasons = []
    for row in rows:
        if len(row) != space.dim:
            raise ShapeError(f"vector length {len(row)} does not match dimension {space.dim}")
    r = len(_eliminate(rows, False)[1])
    if r != n or len(rows) != n:
        reasons.append(f"rank defect: {len(rows)} vectors of rank {r}, expected {n}")
    for i, row in enumerate(rows):
        # the form as a dual row: form(u, v) = <dual(u), v>; row k is s_k
        # times vectors[k], s_k the lcm of its denominators
        dual, offset = [], 0
        for half, sign in space.blocks:
            dual += [sign * x for x in row[offset + half:offset + 2 * half]]
            dual += [-sign * x for x in row[offset:offset + half]]
            offset += 2 * half
        for j in range(i + 1, len(rows)):
            gram = sum(map(mul, dual, rows[j]))
            if gram:
                s_i, s_j = (lcm(*[v.denominator for v in vectors[k]]) for k in (i, j))
                reasons.append(f"form(basis[{i}], basis[{j}]) = {Fraction(gram, s_i * s_j)} != 0")
    return CheckResult(not reasons, tuple(reasons))


@dataclass(frozen=True)
class LagrangianSubspace:
    """Exact-rational lagrangian subspace, validated unless built by the package."""

    space: SymplecticSpace
    vectors: tuple[Vector, ...]
    # the integer rows of ``vectors``, computed once; every check runs on them
    _rows: tuple[list[int], ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(vector(v) for v in self.vectors))
        object.__setattr__(self, "_rows", tuple(_scaled(v) for v in self.vectors))
        res = _lagrangian(self.space, self.vectors, self._rows)
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
                                    LagrangianSubspace(space, tuple(vectors)))

    @staticmethod
    def _built(source_half_dim: int, target_half_dim: int, rows: Sequence[Sequence[int]],
               d: int) -> "LinCanonicalRelation":
        """``from_vectors`` on rows / d, unchecked: integer rows spanning a lagrangian,
        each with an entry d, so that the ``_integer_rows`` row of each vector is the
        primitive row signed like d."""
        space = SymplecticSpace.relation_space(source_half_dim, target_half_dim)
        scales = [gcd(*row) if d > 0 else -gcd(*row) for row in rows]
        subspace = object.__new__(LagrangianSubspace)
        subspace.__dict__.update(space=space, vectors=_fractions(rows, d), _rows=tuple(
            [x // g for x in row] for row, g in zip(rows, scales)))
        return LinCanonicalRelation(source_half_dim, target_half_dim, subspace)

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return self.subspace.vectors

    @cached_property
    def _annihilator(self) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
        """A_x2 and A_p2 of ``transverse_to_splitting``: the x2 and p2 parts of U's annihilator."""
        m, n = self.source_half_dim, self.target_half_dim
        work, pivots, d = _eliminate([vec[m:] for vec in self.subspace._rows], True)
        kernel = _kernel(work, pivots, d, m + 2 * n)
        return tuple(a[m:m + n] for a in kernel), tuple(a[m + n:] for a in kernel)


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

    Computed by exact linear elimination of the middle block on the cached
    integer rows; for linear canonical relations the result is always
    lagrangian of half-dimension source(v) + target(w), so ``_built`` makes it
    unchecked from the nonzero rref rows, whose pivots all equal d.
    """
    if v.target_half_dim != w.source_half_dim:
        raise ShapeError(
            f"middle dimensions differ: {v.target_half_dim} vs {w.source_half_dim}")
    source, mid = 2 * v.source_half_dim, 2 * v.target_half_dim
    vrows, wrows = v.subspace._rows, w.subspace._rows
    rows = [[vec[source + r] for vec in vrows] + [-vec[r] for vec in wrows]
            for r in range(mid)]
    work, pivots, d = _eliminate(rows, True)
    k = len(vrows)
    produced = [_combine(vrows, c[:k], 0, source)
                + _combine(wrows, c[k:], mid, mid + 2 * w.target_half_dim)
                for c in _kernel(work, pivots, d, k + len(wrows))]
    work, pivots, d = _eliminate(produced, True)
    if len(pivots) != v.source_half_dim + w.target_half_dim:
        raise InternalInvariantError(
            f"linear composition produced dimension {len(pivots)}, "
            f"expected {v.source_half_dim + w.target_half_dim}")
    return LinCanonicalRelation._built(v.source_half_dim, w.target_half_dim,
                                       work[:len(pivots)], d)


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
        if len(v) != self.dim:
            raise ShapeError(f"point has length {len(v)}, expected {self.dim}")
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
    source = 2 * v.source_half_dim
    if len(u) != source:
        raise ShapeError(f"point has length {len(u)}, expected {source}")
    vrows = v.subspace._rows
    k, target_dim = len(vrows), 2 * v.target_half_dim
    aug = [[vec[r] * x.denominator for vec in vrows] + [x.numerator] for r, x in enumerate(u)]
    work, pivots, d = _eliminate(aug, True)
    if k in pivots:
        return AffineSubspace(target_dim, None)
    # free coordinates 0, pivot coordinate i is work[i][k] / d.  Column j is
    # vector j scaled by s_j > 0, which divides coordinate j by s_j: same point
    point = _combine([vrows[p] for p in pivots], [row[k] for row in work],
                     source, source + target_dim)
    dirs = [_combine(vrows, z, source, source + target_dim)
            for z in _kernel(work, pivots, d, k)]
    return AffineSubspace(target_dim, _fractions((point,), d)[0], _span_basis(dirs))


def check_linear_micromorphism(v: LinCanonicalRelation,
                               phi_rows: Sequence[Sequence[Fraction]]) -> CheckResult:
    """True iff v intersected with {p1 = 0} equals the graph of the core map.

    ``phi_rows`` is the m x n matrix of the linear core map from the target
    core to the source core; the graph sits inside the zero sections as
    {(phi b, 0, b, 0)}.  The intersection's rows are independent, so they span
    the graph exactly when there are n of them, each with p2 = 0 and x1 = phi x2.
    """
    m, n = v.source_half_dim, v.target_half_dim
    phi = matrix(phi_rows)
    if len(phi) != m or (m and len(phi[0]) != n) or (not m and phi and phi[0]):
        raise ShapeError(f"core map matrix must be {m}x{n}")
    vrows = v.subspace._rows
    work, pivots, d = _eliminate([[vec[m + r] for vec in vrows] for r in range(m)], True)
    # the rows of a lagrangian basis are independent, so these combinations are too
    width = 2 * (m + n)
    intersection = [_combine(vrows, c, 0, width) for c in _kernel(work, pivots, d, len(vrows))]
    ok = len(intersection) == n and all(
        not any(z[2 * m + n:])
        and all(z[i] == sum(map(mul, phi[i], z[2 * m:2 * m + n])) for i in range(m))
        for z in intersection)
    reasons = ()
    if not ok:
        reasons = (f"intersection with the horizontal has dimension {len(intersection)}, "
                   f"graph of the core map has dimension {n}; subspaces differ",)
    return CheckResult(ok, reasons)


def transverse_to_splitting(v: LinCanonicalRelation, splitting: Splitting) -> bool:
    """Transversality of the relation to (horizontal source) x K_B.

    Both have half the ambient dimension, so this says that K_B = {(B u, u)}
    meets U, the relation plus the horizontal source block, only at 0.  The
    functionals vanishing on U are those with x1 part 0 that vanish on the
    relation: once per relation, their x2 and p2 parts A_x2, A_p2 are kept.
    U has dimension 2m + n exactly when there are n of them, and then the
    answer is whether A_x2 B + A_p2 is nonsingular, tested on integers as
    A_x2 (l B) + l A_p2 with l the lcm of the denominators of B.
    """
    n = v.target_half_dim
    if splitting.half_dim != n:
        raise ShapeError(f"splitting half-dimension {splitting.half_dim} != target {n}")
    a_x2, a_p2 = v._annihilator
    if len(a_x2) != n:
        return False
    b = splitting.rows
    scale = lcm(*[x.denominator for row in b for x in row])
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in b]
    # B is symmetric, so column j of B is its row j
    rows = [[sum(map(mul, ax, b[j])) + scale * ap[j] for j in range(n)]
            for ax, ap in zip(a_x2, a_p2)]
    return len(_eliminate(rows, False)[1]) == n
