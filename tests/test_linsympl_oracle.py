"""The integer linear layer against the frozen Fraction oracle.

The elimination routines, and the linear checks that run on cached integer
rows (``is_lagrangian``, ``subspace_contains``, ``subspace_equal``,
``compose_linear``, ``image_of_point``, ``check_linear_micromorphism``,
``transverse_to_splitting``), must agree with ``reference_linsympl`` exactly,
failure reasons included, and so must ``mat_mul``.  The symplectic samplers
must draw what its dense generator products draw, and the matrix draws what
its frozen Fraction draws draw.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference_linsympl as ref
from microsympl import linsympl, micro
from microsympl.errors import ShapeError
from microsympl.sampling import (_rand_invertible, rand_lagrangian_relation, rand_micromorphism,
                                 rand_point, rand_symmetric_matrix, rand_symplectic_matrix,
                                 rng_for)

SMALL = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
NEGATIVE_DEN = st.builds(F, st.integers(-9, 9), st.integers(-9, -1))
# numerators and denominators beyond 64 bits
HUGE = st.builds(F, st.integers(-2**90, 2**90), st.integers(2**64, 2**70))
ENTRY = st.one_of(st.just(F(0)), SMALL, NEGATIVE_DEN, HUGE)
SHAPES = {"any": ((0, 7), (0, 7)), "wide": ((1, 3), (4, 8)),
          "tall": ((4, 8), (1, 3)), "square": ((1, 6), None)}


@st.composite
def matrices(draw, shape="any"):
    """Matrices in which some rows are combinations of earlier rows."""
    row_range, col_range = SHAPES[shape]
    nrows = draw(st.integers(*row_range))
    ncols = nrows if col_range is None else draw(st.integers(*col_range))
    rows = [tuple(draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)))
            for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c = draw(SMALL)
            rows[i] = tuple(c * x + y for x, y in zip(rows[j], rows[k]))
    return tuple(rows)


def all_fractions(rows):
    return all(type(v) is F for row in rows for v in row)


def make_singular(rows):
    """Replace the last row of a nonempty square matrix by a combination of the others."""
    others = rows[:-1]
    last = tuple(sum((r[j] * (i + 2) for i, r in enumerate(others)), F(0))
                 for j in range(len(rows)))
    return others + (last,)


EDGE_CASES = [(), ((),), ((), ()), ((F(0), F(0)),) * 3, ((F(0),), (F(5, 3),))]


@pytest.mark.parametrize("rows", EDGE_CASES)
def test_edge_cases_match_oracle(rows):
    assert linsympl.rref(rows) == ref.rref(rows)
    assert linsympl.rank(rows) == ref.rank(rows)
    assert linsympl.nullspace(rows, ncols=2) == ref.nullspace(rows, ncols=2)
    assert linsympl.reduce_span(rows) == ref.reduce_span(rows)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(data=st.data())
def test_rref_rank_nullspace_reduce_span_match_oracle(shape, data):
    rows = data.draw(matrices(shape))
    red, pivots = linsympl.rref(rows)
    assert (red, pivots) == ref.rref(rows)
    assert all_fractions(red)
    assert linsympl.rank(rows) == len(pivots)
    null = linsympl.nullspace(rows, ncols=3)
    assert null == ref.nullspace(rows, ncols=3)
    assert all_fractions(null)
    assert linsympl.reduce_span(rows) == ref.reduce_span(rows)


@given(rows=matrices("square"), singular=st.booleans())
def test_mat_inverse_matches_oracle(rows, singular):
    if singular:
        rows = make_singular(rows)
    inverse = linsympl.mat_inverse(rows)
    assert inverse == ref.mat_inverse(rows)
    if singular:
        assert inverse is None
    else:
        assert inverse is None or all_fractions(inverse)


@given(rows=matrices(), data=st.data())
def test_solve_matches_oracle(rows, data):
    ncols = len(rows[0]) if rows else 0
    x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
    rhs = linsympl.mat_vec(rows, x)
    solution = linsympl.solve(rows, rhs)
    assert solution == ref.solve(rows, rhs)
    assert solution is not None and linsympl.mat_vec(rows, solution) == rhs
    assert all_fractions((solution,))


@given(rows=matrices(), shift=SMALL.filter(bool))
def test_solve_inconsistent_matches_oracle(rows, shift):
    # append a row that repeats the first with a right-hand side that does not
    ncols = len(rows[0]) if rows else 0
    rhs = tuple(F(i) for i in range(len(rows)))
    first = rows[0] if rows else (F(0),) * ncols
    rows += (first,)
    rhs += ((rhs[0] if rhs else F(0)) + shift,)
    assert linsympl.solve(rows, rhs) is None
    assert ref.solve(rows, rhs) is None


def test_mat_mul_matches_oracle():
    rng = rng_for(0, "mat-mul-oracle")

    def entry():
        # ints, small Fractions and Fractions beyond 64 bits, with zeros
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-3, 3)
        if kind == 1:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        if kind == 2:
            return F(rng.randint(-2**70, 2**70), rng.randint(1, 2**66))
        return 0

    for _ in range(4):
        for rows in range(5):
            for inner in range(5):
                for width in range(5):
                    a = tuple(tuple(entry() for _ in range(inner)) for _ in range(rows))
                    b = tuple(tuple(entry() for _ in range(width)) for _ in range(inner))
                    got = linsympl.mat_mul(a, b)
                    assert got == ref.mat_mul(a, b), (a, b)
                    assert all_fractions(got)
                    if inner:
                        column = tuple(row[0] for row in b) if width else (0,) * inner
                        want = tuple(row[0] for row in ref.mat_mul(a, tuple(
                            (v,) for v in column)))
                        assert linsympl.mat_vec(a, column) == want
    # the shapes that the reference reads past, or stops short of, raise
    for a, b in ((((1,),), ((1, 2), (3, 4))), (((1, 1),), ((1, 2), (3,)))):
        with pytest.raises(ShapeError):
            linsympl.mat_mul(a, b)
    with pytest.raises(ShapeError):
        linsympl.mat_vec(((1, 2),), (1,))


@pytest.mark.parametrize("entry", [0.5, 1.0, float("nan")])
def test_float_entries_are_rejected(entry):
    rows = ((F(1), entry), (F(2), F(3)))
    with pytest.raises(TypeError):
        linsympl.rank(rows)
    with pytest.raises(TypeError):
        linsympl.rref(rows)
    # the products gave inexact floats, such as ((1.0,),) for 0.5 times 2
    exact = ((F(1), F(0)), (F(2), F(3)))
    for call in (lambda: linsympl.mat_mul(rows, exact),
                 lambda: linsympl.mat_mul(exact, rows),
                 lambda: linsympl.mat_vec(rows, (1, 1)),
                 lambda: linsympl.mat_vec(exact, (1, entry))):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            call()


# -- the linear checks on relations ------------------------------------------------

NONZERO = st.one_of(SMALL, NEGATIVE_DEN, HUGE).filter(bool)
HALF_DIM = st.integers(0, 3)


@st.composite
def rebased(draw, vectors):
    """The same span in another basis: an upper triangular change with ENTRY entries."""
    k = len(vectors)
    out = []
    for i in range(k):
        coeffs = [draw(NONZERO) if j == i else draw(ENTRY) if j > i else F(0)
                  for j in range(k)]
        out.append(ref.lin_combo(vectors, coeffs))
    return tuple(out)


def symmetric(draw, n, entry=ENTRY):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return rows


@st.composite
def relations(draw, m=HALF_DIM, n=HALF_DIM):
    """Lagrangian relations of three kinds, each in a drawn basis.

    ``sampled``: a seeded symplectic move of a zero section.  ``graph``: the
    graph of a symmetric matrix C with ENTRY entries, {(x, C x)} in the
    standard block, moved to the relation's signed coordinates; with
    ``decoupled`` the x1/x2 block of C is zero, so the relation is a product
    and the image of a generic point is empty.  ``micro``: the tangent
    relation of a seeded micromorphism.
    """
    m, n = draw(m), draw(n)
    kind = draw(st.sampled_from(["sampled", "graph", "micro"]))
    if kind == "sampled":
        vectors = rand_lagrangian_relation(rng_for(draw(st.integers(0, 999)), "oracle"),
                                           m, n).vectors
    elif kind == "micro":
        rng = rng_for(draw(st.integers(0, 999)), "oracle-micro")
        f = rand_micromorphism(rng, m, n, rng.randint(1, 3))
        vectors = micro.tangent_relation_at(f, tuple(draw(ENTRY) for _ in range(n))).vectors
    else:
        c = symmetric(draw, m + n)
        if draw(st.booleans()):
            for i in range(m):
                for j in range(m, m + n):
                    c[i][j] = c[j][i] = F(0)
        vectors = []
        for i in range(m + n):
            x_all, p_all = ref.unit_vector(m + n, i), tuple(c[r][i] for r in range(m + n))
            vectors.append(x_all[:m] + tuple(-v for v in p_all[:m]) + x_all[m:] + p_all[m:])
    return linsympl.LinCanonicalRelation.from_vectors(m, n, draw(rebased(tuple(vectors))))


def verdict(result):
    return result.ok, result.reasons


@given(rel=relations(), data=st.data())
def test_is_lagrangian_matches_oracle(rel, data):
    space = rel.subspace.space
    vecs = rel.vectors
    candidates = [vecs, vecs[:-1], tuple(data.draw(st.lists(ENTRY, min_size=space.dim,
                                                            max_size=space.dim))
                                         for _ in vecs)]
    if vecs:
        bump = tuple(data.draw(st.lists(ENTRY, min_size=space.dim, max_size=space.dim)))
        # non-isotropic: one vector moved off the subspace
        candidates.append((tuple(a + b for a, b in zip(vecs[0], bump)),) + vecs[1:])
        # rank-deficient: the last vector a combination of the others
        coeffs = data.draw(st.lists(ENTRY, min_size=len(vecs) - 1, max_size=len(vecs) - 1))
        candidates.append(vecs[:-1] + (ref.lin_combo(vecs[:-1], coeffs)
                                       if len(vecs) > 1 else (F(0),) * space.dim,))
    for cand in candidates:
        assert verdict(linsympl.is_lagrangian(space, cand)) == ref.is_lagrangian(space.blocks,
                                                                                cand)


@given(span=matrices("wide"), data=st.data())
def test_subspace_contains_and_equal_match_oracle(span, data):
    width = len(span[0])
    inside = ref.lin_combo(span, data.draw(st.lists(ENTRY, min_size=len(span),
                                                    max_size=len(span))))
    outside = tuple(data.draw(st.lists(ENTRY, min_size=width, max_size=width)))
    for v in (inside, outside, (F(0),) * width):
        assert linsympl.subspace_contains(span, v) == ref.subspace_contains(span, v)
        assert linsympl.subspace_contains((), v) == ref.subspace_contains((), v)
    for other in (data.draw(rebased(span)), span[1:], span[:-1] + (outside,),
                  data.draw(matrices("wide").filter(lambda r: len(r[0]) == width))):
        assert linsympl.subspace_equal(span, other) == ref.subspace_equal(span, other)
        assert linsympl.subspace_equal(other, span) == ref.subspace_equal(other, span)


@given(data=st.data())
def test_compose_linear_matches_oracle(data):
    mid = data.draw(HALF_DIM)
    v = data.draw(relations(n=st.just(mid)))
    w = data.draw(relations(m=st.just(mid)))
    got = linsympl.compose_linear(w, v)
    assert got.vectors == ref.compose_linear(w, v)
    # built unchecked: lagrangian, with the integer rows of its vectors, and
    # the same value as the relation validated from those vectors
    assert verdict(linsympl.is_lagrangian(got.subspace.space, got.vectors)) == (True, ())
    assert got.subspace._rows == tuple(linsympl._integer_rows(got.vectors))
    validated = linsympl.LinCanonicalRelation.from_vectors(
        got.source_half_dim, got.target_half_dim, got.vectors)
    assert got == validated and hash(got) == hash(validated) and repr(got) == repr(validated)


@given(rel=relations(), data=st.data())
def test_image_of_point_matches_oracle(rel, data):
    source = 2 * rel.source_half_dim
    reachable = ref.lin_combo(rel.vectors, data.draw(
        st.lists(ENTRY, min_size=len(rel.vectors), max_size=len(rel.vectors))))[:source]
    for u in (reachable, tuple(data.draw(st.lists(ENTRY, min_size=source, max_size=source)))):
        image = linsympl.image_of_point(rel, u)
        want = ref.image_of_point(rel, u)
        assert image.is_empty == (want is None)
        if want is not None:
            assert (image.point, image.directions) == want
            assert all_fractions((image.point,) + image.directions)


@pytest.mark.parametrize("case", range(40))
def test_image_of_point_on_seeded_relations_matches_oracle(case):
    # the particular point depends on the basis, so this also pins the basis
    # order of the cached rows
    rng = rng_for(case, "oracle-image")
    m, n = rng.randint(1, 3), rng.randint(0, 3)
    rel = rand_lagrangian_relation(rng, m, n)
    u = rand_point(rng, 2 * m)
    image = linsympl.image_of_point(rel, u)
    want = ref.image_of_point(rel, u)
    assert (None if image.is_empty else (image.point, image.directions)) == want


@given(rel=relations(), data=st.data())
def test_check_linear_micromorphism_matches_oracle(rel, data):
    m, n = rel.source_half_dim, rel.target_half_dim
    # the core map read off the relation when it is a graph over the x2 block,
    # and a drawn one
    phis = [tuple(tuple(data.draw(ENTRY) for _ in range(n)) for _ in range(m))]
    p1_free = ref.nullspace(tuple(tuple(vec[m + r] for vec in rel.vectors)
                                  for r in range(m)), ncols=len(rel.vectors))
    horizontal = [ref.lin_combo(rel.vectors, c) for c in p1_free]
    if len(horizontal) == n and ref.rank(tuple(h[2 * m:2 * m + n] for h in horizontal)) == n:
        rows = ref.reduce_span(tuple(h[2 * m:2 * m + n] + h[:m] for h in horizontal))
        phis.append(tuple(tuple(rows[j][n + i] for j in range(n)) for i in range(m)))
    for phi in phis:
        got = verdict(linsympl.check_linear_micromorphism(rel, phi))
        assert got == ref.check_linear_micromorphism(rel, phi)


def moved(phi, i, j, by):
    """phi with entry (i, j) moved by ``by``."""
    rows = [list(row) for row in phi]
    rows[i][j] += by
    return tuple(tuple(row) for row in rows)


def huge(rng):
    return F(rng.randint(-2**90, 2**90), rng.randint(2**64, 2**70))


def cotangent_lift(rng, phi, m, n):
    """{(phi x2, p1, x2, phi^T p1)}, the linear micromorphism with core phi, in
    a seeded basis: each vector plus combinations of the later ones with
    coefficients beyond 64 bits."""
    vectors = [tuple(phi[i][j] for i in range(m)) + ref.zero_vector(m)
               + ref.unit_vector(n, j) + ref.zero_vector(n) for j in range(n)]
    vectors += [ref.zero_vector(m) + ref.unit_vector(m, i) + ref.zero_vector(n)
                + tuple(phi[i]) for i in range(m)]
    k = len(vectors)
    based = [ref.lin_combo(vectors, [F(1) if c == r else huge(rng) if c > r else F(0)
                                     for c in range(k)]) for r in range(k)]
    return linsympl.LinCanonicalRelation.from_vectors(m, n, based)


def test_seeded_core_checks_match_oracle():
    # the integer core test scales phi by the lcm of its denominators: phis
    # with denominators beyond 2^64, m = 0 and n = 0, and each true phi with
    # one entry moved by 1/3, which must fail
    verdicts = {True: 0, False: 0}

    def check(rel, phi, want):
        got = verdict(linsympl.check_linear_micromorphism(rel, phi))
        assert got == ref.check_linear_micromorphism(rel, phi)
        assert got[0] == want
        verdicts[want] += 1

    for seed in range(100):
        rng = rng_for(seed, "core-oracle")
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        phi = tuple(tuple(huge(rng) for _ in range(n)) for _ in range(m))
        rel = cotangent_lift(rng, phi, m, n)
        check(rel, phi, True)
        if m and n:
            check(rel, moved(phi, rng.randrange(m), rng.randrange(n), F(1, 3)), False)
    # the workload's calls: the tangent relation of a seeded micromorphism at a
    # seeded point against the core's jacobian there
    for seed in range(200):
        rng = rng_for(seed, "core-oracle-micro")
        m, n, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        f = rand_micromorphism(rng, m, n, k)
        b = rand_point(rng, n)
        rel, phi = micro.tangent_relation_at(f, b), f.core.jacobian_at(b)
        check(rel, phi, True)
        check(rel, moved(phi, rng.randrange(m), rng.randrange(n), F(1, 3)), False)
    assert verdicts[True] == 300 and verdicts[False] > 250


@given(rel=relations(), data=st.data())
def test_transverse_to_splitting_matches_oracle(rel, data):
    n = rel.target_half_dim
    b_rows = tuple(tuple(r) for r in symmetric(data.draw, n))
    splitting = linsympl.Splitting(n, b_rows)
    assert linsympl.transverse_to_splitting(rel, splitting) == \
        ref.transverse_to_splitting(rel, b_rows)


SPLIT_ENTRY = st.one_of(st.integers(-2, 2).map(F), ENTRY)


def meeting_splitting(rel):
    """A symmetric B with K_B meeting rel + (horizontal source), so that rel is
    not transverse to it: B p2 = x2 for some (x1, 0, x2, p2) in rel with
    p2 != 0.  None when there is no such vector."""
    m, n = rel.source_half_dim, rel.target_half_dim
    p1_free = ref.nullspace(tuple(tuple(vec[m + r] for vec in rel.vectors) for r in range(m)),
                            ncols=len(rel.vectors))
    for c in p1_free:
        w = ref.lin_combo(rel.vectors, c)
        x, p = w[2 * m:2 * m + n], w[2 * m + n:]
        pp = sum(v * v for v in p)
        if pp:
            xp = sum(a * b for a, b in zip(x, p))
            return tuple(tuple((x[i] * p[j] + p[i] * x[j]) / pp - xp * p[i] * p[j] / pp ** 2
                               for j in range(n)) for i in range(n))
    return None


@given(seed=st.integers(0, 999), m=HALF_DIM, n=HALF_DIM, zero=st.booleans(),
       data=st.data())
def test_cached_transversality_matches_oracle_in_call_order(seed, m, n, zero, data):
    # one relation against 2-8 splittings: the first call fills the cached
    # annihilator and the later ones reuse it.  Splittings that meet the
    # relation plus the horizontal source are drawn often, so that the n x n
    # matrix A_x2 B + A_p2 decides many answers; the zero section with m > 0
    # meets the horizontal source, so more than n functionals vanish on the
    # sum and every answer is False
    if zero:
        rel = linsympl.zero_section_relation(m, n)
    else:
        rel = rand_lagrangian_relation(rng_for(seed, "oracle-cache"), m, n)
    fresh = linsympl.LinCanonicalRelation.from_vectors(m, n, rel.vectors)

    def same_as_fresh():
        return rel == fresh and hash(rel) == hash(fresh) and repr(rel) == repr(fresh)

    assert same_as_fresh()
    meeting = meeting_splitting(rel)
    answers = []
    for _ in range(data.draw(st.integers(2, 8))):
        if meeting is not None and data.draw(st.booleans()):
            b_rows = meeting
        else:
            b_rows = tuple(tuple(r) for r in symmetric(data.draw, n, SPLIT_ENTRY))
        answers.append(linsympl.transverse_to_splitting(rel, linsympl.Splitting(n, b_rows)))
        assert answers[-1] == ref.transverse_to_splitting(rel, b_rows)
        assert not (b_rows is meeting and answers[-1])
    assert rel._annihilator is not None
    assert same_as_fresh()
    if zero and m:
        assert not any(answers)


def test_seeded_transversality_matches_oracle():
    # a fixed draw of relations and splittings, rational and meeting, so that
    # every answer is pinned without Hypothesis
    answers = []
    for seed in range(200):
        rng = rng_for(seed, "transverse-oracle")
        m, n = rng.randint(0, 3), rng.randint(1, 3)
        rel = rand_lagrangian_relation(rng, m, n)
        b_list = [rand_symmetric_matrix(rng, n) for _ in range(3)]
        meeting = meeting_splitting(rel)
        if meeting is not None:
            b_list.append(meeting)
        for b_rows in b_list:
            got = linsympl.transverse_to_splitting(rel, linsympl.Splitting(n, b_rows))
            assert got == ref.transverse_to_splitting(rel, b_rows), (seed, m, n, b_rows)
            answers.append(got)
    assert len(answers) > 600 and True in answers and False in answers


def test_samplers_match_the_dense_reference_and_its_draws():
    # the golden corpora pin only some shapes; this pins every draw order
    for seed in range(100):
        rng, ref_rng = rng_for(seed, "sampler-oracle"), rng_for(seed, "sampler-oracle")
        for n in range(4):
            assert rand_symplectic_matrix(rng, n) == ref.rand_symplectic_matrix(ref_rng, n)
            assert rng.getstate() == ref_rng.getstate()
        for m in range(4):
            for n in range(4):
                rel = rand_lagrangian_relation(rng, m, n)
                assert rel.vectors == ref.rand_lagrangian_relation(ref_rng, m, n)
                assert rng.getstate() == ref_rng.getstate()


def test_matrix_draws_match_the_frozen_fraction_draws():
    # the samplers above and the seeded corpora draw through these two
    for seed in range(50):
        rng, ref_rng = rng_for(seed, "draw-oracle"), rng_for(seed, "draw-oracle")
        for n in range(5):
            for bound in (1, 2, 3):
                want = ref.rand_invertible_int_matrix(ref_rng, n, bound)
                assert _rand_invertible(rng, n, bound)[0] == [list(row) for row in want]
                assert rng.getstate() == ref_rng.getstate()
            for max_num, max_den in ((4, 3), (2, 2), (9, 9)):
                got = rand_symmetric_matrix(rng, n, max_num, max_den)
                assert got == ref.rand_symmetric_matrix(ref_rng, n, max_num, max_den)
                assert all_fractions(got)
                assert rng.getstate() == ref_rng.getstate()
