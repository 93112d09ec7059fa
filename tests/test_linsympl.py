import random
from fractions import Fraction as F

import pytest

from microsympl.errors import InternalInvariantError, ShapeError, ValidityError
from microsympl.linsympl import (AffineSubspace, LinCanonicalRelation, Splitting,
                                 SymplecticSpace, check_linear_micromorphism,
                                 compose_linear, graph_relation, identity_relation,
                                 image_of_point, is_lagrangian,
                                 mat_inverse, mat_mul, mat_vec, nullspace, rank, reduce_span,
                                 solve, subspace_contains, subspace_equal, unit_vector,
                                 zero_section_relation, zero_vector)
from microsympl.sampling import (rand_lagrangian_relation, rand_splitting,
                                 rand_symmetric_matrix, rand_symplectic_matrix,
                                 rng_for)
from reference_linsympl import lin_combo


def vecs(*rows):
    return tuple(tuple(F(x) for x in r) for r in rows)


# -- rational linear algebra utilities -------------------------------------------


def test_rank_and_nullspace():
    m = vecs((1, 2, 3), (2, 4, 6), (0, 1, 1))
    assert rank(m) == 2
    null = nullspace(m)
    assert len(null) == 1
    assert all(not any(mat_vec(m, v)) for v in null)


def test_solve_consistent_and_inconsistent():
    m = vecs((1, 1), (0, 1))
    assert solve(m, (F(3), F(1))) == (F(2), F(1))
    singular = vecs((1, 1), (2, 2))
    assert solve(singular, (F(1), F(3))) is None


@pytest.mark.parametrize("call", [
    lambda: rank(((1,), (0, 1))),
    lambda: subspace_contains(((0, 1),), (0, 1, 3)),
    lambda: AffineSubspace(2, (1, 0), ((0, 1),)).contains((1, 5, 7)),
    lambda: solve(((1, 0), (0, 1)), (3,)),
    lambda: mat_inverse(((1, 0),)),
    lambda: mat_mul(((1,),), ((1, 2), (3, 4))),
    lambda: mat_mul(((1, 1),), ((1, 2), (3,))),
    lambda: mat_vec(((1, 2),), (1,)),
], ids=["rank-ragged", "contains-width", "affine-contains-length", "solve-rhs-length",
        "inverse-not-square", "mul-inner-length", "mul-ragged", "mat-vec-length"])
def test_shape_mismatches_raise_instead_of_truncating(call):
    with pytest.raises(ShapeError):
        call()


def test_subspace_equality_is_basis_independent():
    a = vecs((1, 0, 1), (0, 1, 0))
    b = vecs((1, 1, 1), (2, -1, 2))
    assert subspace_equal(a, b)
    assert not subspace_equal(a, vecs((1, 0, 0), (0, 1, 0)))


# -- is_lagrangian ----------------------------------------------------------------


def test_zero_section_is_lagrangian():
    space = SymplecticSpace.standard(2)
    basis = [unit_vector(4, 0), unit_vector(4, 1)]
    assert is_lagrangian(space, basis)


def test_graph_of_symmetric_matrix_is_lagrangian():
    rng = rng_for(3, "sym")
    for n in (1, 2, 3):
        s = rand_symmetric_matrix(rng, n)
        space = SymplecticSpace.standard(n)
        basis = [unit_vector(n, j) + tuple(s[i][j] for i in range(n))
                 for j in range(n)]
        assert is_lagrangian(space, basis)


def test_mixed_axes_are_not_lagrangian():
    # span{x1-axis, p1-axis} in R^4: the form on the pair is -1
    space = SymplecticSpace.standard(2)
    basis = [unit_vector(4, 0), unit_vector(4, 2)]
    res = is_lagrangian(space, basis)
    assert not res
    assert any("basis[0], basis[1]" in r for r in res.reasons)


def test_lagrangian_subspace_constructor_validates():
    from microsympl.linsympl import LagrangianSubspace
    space = SymplecticSpace.standard(2)
    with pytest.raises(ValidityError):
        LagrangianSubspace(space, (unit_vector(4, 0), unit_vector(4, 2)))


# -- compose_linear ---------------------------------------------------------------


def test_graph_composition_matches_matrix_product():
    rng = rng_for(5, "graphs")
    for n in (1, 2):
        for _ in range(10):
            a = rand_symplectic_matrix(rng, n)
            b = rand_symplectic_matrix(rng, n)
            got = compose_linear(graph_relation(a), graph_relation(b))
            assert subspace_equal(got.vectors, graph_relation(mat_mul(a, b)).vectors)


def test_compose_with_identity_is_identity_on_relations():
    rng = rng_for(6, "unit")
    for _ in range(10):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        v = rand_lagrangian_relation(rng, m, n)
        assert subspace_equal(compose_linear(v, identity_relation(m)).vectors,
                              v.vectors)
        assert subspace_equal(compose_linear(identity_relation(n), v).vectors,
                              v.vectors)


def test_zero_section_composition_by_brute_force():
    v = zero_section_relation(1, 2)
    w = zero_section_relation(2, 1)
    got = compose_linear(w, v)
    # brute force: every (u, z) pair of zero-section vectors is related through
    # a middle zero-section point, and nothing else can appear
    expected = zero_section_relation(1, 1)
    assert subspace_equal(got.vectors, expected.vectors)


def test_compose_through_point_is_the_product_relation():
    # middle half-dimension 0: every source point relates to every target one
    rng = rng_for(15, "point")
    v = rand_lagrangian_relation(rng, 1, 0)
    w = rand_lagrangian_relation(rng, 0, 2)
    got = compose_linear(w, v)
    expected = [vec + zero_vector(4) for vec in v.vectors]
    expected += [zero_vector(2) + vec for vec in w.vectors]
    assert subspace_equal(got.vectors, expected)


def test_compose_linear_dimension_mismatch():
    with pytest.raises(ShapeError):
        compose_linear(zero_section_relation(2, 1), zero_section_relation(1, 1))


def test_compose_linear_output_always_lagrangian():
    rng = rng_for(7, "closure")
    for _ in range(50):
        m, n, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        v = rand_lagrangian_relation(rng, m, n)
        w = rand_lagrangian_relation(rng, n, q)
        c = compose_linear(w, v)
        assert is_lagrangian(c.subspace.space, c.vectors)


def test_compose_linear_associative():
    rng = rng_for(8, "assoc")
    for _ in range(20):
        dims = [rng.randint(1, 2) for _ in range(4)]
        v = rand_lagrangian_relation(rng, dims[0], dims[1])
        w = rand_lagrangian_relation(rng, dims[1], dims[2])
        u = rand_lagrangian_relation(rng, dims[2], dims[3])
        lhs = compose_linear(u, compose_linear(w, v))
        rhs = compose_linear(compose_linear(u, w), v)
        assert subspace_equal(lhs.vectors, rhs.vectors)


# -- image_of_point ---------------------------------------------------------------


def test_image_through_identity_graph():
    v = identity_relation(2)
    u = (F(1), F(2), F(3), F(4))
    img = image_of_point(v, u)
    assert not img.is_empty
    assert img.point == u and img.directions == ()


def test_image_of_zero_section_point_is_whole_target_section():
    v = zero_section_relation(1, 2)
    img = image_of_point(v, (F(5), F(0)))
    expected = AffineSubspace(4, zero_vector(4),
                              (unit_vector(4, 0), unit_vector(4, 1)))
    assert img == expected


def test_image_off_the_zero_section_is_empty():
    v = zero_section_relation(1, 1)
    assert image_of_point(v, (F(0), F(1))).is_empty


def test_image_through_matrix_graph():
    rng = rng_for(9, "img")
    a = rand_symplectic_matrix(rng, 1)
    v = graph_relation(a)
    u = (F(2), F(-3))
    img = image_of_point(v, u)
    assert img.point == mat_vec(a, u) and img.directions == ()


def _image_of_affine(w, aff):
    # relation-semantics oracle built from raw solves, independent of compose_linear
    if aff.is_empty:
        return AffineSubspace(2 * w.target_half_dim, None)
    wvecs = w.vectors
    src = 2 * w.source_half_dim
    cols = [tuple(vec[r] for vec in wvecs) for r in range(src)]
    dirs = list(aff.directions)
    rows = tuple(tuple(cols[r]) + tuple(-d[r] for d in dirs) for r in range(src))
    part = solve(rows, aff.point)
    if part is None:
        return AffineSubspace(2 * w.target_half_dim, None)
    point = lin_combo(wvecs, part[:len(wvecs)])[src:]
    out_dirs = [lin_combo(wvecs, z[:len(wvecs)])[src:]
                for z in nullspace(rows, ncols=len(wvecs) + len(dirs))]
    return AffineSubspace(2 * w.target_half_dim, point, reduce_span(out_dirs))


def test_image_of_composition_matches_composed_images():
    rng = rng_for(10, "relsem")
    for _ in range(25):
        m, n, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        v = rand_lagrangian_relation(rng, m, n)
        w = rand_lagrangian_relation(rng, n, q)
        u = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * m))
        direct = image_of_point(compose_linear(w, v), u)
        staged = _image_of_affine(w, image_of_point(v, u))
        assert direct == staged


# -- check_linear_micromorphism ----------------------------------------------------


def test_identity_relation_is_a_micromorphism():
    assert check_linear_micromorphism(identity_relation(2), vecs((1, 0), (0, 1)))


def test_zero_section_relation_fails_micromorphism_check():
    v = zero_section_relation(1, 1)
    assert not check_linear_micromorphism(v, vecs((0,)))
    assert not check_linear_micromorphism(v, vecs((1,)))


def test_graph_relation_passes_with_its_own_matrix():
    # graph of a symplectic matrix meets {p1 = 0} in the graph of its position block
    rng = rng_for(11, "coremap")
    for _ in range(10):
        a = rand_symplectic_matrix(rng, 1)
        v = graph_relation(a)
        # x2 = a00 x1 when p1 = 0 forces phi = inverse of the position block
        if a[0][0] == 0:
            continue
        phi = ((F(1) / a[0][0],),)
        expected = check_linear_micromorphism(v, phi)
        # valid exactly when the p2 component vanishes on that slice
        vertical = a[1][0]
        assert bool(expected) == (vertical == 0)


# -- transverse_to_splitting --------------------------------------------------------


def test_identity_relation_transverse_to_every_splitting():
    rng = rng_for(12, "split")
    v = identity_relation(2)
    for _ in range(20):
        assert transverse(v, rand_splitting(rng, 2))


def transverse(v, s):
    from microsympl.linsympl import transverse_to_splitting
    return transverse_to_splitting(v, s)


def test_vertical_target_against_horizontal_source_fails():
    # contains ((dx1, 0), (0, dp2)): lies inside horizontal x vertical
    v = LinCanonicalRelation.from_vectors(1, 1, vecs((1, 0, 0, 1), (0, 1, -1, 0)))
    assert not transverse(v, Splitting(1, vecs((0,))))


def test_splitting_requires_symmetric_matrix():
    with pytest.raises(ValidityError):
        Splitting(2, vecs((0, 1), (2, 0)))


class _Negated(Splitting):
    def vertical_vectors(self):
        return tuple(tuple(-x for x in v) for v in super().vertical_vectors())


class _Sheared(Splitting):
    def vertical_vectors(self):
        first, *rest = super().vertical_vectors()
        return (tuple(a + b for a, b in zip(first, rest[0])), *rest)


class _Flattened(Splitting):
    def vertical_vectors(self):
        return tuple(v[:self.half_dim] + zero_vector(self.half_dim)
                     for v in super().vertical_vectors())


@pytest.mark.parametrize("cls", [_Negated, _Sheared, _Flattened])
def test_splitting_guard_rejects_a_basis_that_is_not_s_j_e_j_in_p(cls):
    # the guard reads the p block of each vertical vector: e_j
    rows = vecs((F(1, 2), 3), (3, F(-2, 7)))
    with pytest.raises(InternalInvariantError, match="splitting basis degenerate"):
        cls(2, rows)
    s = Splitting(2, rows)
    assert s == Splitting(2, rows) and hash(s) == hash(Splitting(2, rows))
    assert repr(s) == f"Splitting(half_dim=2, rows={s.rows!r})"


def test_micromorphism_check_implies_transversality_to_all_splittings():
    # relations of graph type (dx1 = Q dp + C dx2, dp2 = C^T dp) pass the
    # core-graph check and are then transverse to every sampled splitting;
    # the zero-section relation fails both
    rng = rng_for(14, "equiv")
    from microsympl.linsympl import transverse_to_splitting
    for _ in range(15):
        m = n = rng.randint(1, 2)
        q = rand_symmetric_matrix(rng, m)
        c = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m))
        vectors = []
        for a in range(m):
            vectors.append(tuple(q[i][a] for i in range(m)) + unit_vector(m, a)
                           + zero_vector(n) + tuple(c[a][j] for j in range(n)))
        for b in range(n):
            vectors.append(tuple(c[i][b] for i in range(m)) + zero_vector(m)
                           + unit_vector(n, b) + zero_vector(n))
        v = LinCanonicalRelation.from_vectors(m, n, vectors)
        assert check_linear_micromorphism(v, c)
        for _ in range(10):
            assert transverse_to_splitting(v, rand_splitting(rng, n))
    bad = zero_section_relation(1, 1)
    assert not check_linear_micromorphism(bad, ((F(0),),))
    for _ in range(10):
        assert not transverse_to_splitting(bad, rand_splitting(rng, 1))


def test_random_relations_are_lagrangian_by_construction():
    rng = rng_for(13, "gen")
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        v = rand_lagrangian_relation(rng, m, n)
        assert is_lagrangian(v.subspace.space, v.vectors)
