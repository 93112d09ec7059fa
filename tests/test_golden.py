"""Golden corpora of linear-layer and germ-layer outputs, compared byte for byte.

``tests/golden/linsympl.txt`` holds the ``textio.format_matrix`` text of
``compose_linear`` and ``image_of_point`` on a fixed seeded set of
``sampling`` inputs, with the ``reduce_span``, ``nullspace`` and
``mat_inverse`` lines written by the frozen copies in
``tests/reference_linsympl.py``, which also draws the invertible integer
matrices (the library keeps only its integer-row draw).  The exponent
tuples of ``layered_micromorphism`` come from
``reference_sampling.rand_exponents``.

``tests/golden/linear.txt`` holds the linear checks of a micromorphism on
seeded ``sampling`` inputs at core dimensions 0-3: the ``tangent_relation_at``
vectors, ``is_lagrangian`` verdicts and reasons (on the relation, on a
non-isotropic perturbation and on a rank-deficient set),
``check_linear_micromorphism`` verdicts (true and perturbed core map),
``transverse_to_splitting`` over five splittings (and on a zero-section
relation, which is never transverse when m > 0), and ``subspace_contains``
and ``subspace_equal`` results.

``tests/golden/jetalg.txt`` holds the ``FiberGradedPoly.to_text`` of seeded
products, powers, ``substitute`` and ``substitute_many`` results (mixed
denominators, large coefficients, ``None`` identity entries) at fiber and
base arities 0-3 and orders 0-4.

``tests/golden/micro.txt`` holds the ``textio.format_germ`` and
``textio.format_morphism`` text of ``extract_germ``, ``compose_germs``,
``graph_of_germ``, ``invert_germ`` and ``compose`` on seeded pairs of
``sampling.rand_affine_core_micromorphism`` at core dimensions 1-3 and
orders 1-4.

``tests/golden/cli.txt`` holds the exit code and stdout of the CLI verbs
``compose`` (fixed records, and seeded ``rand_micromorphism`` pairs at core
dimensions 0-3 and orders 1-4), ``germ --roundtrip`` (fixed records, and
seeded ``rand_affine_core_micromorphism`` records), ``operad --dim 2
--arity 2 --samples 3 --order 6`` at two seeds and at ``--order 15``, and
``compose`` of seeded ``rand_micromorphism`` pairs at orders 5-8 and base
degree 2, ``compose`` at orders 2-8 after inner operands whose terms with a
base variable start just above fiber degree K // 2, and after the same
draws with such terms starting exactly at K // 2, and ``compose`` of seeded
outer records after ``micro.unit_to``, each run in process through
``cli.main`` on the text of ``textio.format_morphism``.

``tests/golden/scripts.txt`` holds the stdout of ``scripts/compose_demo.py``
and ``scripts/operad_survey.py``, each after a line naming the script, and
``tests/golden/selfcheck.txt`` the stdout of ``microsympl selfcheck --seed
42``, which ``test_acceptance.test_criterion_10_determinism`` compares; all
three run as separate processes.

After an intended change of output, rewrite all seven with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from microsympl import cli, micro
from microsympl.jetalg import FiberGradedPoly, substitute_many
from microsympl.linsympl import (check_linear_micromorphism, compose_linear,
                                 image_of_point, is_lagrangian,
                                 subspace_contains, subspace_equal,
                                 transverse_to_splitting, zero_section_relation)
from microsympl.micro import MicroObject, Micromorphism
from microsympl.sampling import (rand_affine_core_micromorphism, rand_fraction,
                                 rand_lagrangian_relation, rand_micromorphism,
                                 rand_point, rand_poly, rand_splitting,
                                 rand_symmetric_matrix, rand_symplectic_matrix,
                                 rng_for)
from microsympl.textio import format_germ, format_matrix, format_morphism
from reference_linsympl import (lin_combo, mat_inverse, nullspace, rand_invertible_int_matrix,
                                reduce_span)
from reference_sampling import rand_exponents

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
CASES = 40
MICRO_CASES = 30
MICRO_SHAPES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)]
JETALG_CASES = 80
LINEAR_CASES = 48
CLI_CASES = 16
CLI_HIGH_CASES = 12
CLI_UNIT_CASES = 4
# records whose base degrees and mixed denominators the seeded ones do not reach
CLI_RECORDS = [
    "source=1 target=1 order=3\nS = p1*x1^7 - 3/4*p1^2*x1^5 + 1/9*p1^3*x1\n",
    "source=1 target=1 order=3\nS = 2*p1*x1 + 5/6*p1^2*x1^2 - p1^3\n",
    "source=2 target=2 order=2\nS = p1*x2 + p2*x1 + 1/2*p1^2*x1*x2 - 7/3*p1*p2*x2^3\n",
    "source=2 target=1 order=4\nS = p1*x1^2 + p2 + 1/5*p1^2*p2^2*x1\n",
    "source=1 target=2 order=4\nS = p1*x1*x2 - p1*x2^3 - 2/3*p1^4*x1\n",
]
# (outer, inner) indices into CLI_RECORDS
CLI_COMPOSE_PAIRS = [(0, 1), (1, 0), (0, 0), (2, 2), (3, 4), (4, 3)]


def layered_micromorphism(rng, m, mid, k, start):
    """A seeded micromorphism m -> mid at order k whose terms with a base
    variable have fiber degree >= ``start``, one of them exactly ``start``
    unless start > k or m or mid is 0; its other terms are pure in p."""
    gen = rand_poly(rng, m, mid, k, terms=3, min_fiber_deg=1, max_base_deg=0)
    if m and mid and start <= k:
        gen = gen + FiberGradedPoly.monomial(
            m, mid, k, rand_fraction(rng, nonzero=True), rand_exponents(rng, m, start),
            rand_exponents(rng, mid, rng.randint(1, 2)))
        gen = gen + rand_poly(rng, m, mid, k, terms=2, min_fiber_deg=start)
    return Micromorphism(MicroObject(m), MicroObject(mid), gen)


def _rand_rows(rng, nrows, ncols):
    rows = [tuple(rand_fraction(rng) for _ in range(ncols)) for _ in range(nrows)]
    if rows:
        # one dependent row, so that rank deficiency is always covered
        coeffs = [rand_fraction(rng) for _ in rows]
        rows.append(lin_combo(rows, coeffs))
    return tuple(rows)


def _case_lines(case):
    rng = rng_for(case, "golden-linsympl")
    m, mid, n = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
    v = rand_lagrangian_relation(rng, m, mid)
    w = rand_lagrangian_relation(rng, mid, n)
    composite = compose_linear(w, v)
    width = rng.randint(1, 5)
    rows = _rand_rows(rng, rng.randint(0, 4), width)
    span = v.vectors + _rand_rows(rng, 1, 2 * (m + mid))
    reachable = lin_combo(composite.vectors,
                          [rand_fraction(rng) for _ in composite.vectors])[:2 * m]
    yield "reduce_span", format_matrix(reduce_span(span))
    yield "nullspace", format_matrix(nullspace(rows, ncols=width))
    yield "compose_linear", format_matrix(composite.vectors)
    for point in (rand_point(rng, 2 * m), reachable):
        image = image_of_point(composite, point)
        if image.is_empty:
            yield "image_of_point", "empty"
        else:
            yield "image_of_point", (format_matrix((image.point,)) + " | "
                                     + format_matrix(image.directions))
    for square in (rand_symplectic_matrix(rng, rng.randint(1, 3)),
                   rand_invertible_int_matrix(rng, rng.randint(1, 4)),
                   rand_symmetric_matrix(rng, rng.randint(1, 4), 2, 2),
                   _rand_rows(rng, 2, 3)):
        inverse = mat_inverse(square)
        yield "mat_inverse", "singular" if inverse is None else format_matrix(inverse)


def linsympl_text() -> str:
    return "".join(f"{case} {name} {text}\n"
                   for case in range(CASES) for name, text in _case_lines(case))


def _verdict(result) -> str:
    return f"{bool(result)} {result.describe()}"


def _linear_lines(case):
    rng = rng_for(case, "golden-linear")
    m, n = case % 4, (case // 4) % 4
    f = rand_micromorphism(rng, m, n, rng.randint(1, 4))
    b = rand_point(rng, n)
    rel = micro.tangent_relation_at(f, b)
    vecs, space = rel.vectors, rel.subspace.space
    yield "tangent_relation_at", format_matrix(vecs)
    yield "is_lagrangian", _verdict(is_lagrangian(space, vecs))
    if vecs:
        # break isotropy by adding a random vector to the first one
        bump = rand_point(rng, space.dim, 5, 4)
        yield "is_lagrangian", _verdict(is_lagrangian(
            space, (tuple(x + y for x, y in zip(vecs[0], bump)),) + vecs[1:]))
        # rank-deficient: the last vector repeats a combination of the others
        combo = lin_combo(vecs[:-1], [rand_fraction(rng) for _ in vecs[:-1]]) \
            if len(vecs) > 1 else (0,) * space.dim
        yield "is_lagrangian", _verdict(is_lagrangian(space, vecs[:-1] + (combo,)))
    phi = f.core.jacobian_at(b)
    yield "check_linear_micromorphism", _verdict(check_linear_micromorphism(rel, phi))
    if m and n:
        wrong = tuple(tuple(x + (1 if (i, j) == (0, 0) else 0) for j, x in enumerate(row))
                      for i, row in enumerate(phi))
        yield "check_linear_micromorphism", _verdict(check_linear_micromorphism(rel, wrong))
    splittings = [rand_splitting(rng, n) for _ in range(5)]
    yield "transverse_to_splitting", ",".join(
        str(transverse_to_splitting(rel, s)) for s in splittings)
    yield "transverse_to_splitting", ",".join(
        str(transverse_to_splitting(zero_section_relation(m, n), s)) for s in splittings)
    inside = lin_combo(vecs, [rand_fraction(rng) for _ in vecs]) if vecs else ()
    outside = rand_point(rng, space.dim)
    yield "subspace_contains", ",".join(
        str(subspace_contains(vecs, v)) for v in (inside, outside, (0,) * space.dim))
    other = rand_lagrangian_relation(rng, m, n).vectors
    yield "subspace_equal", ",".join(
        str(subspace_equal(vecs, w)) for w in (reduce_span(vecs), other, vecs[:-1],
                                                tuple(reversed(vecs))))


def linear_text() -> str:
    return "".join(f"{case} {name} {text}\n"
                   for case in range(LINEAR_CASES) for name, text in _linear_lines(case))


def _micro_blocks(case):
    n, k = MICRO_SHAPES[case % len(MICRO_SHAPES)]
    rng = rng_for(case, "golden-micro")
    f1 = rand_affine_core_micromorphism(rng, n, k)
    f2 = rand_affine_core_micromorphism(rng, n, k)
    g1, g2 = micro.extract_germ(f1), micro.extract_germ(f2)
    composed = micro.compose_germs(g2, g1)
    yield "extract_germ", format_germ(g1)
    yield "compose_germs", format_germ(composed)
    yield "graph_of_germ", format_morphism(micro.graph_of_germ(composed))
    yield "invert_germ", format_germ(micro.invert_germ(g1))
    yield "compose", format_morphism(micro.compose(f2, f1))


def micro_text() -> str:
    # each block is a header line followed by the multi-line record text
    return "".join(f"{case} {name}\n{text}"
                   for case in range(MICRO_CASES) for name, text in _micro_blocks(case))


def _jetalg_poly(rng, m, n, k, min_fiber_deg=0):
    poly = rand_poly(rng, m, n, k, terms=rng.randint(0, 6),
                     min_fiber_deg=min_fiber_deg, max_base_deg=rng.randint(0, 3))
    if rng.random() < 0.3:
        # coefficients far beyond the machine word, with coprime denominators
        poly = poly.scale(rand_fraction(rng, 2**70, 3**40, nonzero=True))
    return poly


def _jetalg_lines(case):
    rng = rng_for(case, "golden-jetalg")
    m, n, k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4)
    a, b = _jetalg_poly(rng, m, n, k), _jetalg_poly(rng, m, n, k)
    yield "mul", (a * b).to_text()
    yield "mul_self", (a * a).to_text()
    yield "pow", (b ** rng.randint(0, 5)).to_text()
    tm, tn, tk = rng.randint(m and 1, 3), rng.randint(0, 3), rng.randint(0, 4)
    if m and not tk:
        tk = 1
    fiber = [None if i < tm and rng.random() < 0.3
             else _jetalg_poly(rng, tm, tn, tk, min_fiber_deg=1) for i in range(m)]
    base = [None if j < tn and rng.random() < 0.3
            else _jetalg_poly(rng, tm, tn, tk) for j in range(n)]
    space = (tm, tn, tk)
    yield "substitute", a.substitute(fiber, base, space=space).to_text()
    for poly in substitute_many([a, b, a * b], fiber, base, space):
        yield "substitute_many", poly.to_text()


def jetalg_text() -> str:
    return "".join(f"{case} {name} {text}\n"
                   for case in range(JETALG_CASES) for name, text in _jetalg_lines(case))


def _cli_run(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _cli_blocks():
    for outer, inner in CLI_COMPOSE_PAIRS:
        yield "compose", _cli_run(["compose", CLI_RECORDS[outer], CLI_RECORDS[inner]])
    yield "germ", _cli_run(["germ", "--roundtrip", CLI_RECORDS[1]])
    yield "germ", _cli_run(["germ", "--roundtrip", CLI_RECORDS[2]])
    for case in range(CLI_CASES):
        rng = rng_for(case, "golden-cli")
        m, mid, n, k = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3),
                        rng.randint(1, 4))
        f = rand_micromorphism(rng, m, mid, k, max_base_deg=3)
        g = rand_micromorphism(rng, mid, n, k, max_base_deg=3)
        yield "compose", _cli_run(["compose", format_morphism(g), format_morphism(f)])
        h = rand_affine_core_micromorphism(rng, rng.randint(1, 3), k)
        yield "germ", _cli_run(["germ", "--roundtrip", format_morphism(h)])
    for seed in ("0", "1"):
        yield "operad", _cli_run(["operad", "--dim", "2", "--arity", "2", "--samples", "3",
                                  "--order", "6", "--seed", seed])
    # high orders, where composition does most of its work
    yield "operad", _cli_run(["operad", "--dim", "2", "--arity", "2", "--samples", "3",
                              "--order", "15"])
    for case in range(CLI_HIGH_CASES):
        rng = rng_for(case, "golden-cli-high")
        m, mid, n, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3), 5 + case % 4
        f = rand_micromorphism(rng, m, mid, k, terms=rng.randint(3, 6))
        g = rand_micromorphism(rng, mid, n, k, terms=rng.randint(3, 6))
        yield "compose", _cli_run(["compose", format_morphism(g), format_morphism(f)])
    # the middle point of these is its seed through K // 2 when the inner
    # operand's terms with a y start above it, and moves when they start at it
    for k in range(2, 9):
        for start in (k // 2 + 1, k // 2):
            rng = rng_for(k, "golden-cli-layered")
            m, mid, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
            f = layered_micromorphism(rng, m, mid, k, start)
            g = rand_micromorphism(rng, mid, n, k, terms=rng.randint(3, 6))
            yield "compose", _cli_run(["compose", format_morphism(g), format_morphism(f)])
    for case in range(CLI_UNIT_CASES):
        rng = rng_for(case, "golden-cli-unit")
        mid, n, k = rng.randint(1, 3), rng.randint(0, 3), 1 + 2 * case
        g = rand_micromorphism(rng, mid, n, k, terms=rng.randint(3, 6))
        unit = micro.unit_to(MicroObject(mid), k)
        yield "compose", _cli_run(["compose", format_morphism(g), format_morphism(unit)])


def cli_text() -> str:
    return "".join(f"{i} {verb}\n{text}" for i, (verb, text) in enumerate(_cli_blocks()))


def run_stdout(*args) -> bytes:
    """Stdout of the current Python on ``args``, with the package source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, check=True,
                          timeout=600, env=env).stdout


def scripts_text() -> str:
    return "".join(f"{name}\n{run_stdout(str(ROOT / 'scripts' / name)).decode()}"
                   for name in ("compose_demo.py", "operad_survey.py"))


def selfcheck_text() -> str:
    return run_stdout("-m", "microsympl.cli", "selfcheck", "--seed", "42").decode()


CORPORA = {"linsympl.txt": linsympl_text, "micro.txt": micro_text,
           "jetalg.txt": jetalg_text, "linear.txt": linear_text, "cli.txt": cli_text,
           "scripts.txt": scripts_text, "selfcheck.txt": selfcheck_text}


def test_golden_corpus_is_byte_identical():
    assert linsympl_text().encode() == (GOLDEN_DIR / "linsympl.txt").read_bytes()


def test_linear_checks_golden_corpus_is_byte_identical():
    assert linear_text().encode() == (GOLDEN_DIR / "linear.txt").read_bytes()


def test_jetalg_golden_corpus_is_byte_identical():
    assert jetalg_text().encode() == (GOLDEN_DIR / "jetalg.txt").read_bytes()


def test_germ_golden_corpus_is_byte_identical():
    assert micro_text().encode() == (GOLDEN_DIR / "micro.txt").read_bytes()


def test_cli_golden_corpus_is_byte_identical():
    assert cli_text().encode() == (GOLDEN_DIR / "cli.txt").read_bytes()


def test_script_outputs_are_byte_identical():
    assert scripts_text().encode() == (GOLDEN_DIR / "scripts.txt").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in CORPORA.items():
        (GOLDEN_DIR / name).write_text(text())
