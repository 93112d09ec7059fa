"""Golden corpus of linear-layer outputs, compared byte for byte.

``tests/golden/linsympl.txt`` holds the ``textio.format_matrix`` text of
``reduce_span``, ``nullspace``, ``compose_linear``, ``image_of_point`` and
``mat_inverse`` on a fixed seeded set of ``sampling`` inputs.  After an
intended change of output, rewrite it with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import sys
from pathlib import Path

from microsympl.linsympl import (compose_linear, image_of_point, lin_combo,
                                 mat_inverse, nullspace, reduce_span)
from microsympl.sampling import (rand_fraction, rand_invertible_int_matrix,
                                 rand_lagrangian_relation, rand_point,
                                 rand_symmetric_matrix, rand_symplectic_matrix,
                                 rng_for)
from microsympl.textio import format_matrix

GOLDEN = Path(__file__).resolve().parent / "golden" / "linsympl.txt"
CASES = 40


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


def golden_text() -> str:
    return "".join(f"{case} {name} {text}\n"
                   for case in range(CASES) for name, text in _case_lines(case))


def test_golden_corpus_is_byte_identical():
    assert golden_text().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
