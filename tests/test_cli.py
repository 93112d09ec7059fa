import sys

import pytest

from microsympl.cli import main

DEFORM_A = "source=1 target=1 order=2\nS = p1*x1 + 2/3*p1^2\n"
DEFORM_B = "source=1 target=1 order=2\nS = p1*x1 + 1/5*p1^2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose_command_adds_deformations(tmp_path, capsys):
    a = tmp_path / "a.morph"
    b = tmp_path / "b.morph"
    a.write_text(DEFORM_A)
    b.write_text(DEFORM_B)
    code, out, _ = run(capsys, "compose", str(a), str(b))
    assert code == 0
    assert "S = 13/15*p1^2 + p1*x1" in out


def test_compose_accepts_inline_records(capsys):
    code, out, _ = run(capsys, "compose", DEFORM_A, DEFORM_B)
    assert code == 0
    assert "13/15" in out


def test_lift_command(capsys):
    code, out, _ = run(capsys, "lift", "domain=1 codomain=1\nf1 = x1^2\n",
                       "--order", "2")
    assert code == 0
    assert "S = p1*x1^2" in out


def test_tensor_command(capsys):
    ident = "source=1 target=1 order=2\nS = p1*x1\n"
    code, out, _ = run(capsys, "tensor", ident, ident)
    assert code == 0
    assert "source=2 target=2 order=2" in out
    assert "S = p1*x1 + p2*x2" in out


def test_check_accepts_valid_morphism(capsys):
    code, out, _ = run(capsys, "check", DEFORM_A)
    assert code == 0
    assert "ok" in out


def test_check_rejects_normal_form_violation(capsys):
    code, _, err = run(capsys, "check", "source=1 target=1 order=2\nS = p1*x1 + x1^2\n")
    assert code == 1
    assert "x1^2" in err


def test_check_with_splitting_option(capsys):
    code, out, _ = run(capsys, "check", DEFORM_A,
                       "--splitting", "1/2", "--at", "1")
    assert code == 0
    assert "transverse to the splitting at (1): true" in out


def test_check_with_an_empty_at_is_a_parse_error(capsys):
    # an explicit empty point is not the origin
    code, out, err = run(capsys, "check", "source=2 target=2 order=2\nS = p1*x1 + p2*x2\n",
                         "--splitting", "1,2;2,1", "--at", "")
    assert code == 1
    assert "transverse" not in out
    assert "error" in err and "bad rational entry ''" in err


def test_germ_command_roundtrip(capsys):
    record = "source=1 target=1 order=2\nS = p1*x1 + 1/2*p1^2\n"
    code, out, _ = run(capsys, "germ", record, "--roundtrip")
    assert code == 0
    assert "X1 = -p1 + x1" in out
    assert "P1 = p1" in out
    assert "roundtrip: exact" in out


def test_germ_command_unsupported_core(capsys):
    code, _, err = run(capsys, "germ", "source=1 target=1 order=2\nS = p1*x1^2\n")
    assert code == 1
    assert "affine" in err


def test_operad_command_reports_all_pass(capsys):
    code, out, _ = run(capsys, "operad", "--arity", "3", "--levels", "2",
                       "--samples", "5", "--seed", "3")
    assert code == 0
    assert "#summary" in out
    assert "failed=0" in out


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["lift", "domain=1 codomain=1\nf1 = x1\n", "--order", "0"]) == 2
    capsys.readouterr()


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "source=1 target=1 order=2\nS = p1 ++\n")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("poly", ["p1*x1 + p1^3", "p1*x1 + 0*p1^3"])
def test_a_term_above_the_order_names_its_line(capsys, poly):
    code, out, err = run(capsys, "check", f"source=1 target=1 order=2\n\nS = {poly}")
    assert (code, out) == (1, "")
    assert err == "error: line 3: fiber degree 3 exceeds order 2\n"


def test_check_reads_a_file_whose_name_starts_with_germ(tmp_path, monkeypatch, capsys):
    (tmp_path / "germ_a.txt").write_text(DEFORM_A)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "check", "germ_a.txt")
    assert code == 0, err
    assert "ok" in out


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.morph"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "germ", str(path))
    assert code == 1
    assert str(path) in err and "UTF-8" in err


def test_check_at_without_splitting_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check", "source=1 target=1 order=2\nS = p1*x1\n",
                         "--at", "5,6,7")
    assert code == 2
    assert out == ""
    assert "--splitting" in err


def test_missing_file_is_a_validation_error(capsys):
    code, _, err = run(capsys, "check", "no-such-file.morph")
    assert code == 1


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.morph"
    code, out, _ = run(capsys, "compose", DEFORM_A, DEFORM_B, "--out", str(target))
    assert code == 0
    assert out == ""
    assert "13/15" in target.read_text()


def test_criterion_lines_deterministic_in_process():
    # cheap determinism probe on two criteria; the byte-level double run of
    # the full selfcheck lives in the acceptance tests
    from microsympl.acceptance import (criterion_lift_functoriality,
                                       criterion_pointwise_composition)
    assert criterion_lift_functoriality(7).line() == \
        criterion_lift_functoriality(7).line()
    assert criterion_pointwise_composition(7).line() == \
        criterion_pointwise_composition(7).line()


def test_order_limit_in_record_header(capsys):
    code, _, err = run(capsys, "check", "source=1 target=1 order=65\nS = p1*x1\n")
    assert code == 1
    assert "order 65 exceeds the limit of 64" in err
    code, _, _ = run(capsys, "check", "source=1 target=1 order=64\nS = p1*x1\n")
    assert code == 0


@pytest.mark.parametrize("verb, args", [
    ("lift", ["domain=1 codomain=1\nf1 = x1\n"]),
    ("operad", []),
])
def test_order_limit_on_flags(capsys, verb, args):
    # an out-of-range flag is a usage error, like --order 0
    code, _, err = run(capsys, verb, *args, "--order", "65")
    assert code == 2
    assert "order 65 exceeds the limit of 64" in err


@pytest.mark.parametrize("poly", ["p1*x1 + 3^2000000*p1^2", "p1*x1^123456789",
                                  "p1*x1 + 2^1025*p1^2"])
def test_exponent_limit(capsys, poly):
    code, _, err = run(capsys, "check", f"source=1 target=1 order=2\nS = {poly}\n")
    assert code == 1
    assert "exceeds the limit of 1024" in err


def test_exponent_at_the_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "compose", "source=1 target=1 order=2\nS = p1*x1^1024\n",
                       "source=1 target=1 order=2\nS = p1*x1\n")
    assert code == 0
    assert "S = p1*x1^1024" in out


def _power_record(exponent: int) -> str:
    # p1*x1^exponent, written as factors within the parser's limit of 1024
    factors = ["x1^1024"] * (exponent // 1024) + [f"x1^{exponent % 1024}"] * (exponent % 1024 > 0)
    return f"source=1 target=1 order=1\nS = p1*{'*'.join(factors)}\n"


@pytest.mark.parametrize("inner, exits", [(4095, 0), (4097, 1)])
def test_compose_past_the_packed_exponent_limit(capsys, inner, exits):
    # the core of the composite is x1^(inner * 2^20): 4095 * 2^20 fits in
    # the 32-bit exponent field of a monomial key, 4097 * 2^20 does not
    code, out, err = run(capsys, "compose", _power_record(1 << 20), _power_record(inner))
    assert code == exits
    if exits:
        assert out == ""
        assert err == f"error: exponent {1 << 32} exceeds the limit of {(1 << 32) - 1}\n"
    else:
        assert out.endswith(f"core f1 = x1^{inner << 20}\nS = p1*x1^{inner << 20}\n")


LONG = "1" * 5000


@pytest.mark.parametrize("poly", [f"p1*x1 + {LONG}*p1^2", f"p1*x1 + 1/{LONG}*p1^2",
                                  f"p1*x1^{LONG}", f"p{LONG}*x1"])
def test_integer_literal_over_the_digit_limit(capsys, poly):
    # coefficient, denominator, exponent and variable index: a ParseError, not
    # the interpreter's ValueError from int()
    code, _, err = run(capsys, "check", f"source=1 target=1 order=2\nS = {poly}\n")
    assert code == 1
    assert (f"integer of 5000 digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits") in err


@pytest.mark.parametrize("poly, column, char", [
    ("p1*x1 + p1^\xb2", 12, "\xb2"), ("p1*x1 + \u2460*p1^2", 9, "\u2460"), ("p1*x1\xb3", 6, "\xb3"),
])
def test_a_digit_that_is_not_decimal_is_an_unexpected_character(capsys, poly, column, char):
    # superscript and circled digits are not numbers to int(); they are
    # reported where they stand, not as an integer past the digit limit
    code, out, err = run(capsys, "check", f"source=1 target=1 order=2\nS = {poly}\n")
    assert (code, out) == (1, "")
    assert err == f"error: line 2, column {column}: unexpected character {char!r}\n"


@pytest.mark.parametrize("flag, value, limit", [
    ("--dim", "9", "dim 9 exceeds the limit of 8"),
    ("--arity", "9", "arity 9 exceeds the limit of 8"),
    ("--samples", "10001", "samples 10001 exceeds the limit of 10000"),
    # the axioms go two levels deep; a deeper --levels ran depth 2 silently
    ("--levels", "3", "levels 3 exceeds the limit of 2"),
])
def test_operad_flag_limits(capsys, flag, value, limit):
    code, _, err = run(capsys, "operad", flag, value)
    assert code == 2
    assert limit in err


def test_operad_flags_at_their_limits_parse():
    from microsympl.cli import _build_parser
    args = _build_parser().parse_args(["operad", "--dim", "8", "--arity", "8",
                                       "--samples", "10000", "--levels", "2"])
    assert (args.dim, args.arity, args.samples, args.levels) == (8, 8, 10000, 2)


def test_check_at_without_splitting_shows_the_check_usage_line(capsys):
    code, _, err = run(capsys, "check", "source=1 target=1 order=2\nS = p1*x1\n",
                       "--at", "1")
    assert code == 2
    assert err.startswith("usage: microsympl check ")
    assert "microsympl check: error: --at needs --splitting" in err


@pytest.mark.parametrize("verb, record, key", [
    ("check", "source=65 target=1 order=1\nS = p1*x1\n", "source"),
    ("check", "source=1 target=65 order=1\nS = p1*x1\n", "target"),
    ("lift", "domain=65 codomain=1\nf1 = x1\n", "domain"),
    ("lift", "domain=1 codomain=65\nf1 = x1\n", "codomain"),
])
def test_dimension_limit_in_record_headers(capsys, verb, record, key):
    code, out, err = run(capsys, verb, record)
    assert code == 1
    assert out == ""
    assert f"line 1: {key} 65 exceeds the limit of 64" in err


# int() reads "1_0" as 10; record headers, component names and matrix and
# point entries reject the '_' digit separator, as the polynomial grammar does
@pytest.mark.parametrize("args, message", [
    (["check", "source=1 target=1 order=1_0\nS = p1*x1\n"],
     "header value for 'order' is not an integer"),
    (["check", DEFORM_A, "--splitting", "1_0"], "bad rational entry '1_0'"),
    (["check", DEFORM_A, "--splitting", "1/2", "--at", "1/1_0"], "bad rational entry '1/1_0'"),
    (["lift", "domain=1 codomain=10\n" + "".join(f"f{i} = x1\n" for i in range(1, 10))
      + "f1_0 = x1\n"], "bad component name 'f1_0'"),
    (["check", "source=1 target=1 order=2\nS = p1*x1 + 1_0*p1^2\n"],
     "unexpected character '_'"),
])
def test_digit_separators_are_rejected(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("args", [
    ["lift", "domain=1 codomain=1\nf1 = x1\n", "--order", "1_0"],
    ["operad", "--order", "0_2"],
    ["operad", "--dim", "0_1"],
    ["operad", "--arity", "0_2"],
    ["operad", "--samples", "1_0"],
    ["operad", "--levels", "0_1"],
])
def test_digit_separators_in_integer_flags_are_usage_errors(capsys, args):
    # the same usage error as --order abc, not the value int() reads
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert f"{args[-1]!r} is not an integer" in err


@pytest.mark.parametrize("verb", [["operad", "--samples", "1", "--arity", "1", "--levels", "1"],
                                  ["selfcheck"]])
def test_digit_separators_in_seeds_are_usage_errors(capsys, verb):
    code, out, err = run(capsys, *verb, "--seed", "1_0")
    assert (code, out) == (2, "")
    assert "'1_0' is not an integer" in err


def test_seeds_may_be_negative(capsys):
    code, out, _ = run(capsys, "operad", "--seed", "-3", "--samples", "1", "--arity", "1",
                       "--levels", "1")
    assert code == 0 and "#summary" in out


def test_every_package_error_is_a_validation_failure(capsys, monkeypatch):
    # exit 1 follows the error hierarchy, not a list of its classes
    from microsympl import micro
    from microsympl.errors import MicrosymplError

    def fail(*args):
        raise MicrosymplError("no composite")
    monkeypatch.setattr(micro, "compose", fail)
    code, out, err = run(capsys, "compose", DEFORM_A, DEFORM_B)
    assert (code, out, err) == (1, "", "error: no composite\n")


def test_dimensions_at_the_limit_are_accepted():
    from microsympl.textio import parse_core_map, parse_morphism
    assert parse_morphism("source=64 target=1 order=1\nS = p64*x1\n").source.core_dim == 64
    assert parse_morphism("source=1 target=64 order=1\nS = p1*x64\n").target.core_dim == 64
    assert parse_core_map("domain=64 codomain=1\nf1 = x64\n").domain_dim == 64
    lines = "".join(f"f{i} = x1\n" for i in range(1, 65))
    assert parse_core_map("domain=1 codomain=64\n" + lines).codomain_dim == 64


@pytest.mark.parametrize("verb, record", [
    ("check", "source=-1 target=1 order=1\nS = 0\n"),
    ("check", "source=1 target=-2 order=1\nS = 0\n"),
    ("check", "source=-1 target=65 order=1\nS = 0\n"),
    ("lift", "domain=-1 codomain=1\nf1 = 0\n"),
    ("lift", "domain=1 codomain=-2"),
    ("lift", "domain=65 codomain=-2"),
])
def test_negative_dimensions_in_record_headers(capsys, verb, record):
    code, out, err = run(capsys, verb, record)
    assert code == 1
    assert out == ""
    assert "line 1: dimensions must be non-negative" in err


def test_working_space_over_the_term_limit_is_rejected(capsys):
    # 8 fiber variables at order 64: compose and the germ shift would expand
    # toward C(81, 16) fiber monomials; the header is refused before the body
    code, out, err = run(capsys, "germ", "source=8 target=8 order=64\nS = p1*x1\n")
    assert code == 1
    assert out == ""
    assert "line 1: working space of 16 fiber variables at order 65 has" in err
    assert "beyond MAX_FIBER_MONOMIALS = 366145" in err


def test_working_space_at_the_term_limit_is_accepted():
    from math import comb

    from microsympl.errors import ParseError
    from microsympl.textio import MAX_DIM, MAX_FIBER_MONOMIALS, parse_morphism
    # 2 * 64 fiber variables at order 3: exactly the limit
    assert comb(2 * MAX_DIM + 3, 3) == MAX_FIBER_MONOMIALS
    f = parse_morphism("source=64 target=64 order=2\nS = p64*x64\n")
    assert (f.source.core_dim, f.target.core_dim, f.order) == (64, 64, 2)
    # one order more at the same dimensions is over it
    with pytest.raises(ParseError, match="MAX_FIBER_MONOMIALS"):
        parse_morphism("source=64 target=64 order=3\nS = p64*x64\n")
    # an operad composite of arity 8 at dimension 2 and order 3: 32 fiber
    # variables at order 4
    assert parse_morphism("source=16 target=2 order=3\nS = p16*x2\n").order == 3


_CORE_MAP = "domain=1 codomain=1\n"


# record and matrix errors, byte for byte; the last names each offending
# monomial as the S(0, x) text writes it
@pytest.mark.parametrize("args, message", [
    (["lift", "\n# only a comment\n"], "line 1: empty core map record"),
    (["lift", _CORE_MAP + "g1 = x1\n"], "line 2: expected 'f<i> = <polynomial>'"),
    (["lift", _CORE_MAP + "fa = x1\n"], "line 2: bad component name 'fa'"),
    (["lift", _CORE_MAP + "f2 = x1\n"], "line 2: component index 2 outside 1..1"),
    (["lift", _CORE_MAP + "f1 = x1\nf1 = x1\n"], "line 3: duplicate component f1"),
    (["compose", "source=1 target=1 order=1 foo\nS = p1*x1\n", DEFORM_A],
     "line 1: expected key=value but found 'foo'"),
    (["compose", "source=1 target=1 order=1 x=2\nS = p1*x1\n", DEFORM_A],
     "line 1: unknown header key 'x'"),
    (["compose", "source=1 source=1 target=1 order=1\nS = p1*x1\n", DEFORM_A],
     "line 1: duplicate header key 'source'"),
    (["compose", "source=1 target=1 order=1\nT = 1\nS = p1*x1\n", DEFORM_A],
     "line 2: unexpected line 'T = 1'"),
    (["compose", "source=1 target=1 order=1\n", DEFORM_A],
     "line 1: missing 'S = <polynomial>' line"),
    (["compose", "source=1 target=1 order=1\ncore g1 = x1\nS = p1*x1\n", DEFORM_A],
     "line 2: expected 'core f<i> = <polynomial>'"),
    (["compose", "source=1 target=1 order=1\ncore fa = x1\nS = p1*x1\n", DEFORM_A],
     "line 2: bad core component name 'fa'"),
    (["check", DEFORM_A, "--splitting", ";"], "empty matrix"),
    (["check", "source=1 target=1 order=1\nS = p1*x1 - x1^2 - 1"],
     "S(0, x) = -1 - x1^2 but must vanish; offending monomials: -1, -x1^2"),
], ids=["empty-core-map", "not-a-component", "bad-component-name", "component-index",
        "duplicate-component", "header-not-key-value", "unknown-header-key",
        "duplicate-header-key", "unexpected-line", "missing-s-line", "not-a-core-line",
        "bad-core-component-name", "empty-matrix", "normal-form"])
def test_record_and_matrix_errors(capsys, args, message):
    assert run(capsys, *args) == (1, "", f"error: {message}\n")
