from fractions import Fraction as F
from pathlib import Path

import pytest

from qreider.document import ParseError, bind, parse, render

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "hirzebruch_n3.surf"


def test_golden_file_structure():
    doc = parse(GOLDEN.read_text())
    assert doc.surface.basis == ("G", "F")
    assert doc.surface.gram == ((F(-3), F(1)), (F(1), F(0)))
    assert doc.surface.canonical == (F(-2), F(-5))
    assert doc.surface.chi_o == 1
    assert [c.name for c in doc.curves] == ["G", "F"]
    assert doc.cone.hirzebruch_n == 3
    assert len(doc.queries) == 8


def test_golden_file_round_trip():
    doc = parse(GOLDEN.read_text())
    assert parse(render(doc)) == doc


def test_zero_divisors_round_trip():
    doc = parse(
        "gram=[[0,1],[1,0]]; K = -2A - 2B; chi_O=1\ncurves\nA = A\nB = B\ndivisors\nZ = 0\nW = A - A"
    )
    assert dict(doc.divisors[0].coeffs) == {}
    assert dict(doc.divisors[1].coeffs) == {}
    assert parse(render(doc)) == doc


def test_round_trip_with_empty_point():
    text = "gram=[[0,1],[1,0]]; K = -2A - 2B; chi_O=1\ncurves\nA = A\nB = B\npoints\nq =\np = A:2"
    doc = parse(text)
    assert doc.points[0].mults == ()
    assert parse(render(doc)) == doc


def test_fragment_with_inferred_basis():
    doc = parse("gram = [[-3,1],[1,0]]; K = -2G - 5F; chi_O = 1")
    assert doc.surface.basis == ("G", "F")
    assert doc.surface.canonical == (F(-2), F(-5))


def test_empty_input_is_an_empty_document():
    doc = parse("")
    assert doc.surface is None
    assert doc.queries == ()


def test_divisor_expressions_expand_references():
    text = GOLDEN.read_text()
    doc = parse(text)
    by_name = {d.name: dict(d.coeffs) for d in doc.divisors}
    m = by_name["M"]
    assert m["G"].const == F(21, 10)
    assert m["F"].const == 8
    mfam = by_name["Mfam"]
    assert mfam["G"].terms == {"e": F(1)}
    assert mfam["G"].const == 2


def test_parse_reports_positions():
    with pytest.raises(ParseError) as err:
        parse("surface\nbasis = G F\ngram = [[0,1],[1,0]]\nK = 2G + 5Q\nchi_O = 1")
    assert err.value.line == 4
    assert err.value.col is not None


def test_non_symmetric_gram_is_an_invariant_error():
    with pytest.raises(ParseError):
        parse("gram = [[0,1],[2,0]]; K = -2G - 5F; chi_O = 1")


def test_undefined_curve_in_point():
    with pytest.raises(ParseError) as err:
        parse(GOLDEN.read_text() + "\npoints\nbad = X:1\n")
    assert "undefined curve" in str(err.value)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("gram=[[0]]; K = 0 E; chi_O=1\ncurves\nC = E\nC = E")


def test_unknown_query_kind():
    with pytest.raises(ParseError):
        parse("queries\nfrobnicate x=1")


def test_basis_rank_mismatch():
    with pytest.raises(ParseError):
        parse("basis = G\ngram = [[-3,1],[1,0]]; K = -2G; chi_O = 1")


def test_rational_coefficients_parse_exactly():
    doc = parse(
        "gram=[[0,1],[1,0]]; K = -2a - 2b; chi_O=1\n"
        "curves\nA = a\nB = b\n"
        "divisors\nD = 9/10 A + 1/3 B - A"
    )
    coeffs = dict(parse(render(doc)).divisors[0].coeffs)
    assert coeffs["A"].const == F(-1, 10)
    assert coeffs["B"].const == F(1, 3)


def test_parameter_products_are_rejected():
    with pytest.raises(ParseError):
        parse(
            "gram=[[0]]; K = -2C0; chi_O=1\n"
            "curves\nC = C0\nparams\ne = (0, 1)\n"
            "divisors\nD = e e C"
        )


def test_bind_builds_model_and_cone():
    bound = bind(parse(GOLDEN.read_text()))
    assert bound.model is not None
    assert set(bound.model.curves) == {"G", "F"}
    assert bound.cone is not None
    assert bound.model.point("p").mult("G") == 1
    tangent = bound.model.tangent("v")
    assert tangent.mult_V("G") == 1 and tangent.curve_contains_direction("G")
    d = bound.concrete_divisor("M")
    assert d.coeff("G") == F(21, 10)


def test_concrete_divisor_rejects_parametric_expressions():
    bound = bind(parse(GOLDEN.read_text()))
    with pytest.raises(ParseError):
        bound.concrete_divisor("Bfam")
    assert bound.concrete_divisor("(1 - 1/2)G").coeff("G") == F(1, 2)


SURFACE = "gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1\n"


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("gram = [[-3, 1], [1, 0/0]]; K = -2G - 5F; chi_O = 1\n", 1, 22),
        ("gram = [[-3, 1], [1, 0]]; K = -2G - 5/0 F; chi_O = 1\n", 1, 37),
        (SURFACE + "curves\nG = 1/0 G\n", 3, 5),
        (SURFACE + "curves\nG = G\nF = F\ncone\ngenerator = G + 3/0 F, through-p\n", 6, 17),
        (SURFACE + "curves\nG = G\nF = F\ndivisors\nD = G + 7/0 F\n", 6, 9),
    ],
    ids=["gram", "K", "curve", "generator", "divisor"],
)
def test_zero_denominator_is_a_positioned_parse_error(text, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert "zero denominator" in err.value.message


def test_zero_denominator_in_an_inline_query_expression_is_a_query_error():
    from qreider.report import run_document

    text = SURFACE + "curves\nG = G\nF = F\npoints\np = G:1\nqueries\ncheck-free point=p B=1/0G M=3G+8F\n"
    result = run_document(parse(text)).results[0]
    assert result.status == "error"
    assert "col 1: zero denominator in '1/0'" in result.error


@pytest.mark.parametrize("domain", ["(1, 0)", "(1/2, 1/2)"])
def test_empty_parameter_domain_is_rejected(domain):
    with pytest.raises(ParseError) as err:
        parse(SURFACE + f"params\ne = {domain}\n")
    assert err.value.line == 3
    assert "is empty" in err.value.message
