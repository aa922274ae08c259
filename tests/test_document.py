import re
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreider.document import (
    QUERY_KINDS,
    ConeDecl,
    CurveDecl,
    DivisorDecl,
    Document,
    GeneratorDecl,
    ParseError,
    PointDecl,
    QueryDecl,
    SurfaceDecl,
    TangentDecl,
    parse,
    render,
)
from qreider.search import AffineExpr, Param

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
    bound = parse(GOLDEN.read_text())
    assert bound.model is not None
    assert set(bound.model.curves) == {"G", "F"}
    assert bound.cone is not None
    assert bound.model.point("p").mult("G") == 1
    tangent = bound.model.tangent("v")
    assert tangent.mult_V("G") == 1 and tangent.contains_Z == {"G": True}
    d = bound.concrete_divisor("M")
    assert d.coeff("G") == F(21, 10)


def test_concrete_divisor_rejects_parametric_expressions():
    bound = parse(GOLDEN.read_text())
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


@pytest.mark.parametrize(
    "text,line,col,message",
    [
        (SURFACE + "curves\nC = \u0663 G\n", 3, 5, "unexpected character '\u0663'"),
        (SURFACE + "curves\nG = G\nF = F\ndivisors\nD = \uff12 G + F\n", 6, 5, "unexpected character '\uff12'"),
        ("gram = [[-\u0663, 1], [1, 0]]; K = -2G - 5F; chi_O = 1\n", 1, 11, "unexpected character '\u0663'"),
        ("gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1.5\n", 1, 49, "expected a rational number, got '1.5'"),
        (SURFACE + "params\ne = (0, 1e-3)\n", 3, 9, "expected a rational number, got '1e-3'"),
        (SURFACE + "curves\nG = G\ncone\nhirzebruch = 1_0\n", 5, 14, "expected an integer, got '1_0'"),
        (SURFACE + "curves\nG = G\npoints\np = G:1_0\n", 5, 7, "multiplicity '1_0' is not an integer"),
        (SURFACE + "curves\nG = G\npoints\np = G:\u0663\n", 5, 7, "multiplicity '\u0663' is not an integer"),
        (SURFACE + "curves\nG = G\npoints\np = G:+1\n", 5, 7, "multiplicity '+1' is not an integer"),
        (SURFACE + "curves\nG = G\npoints\np = G:1\ntangents\nv = p G:\u0663\n", 7, 9, "order '\u0663' is not an integer"),
        (SURFACE + "curves\nG = G\npoints\np = G:-1\n", 5, None, "negative multiplicity for 'G' at 'p'"),
    ],
    ids=["curve", "divisor", "gram", "chi_O", "domain", "hirzebruch", "mult", "mult-digit", "mult-sign", "order", "negative"],
)
def test_literals_are_ascii_integers_or_rationals(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_zero_denominator_in_an_inline_query_expression_is_a_query_error():
    from qreider.report import run_document

    text = SURFACE + "curves\nG = G\nF = F\npoints\np = G:1\nqueries\ncheck-free point=p B=1/0G M=3G+8F\n"
    result = run_document(parse(text)).results[0]
    assert result.status == "error"
    assert "col 22: zero denominator in '1/0'" in result.error  # B=1/0G starts at column 20
    assert result.error.startswith("line 8, ")


@pytest.mark.parametrize(
    "line,col",
    [
        ("chi 3G+1/0F", 8),
        ("check-very-ample mindeg=3 M=3G  +  x", 36),  # spacing inside the value is kept
        ("queries; check-very-ample M= 3G + 1/0F", 35),  # the value starts at its first word
    ],
)
def test_errors_inside_a_query_value_carry_the_column_of_the_line(line, col):
    from qreider.report import run_document

    text = SURFACE + "curves\nG = G\nF = F\n" + ("" if line.startswith("queries") else "queries\n") + line + "\n"
    error = run_document(parse(text)).results[0].error
    assert error.startswith(f"line {text.count(chr(10))}, col {col}: ")


# number texts with no whitespace, '#', ';' or '=': ASCII p/q and integers (zero
# denominators among them), decimals, exponents, '_' separators, and non-ASCII digits
NUMBER_TEXTS = st.one_of(
    st.from_regex(r"[-+]?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
    st.from_regex(r"[-+]?[0-9]{1,3}/0{1,2}", fullmatch=True),
    st.from_regex(r"[-+]?[0-9]{0,3}\.[0-9]{0,3}", fullmatch=True),
    st.from_regex(r"[-+]?[0-9]{1,3}(\.[0-9])?[eE][-+]?[0-9]{1,2}", fullmatch=True),
    st.from_regex(r"[-+]?[0-9]{1,2}(_[0-9]{1,2})+(/[0-9_]{1,3})?", fullmatch=True),
    st.lists(st.sampled_from("0123456789+-/._e\u0663\uff12"), min_size=1, max_size=6).map("".join),
)


@given(NUMBER_TEXTS)
@settings(max_examples=300, deadline=None)
def test_a_query_number_reads_as_a_document_number(t):
    from qreider.report import run_document

    prefix = "gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = "
    try:
        document = ("ok", parse(prefix + t + "\n").surface.chi_o)
    except ParseError as exc:
        assert (exc.line, exc.col) == (1, len(prefix) + 1)
        document = ("error", exc.message)
    query = "check-very-ample m2=" + t + " mindeg=3"
    result = run_document(parse("queries\n" + query + "\n")).results[0]
    if document[0] == "ok":
        assert (result.error, result.values["M2"]) == ("", document[1])
    else:
        assert result.error == f"line 2, col {len('check-very-ample m2=') + 1}: {document[1]}"


@pytest.mark.parametrize("domain", ["(1, 0)", "(1/2, 1/2)"])
def test_empty_parameter_domain_is_rejected(domain):
    with pytest.raises(ParseError) as err:
        parse(SURFACE + f"params\ne = {domain}\n")
    assert err.value.line == 3
    assert err.value.message == f"parameter domain {domain} is empty"


CURVES = SURFACE + "curves\nG = G\nF = F\n"


@pytest.mark.parametrize(
    "text,line",
    [
        (CURVES + "points\np = G:-1\n", 6),
        (CURVES + "points\np = G:1\ntangents\nv = p G:-1\n", 8),
        (CURVES + "cone\nhirzebruch = 2\n", 6),
        (CURVES + "cone\ngenerator = G\ngenerator = G, contains-z\n", 7),
        ("gram = [[0, 1], [1, 0]]; K = -2G; chi_O = 1\nbasis = G G\n", 2),
        ("basis = G F\ngram = [[-3, 1], [1]]\nK = -2G - 5F\nchi_O = 1\n", 2),
        (CURVES + "surface\nbasis = F G\n", 6),
    ],
    ids=["point-mult", "tangent-order", "hirzebruch-gram", "contains-z", "basis-labels", "ragged-gram", "late-key"],
)
def test_invariant_errors_are_reported_at_the_declaring_line(text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


def test_query_values_may_contain_spaces():
    doc = parse(GOLDEN.read_text() + "check-free point=p B=9/10 G M=21/10 G + 8F\n")
    query = doc.queries[-1]
    assert query.args == (("point", "p"), ("B", "9/10 G"), ("M", "21/10 G + 8F")) and query.positional == ()
    assert parse(render(doc)) == doc

    from qreider.report import run_document

    inline, named = run_document(doc).results[-1], run_document(doc).results[1]
    assert named.query == "check-free point=p B=B M=M"
    assert (inline.status, inline.values, inline.trace) == (named.status, named.values, named.trace)


@pytest.mark.parametrize(
    "query,key",
    [
        ("search goal=free point=p B=Bfam M=Mfam bogus=1", "bogus"),
        ("search goal=separate p=p q=p B=Bfam M=Mfam beta2_p=3", "beta2_p"),
        # check-free reads its degree over the curves through p, or takes mindeg=
        ("check-free point=p B=0 M=G + 10F filter=containing-z", "filter"),
    ],
)
def test_unknown_query_arguments_are_query_errors(query, key):
    from qreider.report import run_document

    result = run_document(parse(GOLDEN.read_text() + query + "\n")).results[-1]
    assert result.status == "error"
    assert f"unknown argument {key}=" in result.error


@pytest.mark.parametrize(
    "query,checker",
    [
        ("check-free point=p B=B M=M", "freeness_at"),
        ("check-separate p=p q=q B=B M=M", "separation"),
        ("check-tangent tangent=v B=B M=M", "tangent_separation"),
        ("check-very-ample M=M", "very_ampleness"),
    ],
)
def test_check_queries_call_the_checker_the_criteria_module_holds_when_they_run(query, checker, monkeypatch):
    """A checker swapped on the criteria module after import, as a tracer
    swaps it, is the one that the check query calls."""
    from qreider import criteria
    from qreider.report import run_document

    calls = []
    real = getattr(criteria, checker)
    monkeypatch.setattr(criteria, checker, lambda *args: calls.append(args) or real(*args))
    header = GOLDEN.read_text().split("\nqueries\n")[0].replace("p = G:1 F:1\n", "p = G:1 F:1\nq = F:1\n")
    (result,) = run_document(parse(f"{header}\nqueries\n{query}\n")).results
    assert result.status in ("established", "not-established") and len(calls) == 1


@pytest.mark.parametrize(
    "query,message",
    [
        ("check-very-ample stray M=M", "unexpected word 'stray' for 'check-very-ample'"),
        ("search stray goal=free point=p B=Bfam M=Mfam", "unexpected word 'stray' for 'search'"),
        ("chi H_3 L", "unexpected word 'L' for 'chi' (it takes one divisor)"),
        ("chi", "chi needs one divisor"),
        ("chi H_3 H=L", "chi needs one divisor"),
    ],
)
def test_positional_words_a_query_does_not_read_are_query_errors(query, message):
    from qreider.report import run_document

    result = run_document(parse(GOLDEN.read_text() + query + "\n")).results[-1]
    assert result.status == "error"
    assert message in result.error


@pytest.mark.parametrize("depth", ["0", "-3", "65", "x"])
@pytest.mark.parametrize("query", ["search goal=free point=p B=Bfam M=Mfam", "hirzebruch-claim n=1 part=1"])
def test_depth_outside_its_range_is_a_query_error(query, depth):
    from qreider.report import run_document

    result = run_document(parse(GOLDEN.read_text() + f"{query} depth={depth}\n")).results[-1]
    assert result.status == "error"
    assert result.error == f"depth={depth!r} must be an integer in 1..64"
    assert result.attempts is None and not result.checks


# -- whole generated documents round-trip through render ---------------------

# section words among the names: "surface = G" declares a curve, it is no header
POOL = ("G", "F", "E1", "e", "f", "z", "_", "x_2", "C", "D", "p", "q", "v", "Bq", "surface", "cone", "queries", "chi")
NAMES = st.sampled_from(POOL)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
WORDS = st.from_regex(r"[A-Za-z0-9_+\-*/():.,]{1,5}", fullmatch=True)


@st.composite
def documents(draw):
    names = list(draw(st.permutations(POOL)))
    take = lambda k: [names.pop() for _ in range(min(k, len(names)))]  # noqa: E731
    params = tuple(
        Param(name, lo, lo + draw(st.fractions(min_value="1/4", max_value=3, max_denominator=4)))
        for name, lo in ((n, draw(RATIONALS)) for n in take(draw(st.integers(0, 2))))
    )
    queries = []
    for _ in range(draw(st.integers(0, 3))):
        args = draw(st.lists(st.tuples(NAMES, st.lists(WORDS, max_size=3).map(" ".join)), max_size=3))
        queries.append(QueryDecl(draw(st.sampled_from(QUERY_KINDS)), tuple(args), tuple(draw(st.lists(WORDS, max_size=2)))))
    if not draw(st.booleans()):
        return Document(params=params, queries=tuple(queries))

    rank = draw(st.integers(1, 3))
    basis = tuple(draw(st.lists(NAMES, min_size=rank, max_size=rank, unique=True)))
    vectors = st.lists(RATIONALS, min_size=rank, max_size=rank).map(tuple)
    hirzebruch = rank == 2 and draw(st.booleans())
    if hirzebruch:
        n = draw(st.integers(1, 5))
        gram = ((F(-n), F(1)), (F(1), F(0)))
        cone = ConeDecl(hirzebruch_n=n)
    else:
        upper = {(i, j): draw(RATIONALS) for i in range(rank) for j in range(i, rank)}
        gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(rank)) for i in range(rank))
        flags = st.sampled_from([(False, False), (True, False), (True, True)])
        generators = draw(st.lists(st.tuples(vectors, flags), max_size=3))
        cone = ConeDecl(generators=tuple(GeneratorDecl(v, *f) for v, f in generators)) if generators else None
    surface = SurfaceDecl(basis, gram, draw(vectors), draw(RATIONALS))

    curves = tuple(CurveDecl(name, draw(vectors)) for name in take(draw(st.integers(0, 4))))
    curve_names = [c.name for c in curves]
    points = []
    for name in take(draw(st.integers(0, 2))):
        picked = draw(st.lists(st.sampled_from(curve_names), unique=True)) if curve_names else []
        points.append(PointDecl(name, tuple((c, draw(st.integers(0, 3))) for c in picked)))
    tangents = []
    for name in take(draw(st.integers(0, 2))) if points else ():
        at = draw(st.sampled_from(points))
        entries = tuple(
            (c, draw(st.integers(0, m)), m >= 1 and draw(st.booleans()))
            for c, m in at.mults
            if draw(st.booleans())
        )
        tangents.append(TangentDecl(name, at.name, entries))
    terms = st.dictionaries(st.sampled_from([p.name for p in params] or ["_"]), RATIONALS, max_size=2)
    coeffs = st.builds(AffineExpr, RATIONALS, terms if params else st.just({}))
    divisors = []
    for name in take(draw(st.integers(0, 3))) if curve_names else ():
        picked = draw(st.dictionaries(st.sampled_from(curve_names), coeffs, max_size=3))
        kept = {c: e for c, e in picked.items() if not (e.is_constant() and e.const == 0)}
        divisors.append(DivisorDecl(name, tuple(sorted(kept.items()))))
    return Document(
        surface, curves, cone, tuple(points), tuple(tangents), params, tuple(divisors), tuple(queries)
    )


@given(documents())
@settings(max_examples=150, deadline=None)
def test_render_round_trips_generated_documents(doc):
    assert parse(render(doc)) == doc


# -- the expression evaluator against an affine reference --------------------
#
# The reference has its own scanner and evaluates with one _Affine per scalar
# and per divisor coefficient, combined by _Affine's operators.  It shares
# nothing with the library's evaluator.


@dataclass(frozen=True)
class _Affine:
    """const + sum(coeff * param), with zero coefficients dropped."""

    const: F = F(0)
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", {name: c for name, c in self.terms.items() if c})

    def __add__(self, other):
        names = {**self.terms, **other.terms}
        return _Affine(self.const + other.const, {n: self.terms.get(n, 0) + other.terms.get(n, 0) for n in names})

    def __mul__(self, other):
        if self.terms and other.terms:
            raise ValueError("product of two non-constant parameter expressions is not affine")
        scale, expr = (self.const, other) if not self.terms else (other.const, self)
        return _Affine(scale * expr.const, {name: scale * c for name, c in expr.terms.items()})


_REF_TOKEN = re.compile(r"\s*(?:([0-9]+(?:/[0-9]+)?)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def _ref_scan(text, line, col_offset):
    tokens = []
    for m in _REF_TOKEN.finditer(text):
        kind = ("num", "name", "sym")[m.lastindex - 1]
        tok, col = m.group(m.lastindex), col_offset + m.start(m.lastindex) + 1
        if kind == "sym" and tok not in "+-*()[],:":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        tokens.append((kind, tok, col))
    return tokens


class _RefParser:
    def __init__(self, tokens, line, resolve, undefined):
        self.tokens, self.line, self.pos, self.resolve, self.undefined = tokens, line, 0, resolve, undefined

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def error(self, message):
        tok = self.peek()
        return ParseError(message, self.line, tok[2] if tok else None)

    def parse(self):
        value = self.additive()
        if self.peek() is not None:
            raise self.error(f"unexpected token {self.peek()[1]!r} (expected '+', '-' or end)")
        if value[0] == "vec":
            return dict(value[1])
        if value[1] == _Affine():
            return {}
        raise ParseError("expected a divisor expression, got a plain number", self.line)

    def additive(self):
        value = self.signed_term()
        while (tok := self.peek()) is not None and tok[1] in "+-":
            self.take()
            rhs = self.term()
            value = self.add(value, rhs if tok[1] == "+" else _ref_negate(rhs))
        return value

    def signed_term(self):
        sign = 1
        while (tok := self.peek()) is not None and tok[0] == "sym" and tok[1] in "+-":
            self.take()
            sign = -sign if tok[1] == "-" else sign
        value = self.term()
        return _ref_negate(value) if sign < 0 else value

    def term(self):
        value = self.factor()
        while (tok := self.peek()) is not None and (tok[0] in ("num", "name") or tok[1] in ("(", "*")):
            if tok[1] == "*":
                self.take()
            value = self.mul(value, self.factor())
        return value

    def factor(self):
        kind, text, col = self.take()
        if kind == "num":
            num, _, den = text.partition("/")
            if den and int(den) == 0:
                raise ParseError(f"zero denominator in {text!r}", self.line, col)
            return ("scalar", _Affine(F(int(num), int(den or 1))))
        if kind == "name":
            value = self.resolve(text)
            if value is None:
                raise ParseError(self.undefined.format(text), self.line, col)
            return value
        if text == "(":
            value = self.additive()
            closing = self.take()
            if closing[1] != ")":
                raise ParseError("expected ')'", self.line, closing[2])
            return value
        raise ParseError(f"unexpected token {text!r} (expected a number, name or '(')", self.line, col)

    def add(self, a, b):
        if a[0] == b[0] == "scalar":
            return ("scalar", a[1] + b[1])
        if a[0] == b[0] == "vec":
            merged = dict(a[1])
            for name, expr in b[1].items():
                merged[name] = merged.get(name, _Affine()) + expr
            return ("vec", merged)
        scalar, vec = (a, b) if a[0] == "scalar" else (b, a)
        if scalar[1] == _Affine():
            return vec
        raise self.error("cannot add a number to a divisor expression")

    def mul(self, a, b):
        if a[0] == b[0] == "vec":
            raise self.error("cannot multiply two divisor expressions")
        scalar, other = (a, b) if a[0] == "scalar" else (b, a)
        try:
            if other[0] == "scalar":
                return ("scalar", scalar[1] * other[1])
            return ("vec", {name: scalar[1] * expr for name, expr in other[1].items()})
        except ValueError as exc:
            raise self.error(str(exc)) from None


def _ref_negate(value):
    if value[0] == "scalar":
        return ("scalar", _Affine(F(-1)) * value[1])
    return ("vec", {name: _Affine(F(-1)) * expr for name, expr in value[1].items()})


def _ref_outcome(evaluate):
    """("ok", the value of ``evaluate()``), or ("error", message, line, col) for its ParseError."""
    try:
        return ("ok", evaluate())
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


EXPR_DOC = (
    "basis = G F\ngram = [[-3, 1], [1, 0]]\nK = -2G - 5F\nchi_O = 1\n"
    "curves\nG = G\nF = F\nC = G + 3F\n"
    "params\ne = (0, 1)\nf = (-1/2, 2)\n"
    "divisors\nD = (1 - e)G + 2/3 F\nE = e C - 1/2 F\nZ = 0\nW = G - G\n"
)
EXPR_NAMES = ("G", "F", "C", "D", "E", "Z", "W", "e", "f", "x", "G2")
EXPR_ATOMS = st.one_of(
    st.sampled_from(EXPR_NAMES),
    st.sampled_from(("G", "F", "C", "D", "e", "f")),  # the names that most often evaluate
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
)


def _expr_forms(children):
    joiners = st.sampled_from([" + ", " - ", "+", "-", " * ", "*", " ", ""])  # "" and " " juxtapose
    signs = st.sampled_from(["-", "--", "+-", "- + ", "+"])
    return st.one_of(
        st.tuples(children, joiners, children).map("".join),
        children.map(lambda s: f"({s})"),
        st.tuples(signs, children).map("".join),
    )


def _garble(args):
    """Insert, or drop, one character: unbalanced parentheses, stray operators and symbols."""
    text, at, ch = args
    at %= len(text) + 1
    return text[:at] + text[at + 1 :] if ch == "" else text[:at] + ch + text[at:]


EXPR_TEXTS = st.recursive(EXPR_ATOMS, _expr_forms, max_leaves=8)
EXPR_INPUTS = st.one_of(
    EXPR_TEXTS,
    st.tuples(EXPR_TEXTS, st.integers(0, 60), st.sampled_from(list("()+-*/,:.$[]0 ") + [""])).map(_garble),
    st.just(""),
)


def _as_items(coeffs):
    """Ordered (name, const, terms) of a coefficient dict, every number checked exact."""
    for expr in coeffs.values():
        assert all(type(q) is F for q in (expr.const, *expr.terms.values()))
    return [(name, expr.const, dict(expr.terms)) for name, expr in coeffs.items()]


@given(EXPR_INPUTS, st.integers(1, 40), st.integers(0, 30))
@settings(max_examples=400, deadline=None)
def test_divisor_expressions_evaluate_as_the_affine_reference(text, line, col):
    doc = parse(EXPR_DOC)

    def resolve(name):
        decl = doc.symbols.get(name)
        if isinstance(decl, CurveDecl):
            return ("vec", {name: _Affine(F(1))})
        if isinstance(decl, DivisorDecl):
            return ("vec", {curve: _Affine(e.const, dict(e.terms)) for curve, e in decl.coeffs})
        if isinstance(decl, Param):
            return ("scalar", _Affine(F(0), {name: F(1)}))
        return None

    undefined = "undefined name {!r} (not a curve, divisor, or parameter)"
    expected = _ref_outcome(lambda: _RefParser(_ref_scan(text, line, col), line, resolve, undefined).parse())
    got = _ref_outcome(lambda: doc.divisor_expr(text, line, col))
    if got[0] == expected[0] == "ok":
        assert _as_items(got[1]) == _as_items(expected[1])
    else:
        assert got == expected


@given(EXPR_INPUTS)
@settings(max_examples=300, deadline=None)
def test_class_expressions_evaluate_as_the_affine_reference(text):
    rhs = text.strip()
    basis = {label: ("vec", {label: _Affine(F(1))}) for label in ("G", "F")}

    def reference():
        tokens = _ref_scan(rhs, 3, len("K = "))
        vec = _RefParser(tokens, 3, basis.get, "undefined basis label {!r}").parse()
        return tuple(vec.get(label, _Affine()).const for label in basis)

    expected = _ref_outcome(reference)
    got = _ref_outcome(lambda: parse(f"basis = G F\ngram = [[-3, 1], [1, 0]]\nK = {rhs}\nchi_O = 1\n").surface.canonical)
    assert got == expected
    if got[0] == "ok":
        assert all(type(q) is F for q in got[1])


# A divisors section after EXPR_DOC's: each statement may name the divisors
# declared before it, and the section reads its numbers from a small pool, so
# a number text and its negation recur across statements.  Half the
# statements are sums of coefficient-times-name terms, which mostly evaluate;
# the rest are free forms, garbled at times.
SECTION_LITERALS = ("0", "1", "2", "3", "1/2", "2/4", "3/4", "7/3", "12", "1/0")


def _section_statements(names, pool):
    numbers = st.sampled_from(pool)
    coefficients = st.recursive(
        st.one_of(numbers, st.sampled_from(("e", "f"))),
        lambda c: st.one_of(st.tuples(c, st.sampled_from([" + ", " - ", "-", " * ", " "]), c).map("".join), c.map("({})".format)),
        max_leaves=3,
    )
    terms = st.one_of(
        st.tuples(coefficients, st.sampled_from(names)).map("({0[0]}) {0[1]}".format),
        st.tuples(numbers, st.sampled_from(names)).map("{0[0]} {0[1]}".format),
        st.sampled_from(names),
    )
    signs = st.sampled_from(["+", "-", " + ", " - "])
    sums = st.lists(st.tuples(signs, terms), min_size=1, max_size=4).map(lambda ts: "".join(s + t for s, t in ts).lstrip())
    atoms = st.one_of(st.sampled_from(names), st.sampled_from(names[-2:]), numbers)
    return st.one_of(sums, st.recursive(atoms, _expr_forms, max_leaves=6))


@st.composite
def divisor_sections(draw):
    pool = draw(st.lists(st.sampled_from(SECTION_LITERALS), min_size=1, max_size=4, unique=True))
    statements = []
    for i in range(draw(st.integers(2, 8))):
        names = ("G", "F", "C", "D", "E", "Z", "e", "f", "x") + tuple(f"N{j}" for j in range(i))
        text = draw(_section_statements(names, pool))
        if draw(st.integers(0, 9)) == 0:
            text = _garble((text, draw(st.integers(0, 60)), draw(st.sampled_from(list("()+-*$ ") + [""]))))
        statements.append(text)
    return statements


@given(divisor_sections())
@settings(max_examples=200, deadline=None)
def test_divisor_sections_evaluate_as_the_affine_reference_statement_by_statement(texts):
    base = parse(EXPR_DOC)
    first_line = EXPR_DOC.count("\n") + 1
    declared = {}  # the reference's value of each divisor, EXPR_DOC's and then the section's

    for decl in base.divisors:
        declared[decl.name] = {curve: _Affine(e.const, dict(e.terms)) for curve, e in decl.coeffs}

    def resolve(name):
        if isinstance(base.symbols.get(name), CurveDecl):
            return ("vec", {name: _Affine(F(1))})
        if isinstance(base.symbols.get(name), Param):
            return ("scalar", _Affine(F(0), {name: F(1)}))
        return ("vec", dict(declared[name])) if name in declared else None

    undefined = "undefined name {!r} (not a curve, divisor, or parameter)"
    expected = []
    for i, text in enumerate(texts):
        line, head = first_line + i, f"N{i} = "
        outcome = _ref_outcome(lambda: _RefParser(_ref_scan(text, line, len(head)), line, resolve, undefined).parse())
        if outcome[0] == "error":
            break
        declared[f"N{i}"] = outcome[1]
        expected.append(sorted((curve, a.const, a.terms) for curve, a in outcome[1].items() if a != _Affine()))

    got = _ref_outcome(lambda: parse(EXPR_DOC + "".join(f"N{i} = {text}\n" for i, text in enumerate(texts))))
    if outcome[0] == "error":
        assert got == outcome
        return
    assert got[0] == "ok"
    section = got[1].divisors[len(base.divisors) :]
    assert [decl.name for decl in section] == [f"N{i}" for i in range(len(texts))]
    for decl, items in zip(section, expected):
        assert _as_items(dict(decl.coeffs)) == items


@pytest.mark.parametrize(
    "section,col,message",
    [
        ("points\np = G:2 G:0", 9, "point 'p' names curve 'G' twice"),
        ("points\np = G:1 F:1 G:1", 13, "point 'p' names curve 'G' twice"),
        ("points\np = G:1\ntangents\nv = p G:1:z G:0", 13, "tangent 'v' names curve 'G' twice"),
    ],
)
def test_a_point_or_tangent_names_each_curve_once(section, col, message):
    with pytest.raises(ParseError) as err:
        parse(SURFACE + "curves\nG = G\nF = F\n" + section + "\n")
    assert (err.value.message, err.value.line, err.value.col) == (message, section.count("\n") + 5, col)


@pytest.mark.parametrize("second", ["3", "4"])
def test_a_second_hirzebruch_cone_is_a_parse_error(second):
    with pytest.raises(ParseError) as err:
        parse(SURFACE + f"curves\nG = G\nF = F\ncone\nhirzebruch = 3\nhirzebruch = {second}\n")
    assert (err.value.message, err.value.line) == ("cone already declared as hirzebruch", 7)


@pytest.mark.parametrize(
    "query,key",
    [
        ("check-very-ample M=M M=L", "M"),
        ("check-free point=p point=p B=B M=M", "point"),
        ("search goal=free goal=free point=p B=Bfam M=Mfam", "goal"),
    ],
)
def test_a_query_key_given_twice_is_a_query_error(query, key):
    from qreider.report import run_document

    result = run_document(parse(GOLDEN.read_text() + query + "\n")).results[-1]
    assert result.status == "error"
    assert result.error == f"argument {key}= is given twice to {query.split()[0]!r}"


SHARED = (
    SURFACE + "curves\nG = G\nF = F\nA = G + 2F\nB = 2F + G\nC = 4/2 F + 1 G\n"
    "cone\ngenerator = G + 2F, through-p\ngenerator = 2/2 F\n"
    "params\ne = (0, 1)\n"
    "divisors\nD = 3/2 A + 2 B\nE = 6/4 B + 2/1 C + e G\n"
)


def _held(doc: Document) -> list:
    """Every class and every divisor coefficient that ``doc`` holds."""
    classes = [doc.model.canonical, *(c.cls for c in doc.model.curves.values())]
    classes += [g.cls for g in doc.curve_cone.generators]
    return classes + [expr for d in doc.divisors for _, expr in d.coeffs]


def test_a_parse_builds_each_distinct_value_once():
    doc = parse(SHARED)
    curves = doc.model.curves
    assert curves["A"].cls is curves["B"].cls is curves["C"].cls and curves["G"].cls is not curves["F"].cls
    d, e = (dict(decl.coeffs) for decl in doc.divisors)
    assert d["A"] is e["B"]  # 3/2 and 6/4
    assert d["B"] is e["C"]  # 2 and 2/1
    assert e["G"].terms == {"e": 1}
    vectors = (doc.surface.canonical, *(decl.coeffs for decl in (*doc.curves, *doc.cone.generators)))
    for value, count in ((0, 3), (1, 7), (2, 4)):
        numbers = [q for coeffs in vectors for q in coeffs if q == value]
        assert len(numbers) == count and all(q is numbers[0] for q in numbers)


def test_equal_class_texts_share_one_tuple():
    doc = parse(SURFACE + "curves\nA = -2G - 5F\nB = 2F\nC = -2G - 5F; D = 2F\ncone\ngenerator = -2G - 5F, through-p\n")
    a, b, c, d = (decl.coeffs for decl in doc.curves)
    assert a is c is doc.surface.canonical is doc.cone.generators[0].coeffs
    assert b is d and a == (-2, -5) and b == (0, 2)


CLASS_SPELLINGS = ("2G", "2 G", "G + G", "4/2 G", "2*G", "G+G+0F", "F", "1F", "G + 3F", "3F + G", "-G", "0G", "(1 - 2)G")


@given(st.lists(st.sampled_from(CLASS_SPELLINGS), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_a_repeated_class_text_parses_as_it_does_alone(texts):
    doc = parse(SURFACE + "curves\n" + "".join(f"C{i} = {text}\n" for i, text in enumerate(texts)))
    first = {}
    for text, decl in zip(texts, doc.curves):
        assert decl.coeffs == parse(SURFACE + f"curves\nX = {text}\n").curves[0].coeffs
        assert decl.coeffs is first.setdefault(text, decl.coeffs)


@pytest.mark.parametrize(
    "text,col,message",
    [
        ("2G + $", 10, "unexpected character '$'"),
        ("2G + Z", 10, "undefined basis label 'Z'"),
        ("2G + 1/0 F", 10, "zero denominator in '1/0'"),
    ],
)
def test_a_bad_class_text_written_twice_is_an_error_at_its_first_line(text, col, message):
    with pytest.raises(ParseError) as err:
        parse(SURFACE + f"curves\nA = {text}\nB = {text}\n")
    assert (err.value.message, err.value.line, err.value.col) == (message, 3, col)


def test_a_directly_built_document_shares_its_classes():
    surface = SurfaceDecl(("G", "F"), ((F(-3), F(1)), (F(1), F(0))), (F(-2), F(-5)), F(1))
    curves = (CurveDecl("A", (F(1), F(2))), CurveDecl("B", (F(1), F(2))), CurveDecl("C", (F(1), F(3))))
    model = Document(surface, curves).model
    assert model.curves["A"].cls is model.curves["B"].cls
    assert model.curves["A"].cls is not model.curves["C"].cls


@pytest.mark.parametrize("coeff", ["1", 0.5, None])
def test_a_directly_built_curve_coefficient_that_is_not_rational_is_a_type_error(coeff):
    surface = SurfaceDecl(("G", "F"), ((F(-3), F(1)), (F(1), F(0))), (F(-2), F(-5)), F(1))
    with pytest.raises(TypeError, match="not an exact rational"):
        Document(surface, (CurveDecl("A", (coeff, F(2))),))


def test_two_parses_share_no_class_or_coefficient():
    first, second = parse(SHARED), parse(SHARED)
    assert first == second
    assert not {id(x) for x in _held(first)} & {id(x) for x in _held(second)}


def test_every_coefficient_of_a_parsed_document_is_a_fraction():
    # AffineExpr.__repr__ prints str(const), so repr cannot tell an int from a Fraction
    for text in (SHARED, GOLDEN.read_text()):
        doc = parse(text)
        s = doc.surface
        numbers = [*s.canonical, s.chi_o, *(q for row in s.gram for q in row)]
        numbers += [q for decl in (*doc.curves, *doc.cone.generators) for q in decl.coeffs]
        numbers += [q for d in doc.divisors for _, expr in d.coeffs for q in (expr.const, *expr.terms.values())]
        assert numbers and all(type(q) is F for q in numbers)


# -- error positions against an independent oracle ---------------------------
#
# A generated document of curve, point and divisor statements, with random
# names, numbers and spacing, sometimes a second statement after ';' and a '#'
# comment, gets one fault at one token: '$', a stray '/', 'é', or an undefined
# name.  The test records where it puts the fault, and the expected message,
# line and column follow from that alone.

LABEL_TEXTS = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True)
SPACES = st.sampled_from(["", " ", "  ", "\t"])
GAPS = st.sampled_from([" ", "  ", "\t"])
COEFS = st.one_of(st.integers(0, 99).map(str), st.tuples(st.integers(0, 99), st.integers(1, 9)).map("{0[0]}/{0[1]}".format))
FAULTS = ("$", "/", "é", None)  # None: an undefined name
COMMENTS = st.sampled_from(["", "#", "# $ é /", "#x = 1/0; y = $"])


def _expression(draw, names):
    """Tokens ``[sign] [coef [*]] name (op [coef [*]] name)*`` as (kind, text) pairs; a name is never next to a name or number."""
    tokens = [("op", draw(st.sampled_from("+-")))] if draw(st.booleans()) else []
    for i in range(draw(st.integers(1, 3))):
        if i:
            tokens.append(("op", draw(st.sampled_from("+-"))))
        if draw(st.booleans()):
            tokens.append(("num", draw(COEFS)))
            if draw(st.booleans()):
                tokens.append(("op", "*"))
        tokens.append(("name", draw(st.sampled_from(names))))
    return tokens


@st.composite
def faulty_documents(draw):
    """A document's text and the (message, line, col) of its one fault."""
    labels = [f"{draw(LABEL_TEXTS)}_{i}" for i in range(2)]
    undefined = f"{draw(LABEL_TEXTS)}_u"  # every declared name ends in '_' and digits
    curves = [f"{draw(LABEL_TEXTS)}_{i}" for i in range(2, 2 + draw(st.integers(1, 4)))]
    statements = [("curves", name, _expression(draw, labels)) for name in curves]
    for i in range(draw(st.integers(1, 3))):
        entries = draw(st.lists(st.sampled_from(curves), min_size=1, max_size=3, unique=True))
        tokens = [(kind, text) for c in entries for kind, text in (("curve", c), ("mult", str(draw(st.integers(0, 5)))))]
        statements.append(("points", f"{draw(LABEL_TEXTS)}_{10 + i}", tokens))
    divisors = []
    for i in range(draw(st.integers(1, 3))):
        divisors.append(f"{draw(LABEL_TEXTS)}_{20 + i}")
        statements.append(("divisors", divisors[-1], _expression(draw, curves + divisors[:-1])))

    at = draw(st.integers(0, len(statements) - 1))
    section, _, tokens = statements[at]
    fault = draw(st.sampled_from(FAULTS))
    where = draw(st.sampled_from([k for k, (kind, _) in enumerate(tokens) if fault or kind in ("name", "curve", "mult")]))
    kind, token = tokens[where][0], fault or undefined
    tokens[where] = (kind, token)

    lines = [f"basis = {labels[0]} {labels[1]}", "gram = [[0, 1], [1, 0]]", f"K = -2{labels[0]} - 2 {labels[1]}", "chi_O = 1"]
    header = None
    i = 0
    while i < len(statements):
        if statements[i][0] != header:
            header = statements[i][0]
            lines.append(header)
        together = i + 1 < len(statements) and statements[i + 1][0] == header and draw(st.booleans())
        text = draw(SPACES)
        for j in (i, i + 1) if together else (i,):
            if j > i:
                text += draw(SPACES) + ";" + draw(SPACES)
            _, name, tokens = statements[j]
            text += name + draw(SPACES) + "=" + draw(SPACES)
            for k, (what, word) in enumerate(tokens):
                if k:
                    text += ":" if what == "mult" else draw(GAPS) if what == "curve" else draw(SPACES)
                if (j, k) == (at, where):
                    line, col = len(lines) + 1, len(text) + 1
                text += word
        lines.append(text + draw(SPACES) + draw(COMMENTS))
        i += 2 if together else 1

    if section == "points":
        message = f"undefined curve {token!r}" if kind == "curve" else f"multiplicity {token!r} is not an integer"
        col = None if kind == "curve" else col
    elif fault:
        message = f"unexpected character {fault!r}"
    elif section == "curves":
        message = f"undefined basis label {token!r}"
    else:
        message = f"undefined name {token!r} (not a curve, divisor, or parameter)"
    return "\n".join(lines) + "\n", (message, line, col)


@given(faulty_documents())
@settings(max_examples=400, deadline=None)
def test_a_fault_is_reported_where_the_test_put_it(case):
    text, expected = case
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == expected
