"""Byte-for-byte golden output of six reports, as text and as JSON, and of
the console's two n = 12 claims.

The JSON comparison drops ``elapsed_ms``, the only field that varies from
run to run.  The expected files live in ``tests/golden/``.
"""

import json
from pathlib import Path

import pytest

from qreider.cli import main
from qreider.document import parse
from qreider.report import render_text, report_to_json, run_document

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Three two-parameter searches on the n = 3 model: M.F < 0 on the whole box, so
# all 552 candidates are turned down; a boundary whose G coefficient 4e is 1 on
# the first level of e; and M.G = 2 - 12e + f, negative on the first level and
# then nef, before a separation is established.
SEARCH_TWO_PARAM = """surface
basis = G F
gram = [[-3, 1], [1, 0]]
K = -2G - 5F
chi_O = 1

curves
G = G
F = F

cone
hirzebruch = 3

points
p = G:1 F:1
q = F:1

params
e = (0, 1)
f = (0, 1)

divisors
Bnone = (1 - 1/2 e)G + (1 - 1/4 f)F
Mnone = 3F - Bnone
Bout = 4e G + (1 - 4f)F
Mout = 3G + 10F - Bout
B = (1 - 4e)G + (1 - f)F
M = 3G + 9F - B

queries
search goal=free point=p B=Bnone M=Mnone
search goal=free point=p B=Bout M=Mout depth=4
search goal=separate p=p q=q B=B M=M
"""

# Witnesses given as query arguments, for each check-* kind and for the two
# search goals that take them, then the argument errors: a witness given in
# part, a second witness key on a search goal that takes none, one point
# named twice, and an unknown key on every query kind and search goal.
WITNESS_QUERIES = """surface
basis = G F
gram = [[-3, 1], [1, 0]]
K = -2G - 5F
chi_O = 1

curves
G = G
F = F

cone
hirzebruch = 3

points
p = G:1 F:1
q = F:1

tangents
v = p G:1:z F:0

params
e = (0, 1)

divisors
H_3 = G + 3F
L = 3G + 8F
B = 9/10 G
M = L - B
N = 3G + 12F
D = 11/20 G + 11/20 F
Bfam = (1 - e)G
Mfam = L - Bfam
Bva = e G
Mva = 4G + 16F - Bva

queries
check-free point=p B=B M=M beta2=3 beta1=3/2
check-free point=p B=B M=M beta2=1/2 beta1=2
check-separate p=p q=q B=0 M=N beta2_p=3 beta2_q=3 beta1_p=3/2 beta1_q=3/2
check-separate p=p q=q B=B M=M beta2_p=2 beta2_q=2 beta1_p=2 beta1_q=2
check-tangent tangent=v B=0 M=N beta2_p=3 beta2_V=3 beta1=3/2
check-tangent tangent=v B=B M=M beta2_p=2 beta2_V=2 beta1=3/2
check-very-ample M=N beta2=3 beta1=3/2
check-very-ample M=M beta2=3 beta1=3/2
search goal=free point=p B=Bfam M=Mfam beta2=3 beta1=3/2
search goal=very-ample B=Bva M=Mva beta2=3 beta1=3/2
check-free point=p B=B M=M beta2=3
check-separate p=p q=q B=B M=M beta2_p=3 beta1_q=1
check-tangent tangent=v B=B M=M beta1=1
check-very-ample M=M beta1=2
search goal=free point=p B=Bfam M=Mfam beta2=3
search goal=very-ample B=Bva M=Mva beta1=3/2
search goal=separate p=p q=q B=Bfam M=Mfam beta2_p=3
check-separate p=p q=p B=B M=M
chi H_3 bogus=1
check-free point=p B=B M=M bogus=1
check-separate p=p q=q B=B M=M bogus=1
check-tangent tangent=v B=B M=M bogus=1
check-very-ample M=M bogus=1
check-corollary2 m2=12 mindeg=4 bogus=1
plc-threshold point=p B=B D=D bogus=1
search goal=free point=p B=Bfam M=Mfam bogus=1
search goal=separate p=p q=q B=Bfam M=Mfam bogus=1
search goal=tangent tangent=v B=Bfam M=Mfam bogus=1
search goal=very-ample B=Bva M=Mva bogus=1
hirzebruch-claim n=1 part=1 bogus=1
"""

CASES = {
    "hirzebruch_n3": ("docs/hirzebruch_n3.surf", (ROOT / "docs" / "hirzebruch_n3.surf").read_text()),
    "claim_n2_part2": ("hirzebruch-claim n=2 part=2", "queries\nhirzebruch-claim n=2 part=2\n"),
    "claim_n12_part1": ("hirzebruch-claim n=12 part=1", "queries\nhirzebruch-claim n=12 part=1\n"),
    "claim_n12_part2": ("hirzebruch-claim n=12 part=2", "queries\nhirzebruch-claim n=12 part=2\n"),
    "search_two_param": ("search_two_param.surf", SEARCH_TWO_PARAM),
    "witness_queries": ("witness_queries.surf", WITNESS_QUERIES),
}


def _drop_elapsed(node):
    if isinstance(node, dict):
        return {k: _drop_elapsed(v) for k, v in node.items() if k != "elapsed_ms"}
    if isinstance(node, list):
        return [_drop_elapsed(v) for v in node]
    return node


def render_case(name: str) -> tuple[str, str]:
    source, text = CASES[name]
    report = run_document(parse(text), source=source)
    payload = _drop_elapsed(report_to_json(report))
    return render_text(report), json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_text_and_json(name):
    text, payload = render_case(name)
    assert text == (GOLDEN_DIR / f"{name}.txt").read_text()
    assert payload == (GOLDEN_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize("part", [1, 2])
def test_the_console_claim_matches_its_golden(part, capsys):
    assert main(["hirzebruch", "--n", "12", "--part", str(part)]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"hirzebruch_n12_part{part}_cli.txt").read_text()
