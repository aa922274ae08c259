"""Byte-for-byte golden output of three reports, as text and as JSON.

The JSON comparison drops ``elapsed_ms``, the only field that varies from
run to run.  The expected files live in ``tests/golden/``.
"""

import json
from pathlib import Path

import pytest

from qreider.document import parse
from qreider.report import render_text, report_to_json, run_document

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "hirzebruch_n3": ("docs/hirzebruch_n3.surf", (ROOT / "docs" / "hirzebruch_n3.surf").read_text()),
    "claim_n2_part2": ("hirzebruch-claim n=2 part=2", "queries\nhirzebruch-claim n=2 part=2\n"),
    "claim_n12_part2": ("hirzebruch-claim n=12 part=2", "queries\nhirzebruch-claim n=12 part=2\n"),
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
