"""Canonical ``.surf`` text of a parsed document, the inverse of
``document.parse``: ``parse(render(doc)) == doc``.

Rendering reads only the declarations a ``Document`` holds; it lives apart
from the parser, and ``document`` re-exports ``render``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .search import AffineExpr

if TYPE_CHECKING:
    from .document import Document


def _render_class(coeffs: Sequence[Fraction], labels: Sequence[str]) -> str:
    parts: list[str] = []
    for coeff, label in zip(coeffs, labels):
        if not coeff:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = label if mag == 1 else f"{mag} {label}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _render_affine(expr: AffineExpr) -> str:
    if expr.is_constant():
        return str(expr.const)
    parts = []
    if expr.const:
        parts.append(str(expr.const))
    for name, coeff in sorted(expr.terms.items()):
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        else:
            term = f"{coeff!s} {name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return "(" + " ".join(parts) + ")"


def render(doc: Document) -> str:
    """Render a document back to canonical text; parse(render(d)) == d."""
    lines: list[str] = []
    if doc.surface is not None:
        s = doc.surface
        lines.append("surface")
        lines.append("basis = " + " ".join(s.basis))
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in s.gram)
        lines.append(f"gram = [{rows}]")
        lines.append("K = " + _render_class(s.canonical, s.basis))
        lines.append(f"chi_O = {s.chi_o!s}")
    if doc.curves:
        lines.append("")
        lines.append("curves")
        basis = doc.surface.basis if doc.surface else ()
        for c in doc.curves:
            lines.append(f"{c.name} = " + _render_class(c.coeffs, basis))
    if doc.cone is not None:
        lines.append("")
        lines.append("cone")
        if doc.cone.hirzebruch_n is not None:
            lines.append(f"hirzebruch = {doc.cone.hirzebruch_n}")
        else:
            basis = doc.surface.basis if doc.surface else ()
            for g in doc.cone.generators:
                flags = (", through-p" if g.through_p else "") + (", contains-z" if g.contains_z else "")
                lines.append(f"generator = {_render_class(g.coeffs, basis)}{flags}")
    if doc.points:
        lines.append("")
        lines.append("points")
        for p in doc.points:
            entries = " ".join(f"{c}:{m}" for c, m in p.mults)
            lines.append(f"{p.name} ={' ' + entries if entries else ''}")
    if doc.tangents:
        lines.append("")
        lines.append("tangents")
        for t in doc.tangents:
            entries = " ".join(f"{c}:{m}:z" if z else f"{c}:{m}" for c, m, z in t.entries)
            lines.append(f"{t.name} = {t.at}{' ' + entries if entries else ''}")
    if doc.params:
        lines.append("")
        lines.append("params")
        for p in doc.params:
            lines.append(f"{p.name} = ({p.lo!s}, {p.hi!s})")
    if doc.divisors:
        lines.append("")
        lines.append("divisors")
        for d in doc.divisors:
            parts = []
            for curve, expr in d.coeffs:
                rendered = _render_affine(expr)
                parts.append(curve if rendered == "1" else f"{rendered} {curve}")
            # a negative term after the first is written as a difference: "A - 1/3 B", not "A + -1/3 B"
            lines.append(f"{d.name} = " + (" + ".join(parts).replace("+ -", "- ") if parts else "0"))
    if doc.queries:
        lines.append("")
        lines.append("queries")
        for q in doc.queries:
            lines.append(q.text())
    return "\n".join(lines) + "\n"
