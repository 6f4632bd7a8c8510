"""Exact-value rendering shared by the CLI reports.

Machine reports are JSON with integers, rationals as "num/den" strings,
cyclotomic numbers as integer coordinate arrays tagged with (p, j), and
group-ring elements in the "c0*[0] + c1*[1] + ..." form.  Human reports
are aligned tables carrying the same numbers.  Integers of any size are
written exactly: renderers run under `exact_int_text`.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

from .groupring import GroupRingElem
from .poly import UniPoly

__all__ = [
    "exact_int_text",
    "fmt_fraction",
    "fmt_int_poly",
    "machine_json",
    "table",
]


def fmt_fraction(x) -> str:
    fr = x if isinstance(x, Fraction) else Fraction(x)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def fmt_int_poly(poly: UniPoly) -> list[int]:
    out = []
    for c in poly.coeffs:
        fr = Fraction(c)
        if fr.denominator != 1:
            raise ValueError("expected integer coefficients")
        out.append(fr.numerator)
    return out


def poly_text(poly: UniPoly, var: str = "u") -> str:
    if poly.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        body = f"({c.as_text()})" if isinstance(c, GroupRingElem) else fmt_fraction(c)
        if i == 0:
            terms.append(body)
        elif i == 1:
            terms.append(f"{body}*{var}")
        else:
            terms.append(f"{body}*{var}^{i}")
    return " + ".join(terms)


def table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def exact_int_text(render):
    """Run a renderer with the interpreter's int-to-str digit limit lifted.

    `str` and `json.dumps` refuse integers over 4300 digits by default (a
    guard against parsing untrusted text); the integers rendered here are
    computed, and spanning-tree counts deep in a tower pass that size.
    """

    @functools.wraps(render)
    def wrapper(*args, **kwargs):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return render(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)

    return wrapper


@exact_int_text
def machine_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
