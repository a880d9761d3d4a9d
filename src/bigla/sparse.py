"""Sparse combinations: dicts from keys to nonzero coefficients.

Lie-algebra vectors, PBW words in U(g), tensors, functionals, polynomials
and echelon rows are all finite combinations of basis keys.  They share
the one accumulation step and the one printer below.  The coefficients
only need +, *, truthiness for zero and, for printing, str and comparison
with 1 and -1; the module imports nothing from bigla, so scalars uses it
too.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union


def add_term(acc: dict, key, c):
    """acc[key] += c in place, dropping the key when the sum cancels."""
    s = acc.get(key)
    if s is not None:
        c = s + c
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def add_scaled(acc: dict, terms: Mapping, factor=None):
    """acc += factor * terms in place, through add_term; a factor of None
    or 1 adds the terms unscaled."""
    if factor is None or factor == 1:
        for key, c in terms.items():
            add_term(acc, key, c)
    else:
        for key, c in terms.items():
            add_term(acc, key, factor * c)


def format_term(c, name: Union[None, str, tuple[str, ...]]) -> str:
    """One term c*name of a printed sum.

    name None is the constant term; a tuple of slot names is a tensor,
    spelled 'a (x) b' and bracketed behind a coefficient.  Coefficients 1
    and -1 print as a bare or negated name, and a coefficient whose own
    printed form is a sum is parenthesised.
    """
    s = str(c)
    if " " in s:
        s = f"({s})"
    if name is None:
        return s
    if isinstance(name, tuple):
        name = " (x) ".join(name)
        scaled = f"[{name}]"
    else:
        scaled = name
    if c == 1:
        return name
    if c == -1:
        return f"-{name}"
    return f"{s}*{scaled}"


def join_terms(parts: Iterable[str]) -> str:
    """Join printed terms into 'a + b - c'; the empty sum is '0'."""
    out: Optional[str] = None
    for p in parts:
        if out is None:
            out = p
        elif p.startswith("-"):
            out += f" - {p[1:]}"
        else:
            out += f" + {p}"
    return "0" if out is None else out
