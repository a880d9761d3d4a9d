"""Sparse combinations: dicts from keys to nonzero coefficients.

Lie-algebra vectors, PBW words in U(g), tensors, functionals, polynomials
and echelon rows are all finite combinations of basis keys.  They share
the one accumulation step, the one printer and, but for the echelon rows,
the one Combination class below.  The coefficients only need +, *,
truthiness for zero and, for printing, str and comparison with 1 and -1;
the module imports nothing from bigla but BiglaError, so scalars uses it
too.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from .errors import BiglaError


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


class Combination:
    """A finite combination: coeffs maps each key to its nonzero coefficient.

    This class holds the linear structure every combination shares.  A
    subclass names in base() what two operands must share, which are also
    its constructor's arguments before coeffs, and says how to sort a key,
    in _order, and how format_term names it, in _name.  Combinations are
    treated as immutable: every operation returns a fresh one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping):
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    def base(self) -> tuple:
        return ()

    def _like(self, coeffs: Mapping) -> "Combination":
        """A combination of the same type over the same base."""
        return type(self)(*self.base(), coeffs)

    def _same(self, other: "Combination"):
        """Raise BiglaError unless other has this type and base."""
        if type(other) is not type(self) or other.base() != self.base():
            raise BiglaError(f"{type(self).__name__} and "
                             f"{type(other).__name__} over different bases")

    def __add__(self, other: "Combination") -> "Combination":
        self._same(other)
        out = dict(self.coeffs)
        add_scaled(out, other.coeffs)
        return self._like(out)

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

    def __neg__(self) -> "Combination":
        return self._like({k: -c for k, c in self.coeffs.items()})

    def scale(self, c) -> "Combination":
        """c times each coefficient; c is anything a coefficient multiplies
        with from the left."""
        return self._like({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.base() == other.base() and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _order(self, key):
        return key

    def sorted_terms(self) -> list:
        order = self._order
        return sorted(self.coeffs.items(), key=lambda t: order(t[0]))

    def pretty(self) -> str:
        name = self._name
        return join_terms(format_term(c, name(k)) for k, c in self.sorted_terms())

    def __repr__(self):
        return f"{type(self).__name__}<{self.pretty()}>"
