"""Wire formats shared by the CLI and the corpus runner.

Rationals print reduced with positive denominator ("3", "-1/2"); weights are
arrays of such strings; group elements print as their lexicographically
minimal reduced word ("e", "s1", "s2*s1*s3*s2"); word letters print as
"B:<reflection word>" / "R:<twist word>"; Laurent polynomials print as
{exponent: coefficient} maps.  Every weight, element and letter the CLI
emits is re-parseable by the readers here.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .coxeter import from_word, reduced_word
from .hecke import LaurentPoly
from .integral import IntegralDatum
from .rootsys import CartanDatum, Weight, WeylElement
from .soergel import BimoduleWord, BsLetter, Letter, RwLetter


class SchemaError(ValueError):
    """Malformed external input (weights, words, corpus files)."""


def fraction_to_str(x: Q) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Q:
    text = str(text).strip()
    try:
        value = Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed rational {text!r}: {exc}") from None
    return value


def weight_to_json(w: Weight) -> list[str]:
    return [fraction_to_str(x) for x in w]


def parse_weight(datum: CartanDatum, items) -> Weight:
    if isinstance(items, str):
        items = items.split(",")
    elif not isinstance(items, list):
        raise SchemaError(f"a weight must be a string or list, not {items!r}")
    coords = tuple(parse_fraction(x) for x in items)
    if len(coords) != datum.rank:
        raise SchemaError(
            f"weight has {len(coords)} coordinates, expected {datum.rank}")
    return coords


def word_to_str(word) -> str:
    return "*".join(f"s{i}" for i in word) if word else "e"


def parse_word_str(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "e"):
        return ()
    out = []
    for token in text.split("*"):
        token = token.strip()
        if not token.startswith("s") or not token[1:].isdigit():
            raise SchemaError(f"malformed word token {token!r}")
        out.append(int(token[1:]))
    return tuple(out)


def element_to_str(datum: CartanDatum, w: WeylElement) -> str:
    return word_to_str(reduced_word(datum, w))


def element_to_json(datum: CartanDatum, w: WeylElement) -> list[int]:
    """Value-position serialization: the reduced word as a 1-based array."""
    return list(reduced_word(datum, w))


def parse_element(datum: CartanDatum, data) -> WeylElement:
    """Accepts either the array form or the word-string form."""
    if isinstance(data, str):
        word = parse_word_str(data)
    else:
        try:
            word = tuple(int(i) for i in data)
        except (TypeError, ValueError):
            raise SchemaError(f"malformed element {data!r}") from None
    if any(not 1 <= i <= datum.rank for i in word):
        raise SchemaError(f"simple index out of range in {data!r}")
    return from_word(datum, word)


def letters_to_json(word: BimoduleWord) -> list[str]:
    """Read off the codes: Bs j names the j-th integral simple reflection,
    Rw ~k the chamber element number k."""
    idat = word.ambient
    datum, chamber = idat.datum, idat.chamber.sorted_elements
    return ["B:" + element_to_str(datum, idat.simple_reflections[x - 1])
            if x > 0 else "R:" + element_to_str(datum, chamber[~x])
            for x in word.codes]


def parse_letters(idat: IntegralDatum, items) -> list[Letter]:
    if not isinstance(items, list):
        raise SchemaError(f"a word must be a JSON array, not {items!r}")
    datum = idat.datum
    by_element = {refl: j + 1
                  for j, refl in enumerate(idat.simple_reflections)}
    out: list[Letter] = []
    for item in items:
        if not isinstance(item, str) or ":" not in item:
            raise SchemaError(f"malformed letter {item!r}")
        kind, _, body = item.partition(":")
        el = parse_element(datum, body)
        if kind == "B":
            j = by_element.get(el)
            if j is None:
                raise SchemaError(
                    f"{body!r} is not an integral simple reflection here")
            out.append(BsLetter(j))
        elif kind == "R":
            out.append(RwLetter(el))
        else:
            raise SchemaError(f"unknown letter kind {kind!r}")
    return out


def poly_to_json(p: LaurentPoly) -> dict:
    return {str(e): c for e, c in p.items()}
