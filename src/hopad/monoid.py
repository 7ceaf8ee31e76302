"""Finite monoids with a morphism from the input alphabet."""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import Run, project_word


class FiniteMonoid:
    """Equal only to itself."""

    __slots__ = ("name", "carrier", "identity", "table", "letter_map")

    def __init__(
        self,
        name: str,
        carrier: tuple[str, ...],
        identity: str,
        table: Mapping[tuple[str, str], str],
        letter_map: Mapping[str, str],
    ):
        self.name = name
        self.carrier = carrier
        self.identity = identity
        self.table = table
        self.letter_map = letter_map

    def mul(self, x: str, y: str) -> str:
        return self.table[(x, y)]


def validate_monoid(m: FiniteMonoid) -> list[str]:
    """Check closure, identity and associativity; return violations."""
    out = []
    elems = m.carrier
    if m.identity not in elems:
        out.append(f"identity {m.identity} not in carrier")
    for x in elems:
        for y in elems:
            if m.table.get((x, y)) not in elems:
                out.append(f"closure fails at ({x},{y})")
    if out:
        return out
    for x in elems:
        if m.mul(m.identity, x) != x or m.mul(x, m.identity) != x:
            out.append(f"identity law fails at {x}")
    for x in elems:
        for y in elems:
            for z in elems:
                if m.mul(m.mul(x, y), z) != m.mul(x, m.mul(y, z)):
                    out.append(f"associativity fails at ({x},{y},{z})")
    for a, e in m.letter_map.items():
        if e not in elems:
            out.append(f"letter {a} maps outside the carrier")
    return out


def classify_word(m: FiniteMonoid, word: Iterable[str]) -> str:
    """Left fold of the letter map under the multiplication table."""
    acc = m.identity
    for a in word:
        if a not in m.letter_map:
            raise ValueError(f"unknown letter {a!r}")
        acc = m.mul(acc, m.letter_map[a])
    return acc


def phi_of_run(m: FiniteMonoid, run: Run) -> str:
    return classify_word(m, project_word(run.read_word))


def _monoid(name: str, carrier: tuple[str, ...], mul, letter_map: Mapping[str, str]) -> FiniteMonoid:
    """The monoid whose table is `mul` on every pair of the carrier, whose
    first element is the identity."""
    table = {(x, y): mul(x, y) for x in carrier for y in carrier}
    return FiniteMonoid(name, carrier, carrier[0], table, letter_map)


def _shape_mul(x: str, y: str) -> str:
    if x == "ID":
        return y
    if y == "ID" or x == "DOLLAR":
        return x
    return "OTHER"


def shape_monoid() -> FiniteMonoid:
    """Distinguishes the empty word, a single closing bracket, a word
    beginning with a dollar, and every other word over {[, ], $}."""
    return _monoid(
        "shape", ("ID", "CLOSE", "DOLLAR", "OTHER"), _shape_mul, {"]": "CLOSE", "$": "DOLLAR", "[": "OTHER"}
    )


def trivial_monoid(letters: Iterable[str]) -> FiniteMonoid:
    return _monoid("trivial", ("ID",), lambda x, y: "ID", {a: "ID" for a in letters})


def presence_monoid(letters: Iterable[str]) -> FiniteMonoid:
    """Distinguishes the empty word from every nonempty word."""
    return _monoid(
        "presence", ("ID", "SOME"), lambda x, y: y if x == "ID" else x, {a: "SOME" for a in letters}
    )


def monoid_by_name(name: str, letters: Iterable[str]) -> FiniteMonoid:
    if name == "shape":
        return shape_monoid()
    if name == "trivial":
        return trivial_monoid(letters)
    if name == "presence":
        return presence_monoid(letters)
    raise ValueError(f"unknown monoid {name!r}")
