"""Text literals and JSON serialization for groups, roots and reflections.

Literal grammar: group specs are "B2" (finite) or "affine:B2"; roots are
"c1,c2,...,cn"; affine reflections are "root:level" with ":level"
defaulting to 0. Parsing and formatting round-trip bit-exactly.
"""

from __future__ import annotations

from .intlattice import IntegerLattice
from .rootsys import (RootSystem, RootSystemError, format_root, parse_root,
                      parse_type)
from .weyl_aff import AffineReflection, affine_reflection
from .hurwitz import BraidWord


def parse_group(s: str) -> tuple[RootSystem, bool]:
    """Parse a group spec; returns (root system, is_affine)."""
    s = s.strip()
    if ":" in s:
        prefix, _, rest = s.partition(":")
        if prefix.strip().lower() != "affine":
            raise RootSystemError(f"unknown group prefix {prefix!r}")
        return parse_type(rest), True
    return parse_type(s), False


def format_group(rs: RootSystem, affine: bool) -> str:
    name = f"{rs.family}{rs.rank}"
    return f"affine:{name}" if affine else name


def parse_affine_reflection(rs: RootSystem, s: str) -> AffineReflection:
    """Parse 'c1,...,cn:k'; a missing ':k' means level 0."""
    root_part, sep, level_part = s.partition(":")
    root = parse_root(rs, root_part)
    if sep:
        try:
            level = int(level_part)
        except ValueError:
            raise RootSystemError(f"cannot parse level in {s!r}") from None
    else:
        level = 0
    return affine_reflection(rs, root, level)


def format_affine_reflection(r: AffineReflection) -> str:
    return f"{format_root(r.root)}:{r.level}"


def parse_reflection_args(rs: RootSystem, args, affine: bool):
    """Parse CLI reflection literals; finite groups get level-0 entries."""
    refs = [parse_affine_reflection(rs, a) for a in args]
    if not affine and any(r.level for r in refs):
        raise RootSystemError("finite group spec does not allow levels; "
                              "use 'affine:...' for affine reflections")
    return tuple(refs)


def parse_tuple_literal(rs: RootSystem, s: str, affine: bool):
    """Parse a semicolon-separated tuple of reflections, with the finite
    check of `parse_reflection_args`."""
    parts = [p.strip() for p in s.split(";") if p.strip()]
    if not parts:
        raise RootSystemError("empty reflection tuple literal")
    return parse_reflection_args(rs, parts, affine)


def format_tuple(refs) -> str:
    return ";".join(format_affine_reflection(r) for r in refs)


def reflection_to_json(r: AffineReflection) -> dict:
    return {"root": list(r.root.coords), "level": r.level}


def tuple_to_json(refs) -> list[dict]:
    return [reflection_to_json(r) for r in refs]


def braid_word_to_json(word: BraidWord | None):
    return None if word is None else list(word.letters)


def lattice_to_json(lat: IntegerLattice | None):
    if lat is None:
        return None
    return {"ambient_rank": lat.ambient_rank,
            "basis": [list(row) for row in lat.basis]}


def certificate_to_json(cert) -> dict:
    return {
        "normalizing_braid": braid_word_to_json(cert.normalizing_braid),
        "conjugating_coweight": (None if cert.conjugating_coweight is None
                                 else [str(x) for x in cert.conjugating_coweight]),
        "repeated_root": (None if cert.repeated_root is None
                          else list(cert.repeated_root.coords)),
        "level_gap": cert.level_gap,
        "projected_generates": cert.projected_generates,
        "translation_lattice": lattice_to_json(cert.translation_lattice),
    }
