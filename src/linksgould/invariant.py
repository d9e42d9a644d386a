"""Conversion of raw values (Laurent polynomials in q^(1/2) and p) into the
two-variable polynomial in q and P, plus the structural checks and the
compact P-symmetric encoding.

An invariant polynomial is a map (q-exponent, P-exponent) -> coefficient,
always symmetric under P -> 1/P.  Its compact form is the list of
q-polynomials [g_0, g_1, ..., g_K] meaning g_0 + sum_k (P^k + P^-k) g_k.
"""

from __future__ import annotations

import re

from .ring import LaurentQP

InvariantPoly = dict[tuple[int, int], int]  # (eq, eP) -> coefficient
QPoly = dict[int, int]  # q-exponent -> coefficient
CompactForm = list[QPoly]


class StructureError(RuntimeError):
    """Raw value violates the invariant's structure (odd exponents, q- and
    P-exponents of different parity, or broken P-symmetry); indicates an
    upstream bug."""


def to_invariant(raw: LaurentQP) -> InvariantPoly:
    """Convert a raw value: q-exponents must be integers, p-exponents even
    (P = p^2), each term's q- and P-exponents of the same parity (the value
    is a Laurent polynomial in t0 = q/P and t1 = qP), and the result
    P-symmetric."""
    poly: InvariantPoly = {}
    for (eq2, ep), c in raw.terms.items():
        if eq2 % 2:
            raise StructureError(f"half-integer q-exponent {eq2}/2 in {raw}")
        if ep % 2:
            raise StructureError(f"odd p-exponent {ep} in {raw}")
        if (eq2 - ep) % 4:
            raise StructureError(
                f"q- and P-exponents of different parity at q^{eq2 // 2} P^{ep // 2}"
            )
        poly[(eq2 // 2, ep // 2)] = c
    for (eq, eP), c in poly.items():
        if poly.get((eq, -eP)) != c:
            raise StructureError(
                f"not symmetric under P -> 1/P at q^{eq} P^{eP}"
            )
    return poly


def to_raw(poly: InvariantPoly) -> LaurentQP:
    """The raw value of an invariant polynomial, in q^(1/2) and p: the
    inverse of to_invariant's exponent map."""
    return LaurentQP({(2 * eq, 2 * eP): c for (eq, eP), c in poly.items()})


def to_compact(poly: InvariantPoly) -> CompactForm:
    """q-polynomial blocks for P^0, P^1, ..., P^K (negative powers are
    implied by symmetry), each in ascending q-exponent order; interior zero
    blocks are kept."""
    k_max = max((eP for _, eP in poly), default=0)
    blocks: CompactForm = [{} for _ in range(k_max + 1)]
    for (eq, eP), c in poly.items():
        if eP >= 0:
            blocks[eP][eq] = c
    return [dict(sorted(block.items())) for block in blocks]


def from_compact(blocks: CompactForm) -> InvariantPoly:
    poly: InvariantPoly = {}
    for k, block in enumerate(blocks):
        for eq, c in block.items():
            if c:
                poly[(eq, k)] = c
                if k:
                    poly[(eq, -k)] = c
    return poly


def is_palindromic_q(poly: InvariantPoly) -> bool:
    """True iff invariant under q -> 1/q; a non-palindromic value proves
    the closure chiral (the converse does not hold)."""
    return all(poly.get((-eq, eP)) == c for (eq, eP), c in poly.items())


def q_inverted(poly: InvariantPoly) -> InvariantPoly:
    """The mirror image's polynomial: q-exponents negated (P-symmetry
    already absorbs the accompanying p-inversion)."""
    return {(-eq, eP): c for (eq, eP), c in poly.items()}


# ---------------------------------------------------------------------------
# rendering and the machine format of record


def render_qpoly(block: QPoly) -> str:
    if not block:
        return "0"
    parts: list[str] = []
    for eq, c in sorted(block.items()):
        mag = abs(c)
        if eq == 0:
            body = str(mag)
        elif mag == 1:
            body = f"q^{{{eq}}}"
        else:
            body = f"{mag} q^{{{eq}}}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def render_compact_text(blocks: CompactForm) -> str:
    """Human form: comma-separated q-polynomial blocks, ascending P-power."""
    return ", ".join(render_qpoly(b) for b in blocks)


def render_laurent(poly: InvariantPoly) -> str:
    """Fully expanded form with explicit P-powers of both signs."""
    if not poly:
        return "0"
    parts = []
    for (eq, eP), c in sorted(poly.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        t = str(c)
        if eq:
            t += f"*q^{eq}"
        if eP:
            t += f"*P^{eP}"
        parts.append(t)
    return " + ".join(parts)


# ASCII digits only: int() would also read other scripts' digits, '_' and '+'
_BLOCK_RE = re.compile(r"^([0-9]+)\s*:\s*\[([^\]]*)\]$")
_PAIR_RE = re.compile(r"\s*(-?[0-9]+)\s*:\s*(-?[0-9]+)\s*")


class MachineFormatError(ValueError):
    pass


def render_machine(blocks: CompactForm, name: str | None = None) -> str:
    """Machine format of record, one record per line:
    ``[name; ]0: [e:c, ...]; 1: [e:c, ...]; ...`` with ascending e.
    Refuses a name that parse_machine would not read back as the name:
    an empty one, one containing ';' or one shaped like a block."""
    if name is not None and (
        not name.strip() or ";" in name or _BLOCK_RE.match(name.strip())
    ):
        raise MachineFormatError(
            f"name {name!r} cannot be read back from a record"
            " (it is empty, contains ';' or is shaped like a block)"
        )
    chunks = []
    for k, block in enumerate(blocks):
        body = ", ".join(f"{eq}:{c}" for eq, c in sorted(block.items()))
        chunks.append(f"{k}: [{body}]")
    record = "; ".join(chunks)
    return f"{name}; {record}" if name is not None else record


def parse_machine(record: str) -> tuple[str | None, CompactForm]:
    """Inverse of render_machine; integers are ASCII digits with an
    optional leading '-'."""
    fields = [f.strip() for f in record.strip().split(";")]
    name: str | None = None
    if fields and _BLOCK_RE.match(fields[0]) is None:
        name = fields.pop(0)
        if not name:
            raise MachineFormatError("empty name field")
    blocks: CompactForm = []
    for k, fieldtext in enumerate(fields):
        m = _BLOCK_RE.match(fieldtext)
        if m is None:
            raise MachineFormatError(f"bad block {fieldtext!r}")
        if int(m.group(1)) != k:
            raise MachineFormatError(
                f"block index {m.group(1)} out of order (expected {k})"
            )
        block: QPoly = {}
        body = m.group(2).strip()
        if body:
            for pair in body.split(","):
                pm = _PAIR_RE.fullmatch(pair)
                eq, c = map(int, pm.groups()) if pm else (0, 0)  # c = 0 marks a bad pair
                if c == 0 or eq in block:
                    raise MachineFormatError(f"bad pair {pair!r}")
                block[eq] = c
        blocks.append(block)
    if not blocks:
        raise MachineFormatError("no blocks in record")
    return name, blocks
