"""Command-line verification harness.

Subcommands: ``info``, ``roots``, ``disc`` take a lattice expression;
``cusps`` classifies the 1-cusps of a family; ``verify`` runs the named
golden suite.  Exit codes: 0 all checks pass, 1 a check failed or the
input was rejected, 2 usage error.  Each subcommand loads only the layers
it uses, so a cold query pays no import it does not need: ``info``,
``roots`` and ``disc`` load exactla, lattice and roots; ``cusps`` adds
the classifier (``cusps`` with eisenstein); ``verify`` loads the suites.
At start-up only the suite names are read, from ``goldens``.

Lattice expressions: atoms ``U``, ``U(n)``, ``A<n>``, ``D<n>`` (n >= 4),
``E6|E7|E8``, ``diag(d1,...,dk)``, ``gram[[...],...]``; ``+`` is the
orthogonal direct sum (left associative) and a parenthesized expression
or atom may carry a rescale suffix ``(n)``.  Root-system atoms produce
negative definite summands, so expressions read exactly like the rows
of the reference tables.  ADE indices may also be parenthesized, as in
``A(2)``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from typing import List

import click

from . import __version__
from .exactla import ExactLAError
from .lattice import (
    DegenerateFormError,
    Lattice,
    LatticeError,
    diag_lattice,
    direct_sum,
    disc_group,
    hyperbolic,
    rescale,
    root_lattice,
    signature_with_radical,
)
from .goldens import SUITE_ORDER
from .roots import root_system


# Largest index of an ADE atom: the rank of a Niemeier lattice, above every
# root system in the reference tables; larger indices are rejected before a
# Cartan matrix is allocated.
MAX_ADE_INDEX = 24

# the grammar's digits and spaces: str.isdigit also accepts superscripts and
# other scripts, str.isspace the ideographic and other Unicode spaces.  So
# the parser never consumes a non-ASCII character, and a character offset
# into the consumed text is its UTF-8 byte offset.
_ASCII_DIGITS = frozenset("0123456789")
_ASCII_SPACE = frozenset(" \t\n\r\x0b\x0c")
# a whole integer list, ``int (, int)*``, over the same ASCII classes; the
# character-level ``integer`` reparses any list this does not settle
_INT = r"[ \t\n\r\x0b\x0c]*-?[0-9]+"
_INT_LIST = re.compile(rf"{_INT}(?:[ \t\n\r\x0b\x0c]*,{_INT})*")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")


@dataclass
class _Parser:
    text: str
    pos: int = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _ASCII_SPACE:
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _ASCII_DIGITS:
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.pos = start
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than the interpreter's int-conversion limit
            self.pos = start
            raise self.error("integer literal too long")

    def int_list(self) -> List[int]:
        """The integers of ``int (, int)*`` at ``pos``: one match of
        ``_INT_LIST`` and a split when the list ends there, else (an item
        that is not an integer, or one too long to convert) the
        character-level parse, which names the error and its offset."""
        start = self.pos
        match = _INT_LIST.match(self.text, start)
        if match:
            self.pos = match.end()
            if self.peek() != ",":
                try:
                    return [int(x) for x in match[0].split(",")]
                except ValueError:  # longer than the interpreter's int-conversion limit
                    pass
            self.pos = start
        out = [self.integer()]
        while self.peek() == ",":
            self.take(",")
            out.append(self.integer())
        return out

    def expr(self) -> Lattice:
        parts = [self.term()]
        while self.peek() == "+":
            self.take("+")
            parts.append(self.term())
        return direct_sum(*parts) if len(parts) > 1 else parts[0]

    def term(self) -> Lattice:
        lat = self.primary()
        while self.peek() == "(":
            save = self.pos
            self.take("(")
            try:
                n = self.integer()
            except ParseError:
                self.pos = save
                break
            self.take(")")
            if n == 0:
                self.pos = save
                raise self.error("rescale by zero")
            lat = rescale(lat, n)
        return lat

    def primary(self) -> Lattice:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            lat = self.expr()
            self.take(")")
            return lat
        if self.text.startswith("diag", self.pos):
            self.pos += 4
            self.take("(")
            entries = self.int_list()
            self.take(")")
            return diag_lattice(entries)
        if self.text.startswith("gram", self.pos):
            self.pos += 4
            return self.gram_literal()
        if ch == "U":
            self.pos += 1
            return hyperbolic()
        if ch and ch in "ADE":
            self.pos += 1
            if self.peek() == "(":
                self.take("(")
                n = self.integer()
                self.take(")")
            else:
                self.skip_ws()
                if self.text[self.pos : self.pos + 1] not in _ASCII_DIGITS:
                    raise self.error(f"{ch} needs an index")
                n = self.integer()
            if n > MAX_ADE_INDEX:
                raise self.error(f"{ch}{n} exceeds the largest ADE index {MAX_ADE_INDEX}")
            try:
                lat = root_lattice(ch, n)
            except LatticeError as exc:
                raise self.error(str(exc))
            return rescale(lat, -1)
        raise self.error("expected a lattice atom")

    def gram_literal(self) -> Lattice:
        self.take("[")
        rows = []
        while True:
            self.take("[")
            rows.append(self.int_list())
            self.take("]")
            if self.peek() == ",":
                self.take(",")
                continue
            break
        self.take("]")
        try:
            return Lattice(rows)
        except (LatticeError, ExactLAError) as exc:  # IntMatrix: ragged rows
            raise self.error(str(exc))


def parse_lattice_expr(text: str) -> Lattice:
    p = _Parser(text)
    lat = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return lat


def _parsed(expr: str) -> Lattice:
    """The lattice of ``expr``; a parse error is the command's error."""
    try:
        return parse_lattice_expr(expr)
    except ParseError as exc:
        raise click.ClickException(str(exc))


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Exact lattice toolkit and verification harness."""


@main.command()
@click.argument("expr")
def info(expr: str) -> None:
    """Rank, signature, parity, discriminant and roots of a lattice."""
    lat = _parsed(expr)
    click.echo(f"rank       {lat.rank}")
    p, q, r = signature_with_radical(lat)
    if r:
        click.echo(f"signature  ({p},{q}) with radical of rank {r}")
        sys.exit(1)
    click.echo(f"signature  ({p},{q})")
    click.echo(f"parity     {'even' if lat.is_even else 'odd'}")
    click.echo(f"det        {lat.det()}")
    d = disc_group(lat)
    click.echo(f"disc       {d}")
    if p == 0 or q == 0:
        rtype, _ = root_system(lat)
        click.echo(f"roots      {rtype}")
    else:
        click.echo("roots      - (indefinite)")


@main.command()
@click.argument("expr")
def roots(expr: str) -> None:
    """Root count and ADE decomposition of a definite lattice."""
    lat = _parsed(expr)
    try:
        rtype, span = root_system(lat)
    except LatticeError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"roots      {rtype.root_count()}")
    click.echo(f"type       {rtype}")
    click.echo(f"span rank  {span.rank}")


@main.command()
@click.argument("expr")
def disc(expr: str) -> None:
    """Elementary divisors of the discriminant group."""
    lat = _parsed(expr)
    try:
        d = disc_group(lat)
    except DegenerateFormError as exc:
        raise click.ClickException(str(exc))
    click.echo(" ".join(str(x) for x in d.elementary_divisors) or "1")


@main.command()
@click.option("--family", required=True, help="family as n,k (one of 0,2 0,1 1,1 2,1)")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
def cusps(family: str, fmt: str) -> None:
    """Classify the 1-cusps of a family, with embedding witnesses."""
    try:
        n, k = (int(x) for x in family.split(","))
    except ValueError:
        raise click.UsageError("family must be given as n,k")
    from .cusps import CuspError, classify_cusps

    try:
        recs = classify_cusps(n, k)
    except CuspError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        payload = [
            {
                "family": [n, k],
                "root_type": str(r.jperp_root),
                "starred": r.jperp_root.starred,
                "witnesses": [
                    {
                        "model": w.model_kind,
                        "assignment": [
                            "+".join(f"{s}{m}" for s, m in fs) or "0"
                            for fs in w.assignment
                        ],
                        "rows": [list(row) for row in w.rows()],
                    }
                    for w in r.witnesses
                ],
            }
            for r in recs
        ]
        click.echo(json.dumps(payload, indent=2))
    else:
        for r in recs:
            click.echo(f"cusp {r.jperp_root}")
            for w in r.witnesses:
                click.echo(f"  model {w.model_kind}")
                for factors, comp, order in w.rows():
                    click.echo(
                        f"    {factors:<6} -> complement {comp:<6} dual-quotient order {order}"
                    )


@main.command()
@click.option(
    "--suite",
    required=True,
    type=click.Choice([*SUITE_ORDER, "all"]),
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
def verify(suite: str, fmt: str) -> None:
    """Run a golden verification suite; exit 0 only if every item passes."""
    from .suites import run_suites

    reports = run_suites(suite)
    if fmt == "json":
        click.echo(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        click.echo("\n".join(r.as_text() for r in reports))
    if not all(r.passed for r in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
