"""Parser for the Datalog-like IR text syntax (paper Section 2.2).

The paper writes entangled queries as ``{C} H D B`` (the ``D`` renders
an arrow); this parser accepts the ASCII forms::

    {R(Jerry, x)} R(Kramer, x) <- F(x, Paris)
    {R(Kramer, y)} R(Jerry, y) :- F(y, Paris), A(y, United) CHOOSE 1

Conventions (matching the paper's figures):

* identifiers starting with a **lowercase** letter or underscore are
  variables (``x``, ``y``, ``c``, ``f``);
* identifiers starting with an **uppercase** letter are string
  constants (``Jerry``, ``Paris``, ``ITH``);
* quoted strings and numbers are constants of the respective type;
* conjunction within a part is ``,``, ``AND``, ``&`` or ``∧``;
* the postcondition braces are mandatory (``{}`` when empty); the body
  after ``<-`` (or ``:-``) may be omitted for body-free queries;
* a body conjunct is either an atom ``R(args)`` or a comparison
  ``term op term`` (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``) —
  comparisons become :attr:`EntangledQuery.body_comparisons`;
* an optional trailing ``CHOOSE k``.
"""

from __future__ import annotations

from ..core.query import EntangledQuery
from ..core.terms import Atom, Constant, Term, Variable
from ..db.expression import Comparison
from ..errors import ParseError
from .tokenizer import Token, TokenStream, TokenType


def parse_ir(text: str, query_id: object = None,
             owner: object = None) -> EntangledQuery:
    """Parse one IR-syntax entangled query.

    The produced query is validated (range restriction, etc.).
    """
    stream = TokenStream.of(text)
    query = _parse_ir_query(stream, query_id, owner)
    stream.expect_end()
    query.validate()
    return query


def parse_ir_workload(text: str, owner: object = None
                      ) -> list[EntangledQuery]:
    """Parse a workload: one IR query per non-empty, non-comment line.

    Queries are assigned sequential integer ids starting at 0.
    """
    queries: list[EntangledQuery] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        queries.append(parse_ir(stripped, query_id=len(queries),
                                owner=owner))
    return queries


def _parse_ir_query(stream: TokenStream, query_id: object,
                    owner: object) -> EntangledQuery:
    stream.expect_punct("{")
    postconditions: list[Atom] = []
    if not stream.peek().is_punct("}"):
        postconditions = _parse_atoms(stream)
    stream.expect_punct("}")

    head = _parse_atoms(stream)

    body: list[Atom] = []
    comparisons: list[Comparison] = []
    token = stream.peek()
    if token.type is TokenType.ARROW:
        stream.next()
        if (stream.peek().type in (TokenType.IDENT, TokenType.NUMBER,
                                   TokenType.STRING)
                and not stream.peek().is_keyword("CHOOSE")):
            body, comparisons = _parse_body(stream)

    choose = 1
    if stream.accept_keyword("CHOOSE"):
        number = stream.peek()
        if (number.type is not TokenType.NUMBER
                or not isinstance(number.value, int)):
            raise ParseError(f"CHOOSE expects an integer, found {number}",
                             number.line, number.column)
        stream.next()
        choose = number.value

    return EntangledQuery(query_id=query_id, head=tuple(head),
                          postconditions=tuple(postconditions),
                          body=tuple(body), choose=choose, owner=owner,
                          body_comparisons=tuple(comparisons))


def _parse_atoms(stream: TokenStream) -> list[Atom]:
    atoms = [_parse_atom(stream)]
    while True:
        if stream.accept_punct(",") or stream.accept_keyword("AND"):
            atoms.append(_parse_atom(stream))
        else:
            break
    return atoms


def _parse_body(stream: TokenStream
                ) -> tuple[list[Atom], list[Comparison]]:
    """Parse body conjuncts: atoms interleaved with comparisons."""
    atoms: list[Atom] = []
    comparisons: list[Comparison] = []
    while True:
        if (stream.peek().type is TokenType.IDENT
                and stream.peek(1).is_punct("(")):
            atoms.append(_parse_atom(stream))
        else:
            comparisons.append(_parse_comparison(stream))
        if not (stream.accept_punct(",") or stream.accept_keyword("AND")):
            break
    return atoms, comparisons


def _parse_comparison(stream: TokenStream) -> Comparison:
    left = _parse_term(stream)
    token = stream.peek()
    if not token.is_comparison():
        raise ParseError(f"expected comparison operator, found {token}",
                         token.line, token.column)
    stream.next()
    right = _parse_term(stream)
    return Comparison(left, token.value, right)  # type: ignore[arg-type]


def _parse_atom(stream: TokenStream) -> Atom:
    name_token = stream.peek()
    if name_token.type is not TokenType.IDENT:
        raise ParseError(f"expected relation name, found {name_token}",
                         name_token.line, name_token.column)
    stream.next()
    stream.expect_punct("(")
    args: list[Term] = []
    if not stream.peek().is_punct(")"):
        args.append(_parse_term(stream))
        while stream.accept_punct(","):
            args.append(_parse_term(stream))
    stream.expect_punct(")")
    return Atom(name_token.value, tuple(args))  # type: ignore[arg-type]


def _parse_term(stream: TokenStream) -> Term:
    token = stream.peek()
    if token.type in (TokenType.STRING, TokenType.NUMBER):
        stream.next()
        return Constant(token.value)
    if token.type is TokenType.IDENT:
        stream.next()
        name: str = token.value  # type: ignore[assignment]
        if name[0].islower() or name[0] == "_":
            return Variable(name)
        return Constant(name)
    raise ParseError(f"expected term, found {token}",
                     token.line, token.column)
