"""Plain-text data files for databases and workloads.

A deliberately simple line format so workloads can be scripted and
shipped without pickling:

.. code-block:: text

    -- comments and blank lines are ignored
    table Flights fno:int dest:text
    row Flights 122 'Paris'
    row Flights 123 'Paris'
    table Airlines fno:int airline:text
    row Airlines 122 'United'

Values in ``row`` lines use the same literal syntax as queries: quoted
strings, bare numbers, bare ``true`` / ``false`` (booleans), or other
bare identifiers (taken as strings).  A quoted string may span lines.
Every text, int, float and bool value a column accepts is dumped in a
form that reads back as the same type and value (DESIGN §4).  Query
workload files contain one IR-syntax entangled query per line (see
:func:`repro.lang.parse_ir_workload`).

This module also defines the **wire format** of the sharded
coordination service (:mod:`repro.shard`): :func:`to_payload` /
:func:`from_payload` turn :class:`~repro.core.query.EntangledQuery`
instances and settled :class:`~repro.core.evaluate.Answer` objects into
kind-tagged payloads of plain dicts, lists, and scalars,
:func:`record_to_payload` / :func:`decode_records` do the same for the
pending records a shard import adopts (a migrated, restored or
re-homed component; snapshots store them too), and
:func:`db_delta_to_payload` / :func:`db_delta_from_payload` for the
versioned replication blocks that carry live database mutations to
shard-local replicas.  Payloads are
JSON-compatible and carry no live objects, so they cross process
boundaries without depending on pickle's class-identity machinery, and
the round trip is exact: ``from_payload(to_payload(x)) == x``.  Where
a query is bound for JSON *text* (submit frames on the socket and in
the journal), :func:`render_query` writes that text from a per-shape
template instead of building the tree, byte for byte what dumping
:func:`to_payload` would give; :func:`decode_queries` reads a frame's
block of query payloads back in one call.

Finally it owns the one **frame envelope** —
``<length:u32><crc32:u32><utf-8 JSON>`` — that carries payloads to
disk and over sockets: :func:`frame_record` / :func:`encode_frame`
write it, and a single scan loop reads it back under two stop
policies, :func:`unframe_records` for the write-ahead log and
snapshots (a torn tail is a clean end-of-log) and the incremental
:class:`FrameDecoder` for server streams (corruption is fatal).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from json.encoder import encode_basestring
from operator import call
from pathlib import Path
from typing import Iterable, Optional, Union

from .core.evaluate import Answer
from .core.extensions import AggregateConstraint, OPERATORS
from .core.query import EntangledQuery
from .core.terms import Atom, Constant, Term, Variable
from .db.database import Database
from .db.expression import Comparison
from .errors import ParseError, ReproError, SchemaError, \
    ValidationError
from .lang.tokenizer import TokenStream, TokenType  # leaf module; no cycle

#: Version stamp carried by every payload; bump on format changes so
#: mixed-revision shard fleets fail loudly instead of misparsing.
WIRE_VERSION = 1

#: The JSON text of every frame body: ``json.dumps(value,
#: separators=(",", ":"), ensure_ascii=False)``, minus building an
#: encoder per call.
compact_json = json.JSONEncoder(separators=(",", ":"),
                                ensure_ascii=False).encode


def load_database(source: Union[str, Path]) -> Database:
    """Build a :class:`Database` from a data file or literal text.

    *source* is a path if it names an existing file, otherwise it is
    treated as the file's contents (handy in tests and docstrings).
    """
    text = _read(source)
    database = Database()
    # Rows are validated line by line (for error line numbers) but
    # buffered and bulk-inserted per table: one committed delta and
    # one cache-invalidation round per table instead of one per row —
    # this is the shard replica's bootstrap path.
    buffered: dict[str, list[tuple]] = {}
    lines = text.split("\n")
    position = 0
    while position < len(lines):
        line_number = position + 1
        line = lines[position]
        position += 1
        while _open_literal(line) and position < len(lines):
            # The newline belongs to a quoted string: the row goes on.
            line = f"{line}\n{lines[position]}"
            position += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        keyword, _, rest = stripped.partition(" ")
        if keyword == "table":
            _load_table_line(database, rest, line_number)
        elif keyword == "row":
            _buffer_row_line(database, buffered, rest, line_number)
        else:
            raise ParseError(
                f"expected 'table' or 'row', found {keyword!r}",
                line_number)
    for name, rows in buffered.items():
        database.insert_stored_rows(name, rows)
    return database


def dump_database(database: Database, *,
                  cache: Optional[dict] = None) -> str:
    """Render *database* back into the data-file format.

    ``load_database(dump_database(db))`` reproduces all tables and rows
    (order of rows within a table is preserved).

    *cache*, if given, is a caller-owned dict reused across calls: each
    table's rendered block is kept keyed by name and revalidated
    against the table object's identity and mutation ``version``, so a
    repeat dump re-renders only the tables that changed.  Periodic
    snapshots of a large, mostly-static database (the durability
    layer) pay for the churned tables, not the whole dataset.
    """
    blocks: list[str] = []
    for name in database.table_names():
        table = database.table(name)
        if cache is not None:
            entry = cache.get(name)
            if (entry is not None and entry[0] is table
                    and entry[1] == table.version):
                blocks.append(entry[2])
                continue
        lines = [" ".join(
            [f"table {name}"]
            + [f"{column.name}:{column.type.value}"
               for column in table.schema.columns])]
        for row in table.rows():
            rendered = " ".join(_render_value(value) for value in row)
            lines.append(f"row {name} {rendered}")
        block = "\n".join(lines)
        if cache is not None:
            cache[name] = (table, table.version, block)
        blocks.append(block)
    return "\n".join(blocks) + ("\n" if blocks else "")


def _read(source: Union[str, Path]) -> str:
    path = Path(source)
    try:
        if path.exists() and path.is_file():
            return path.read_text()
    except OSError:
        pass
    return str(source)


def _load_table_line(database: Database, rest: str,
                     line_number: int) -> None:
    parts = rest.split()
    if len(parts) < 2:
        raise ParseError("table line needs a name and >= 1 column",
                         line_number)
    name, column_specs = parts[0], parts[1:]
    specs = []
    for spec in column_specs:
        column, _, type_name = spec.partition(":")
        if not column:
            raise ParseError(f"bad column spec {spec!r}", line_number)
        specs.append(f"{column} {type_name}" if type_name else column)
    try:
        database.create_table(name, *specs)
    except SchemaError as error:
        raise ParseError(f"bad table line: {error}", line_number)


def _buffer_row_line(database: Database, buffered: dict, rest: str,
                     line_number: int) -> None:
    name, _, values_text = rest.partition(" ")
    if not name:
        raise ParseError("row line needs a table name", line_number)
    values = _parse_values(values_text, line_number)
    try:
        stored = database.table(name).schema.check_row(values)
    except SchemaError as error:
        raise ParseError(f"bad row line: {error}", line_number)
    buffered.setdefault(name, []).append(stored)


def _open_literal(line: str) -> bool:
    """True if *line* ends inside a quoted string, by the tokenizer's
    rules: ``''`` is an escaped quote, and ``--`` outside a string
    starts a comment."""
    start = 0
    while True:
        quote = line.find("'", start)
        if quote < 0 or line.find("--", start, quote) >= 0:
            return False
        start = line.find("'", quote + 1) + 1
        if not start:
            return True


#: Bare words that are values of their own, not strings.
_BOOLEANS = {"true": True, "false": False}


def _parse_values(text: str, line_number: int) -> tuple:
    stream = TokenStream.of(text)
    values: list = []
    while not stream.at_end():
        token = stream.next()
        if token.type in (TokenType.STRING, TokenType.NUMBER):
            values.append(token.value)
        elif token.type is TokenType.IDENT and token.value in _BOOLEANS:
            values.append(_BOOLEANS[token.value])
        elif token.type in (TokenType.IDENT, TokenType.KEYWORD):
            values.append(str(token.value))
        else:
            raise ParseError(f"unexpected value token {token}",
                             line_number)
    return tuple(values)


def _render_value(value: object) -> str:
    """*value* as a literal that reads back as the same type and value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isinf(value):
            # The tokenizer reads an overflowing literal as infinity.
            return "1e999" if value > 0 else "-1e999"
        return float.__repr__(value)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    raise ValidationError(
        f"{type(value).__name__} value {value!r} has no data-file form; "
        f"snapshots and replicas carry text, int, float and bool only")


# ----------------------------------------------------------------------
# wire payloads (queries and answers crossing shard boundaries)
# ----------------------------------------------------------------------

#: Scalar types allowed in payloads (ids, owners, constants, values).
_WIRE_SCALARS = (str, int, float, bool, type(None))


def _wire_scalar(value: object, what: str) -> object:
    if not isinstance(value, _WIRE_SCALARS):
        raise ValidationError(
            f"{what} {value!r} is not wire-serializable; the shard wire "
            f"format carries str/int/float/bool/None only")
    return value


def _term_to_payload(term: Term) -> list:
    if isinstance(term, Variable):
        return ["v", term.name]
    return ["c", _wire_scalar(term.value, "constant value")]


def _term_from_payload(item, variables: dict, constants: dict) -> Term:
    """One term of a payload, shared within a decode call: one
    ``Variable`` per name and one ``Constant`` per ``(type, value)`` —
    keyed by type so ``1``, ``True`` and ``1.0`` stay distinct.
    Floats are never shared: ``0.0`` and ``-0.0`` are equal keys but
    render differently."""
    tag, value = item
    if tag == "v":
        term = variables.get(value)
        if term is None:
            term = variables[value] = Variable(value)
        return term
    if tag == "c":
        if type(value) is float:
            return Constant(value)
        key = (type(value), value)
        term = constants.get(key)
        if term is None:
            term = constants[key] = Constant(value)
        return term
    raise ParseError(f"unknown term tag {tag!r} in payload")


def _atoms_to_payload(atoms: Iterable[Atom]) -> list:
    # _term_to_payload, unrolled: this renders every term of every
    # journalled/wire-shipped query, so the per-term function call and
    # double isinstance were measurable on ingestion-heavy payloads.
    out = []
    for atom in atoms:
        terms = []
        for term in atom.args:
            if type(term) is Variable:
                terms.append(["v", term.name])
            else:
                terms.append(_term_to_payload(term))
        out.append([atom.relation, terms])
    return out


def _atoms_from_payload(items, variables: dict,
                        constants: dict) -> tuple[Atom, ...]:
    return tuple([Atom(relation, tuple([
        _term_from_payload(term, variables, constants)
        for term in terms])) for relation, terms in items])


def _aggregate_to_payload(constraint: AggregateConstraint) -> list:
    return _checked_aggregate([
        _atoms_to_payload(constraint.atoms),
        sorted(constraint.answer_relations, key=str), constraint.op,
        constraint.threshold])


def _aggregate_from_payload(item, variables: dict,
                            constants: dict) -> AggregateConstraint:
    atoms, relations, op, threshold = _checked_aggregate(item)
    return AggregateConstraint(
        _atoms_from_payload(atoms, variables, constants),
        frozenset(relations), op, threshold)


def _is_atom_payload(item) -> bool:
    """``[relation, [[tag, value], ...]]`` with a str relation, and
    terms that are named variables or wire-scalar constants."""
    return (type(item) is list and len(item) == 2
            and type(item[0]) is str and type(item[1]) is list
            and all(type(term) is list and len(term) == 2
                    and (type(term[1]) is str if term[0] == "v"
                         else term[0] == "c"
                         and isinstance(term[1], _WIRE_SCALARS))
                    for term in item[1]))


def _checked_aggregate(item) -> list:
    """*item*, if it is a well-formed ``agg`` entry.  Checked at the
    edge, because a payload comes from outside and a bad operator or
    threshold would otherwise surface inside a coordination round,
    after the query was admitted and journalled; and checked when
    encoding too, so every journalled query decodes on recovery."""
    if type(item) is not list or len(item) != 4:
        raise ParseError(
            f"aggregate payload {item!r} is not "
            f"[atoms, answer relations, op, threshold]")
    atoms, relations, op, threshold = item
    if type(op) is not str or op not in OPERATORS:
        raise ValidationError(
            f"aggregate operator {op!r} is not one of "
            f"{' '.join(OPERATORS)}")
    if type(threshold) not in (int, float):
        raise ValidationError(
            f"aggregate threshold {threshold!r} is not a number")
    if type(relations) is not list or not all(
            type(relation) is str for relation in relations):
        raise ValidationError(
            f"aggregate answer relations {relations!r} are not a list "
            f"of names")
    if type(atoms) is not list or not all(map(_is_atom_payload, atoms)):
        raise ParseError(f"malformed aggregate atoms {atoms!r}")
    return item


def to_payload(obj: Union[EntangledQuery, Answer]) -> dict:
    """Serialize a query or settled answer into a wire payload.

    The payload is a kind-tagged tree of dicts, lists, and scalars —
    stable under JSON round trips and safe to ship between shard
    worker processes.  A query's Section 6 aggregate constraints ride
    as an optional ``agg`` key (``[atoms, answer relations, op,
    threshold]`` each), absent when it has none.
    """
    if isinstance(obj, EntangledQuery):
        payload = {
            "wire": WIRE_VERSION,
            "kind": "query",
            "id": _wire_scalar(obj.query_id, "query id"),
            "head": _atoms_to_payload(obj.head),
            "post": _atoms_to_payload(obj.postconditions),
            "body": _atoms_to_payload(obj.body),
            "choose": obj.choose,
            "owner": _wire_scalar(obj.owner, "query owner"),
        }
        if obj.body_comparisons:
            # Optional key: absent for comparison-free queries, so
            # payloads (and their journal bytes) are unchanged for the
            # workloads that predate range predicates.
            payload["cmp"] = [
                [_term_to_payload(comparison.left), comparison.op,
                 _term_to_payload(comparison.right)]
                for comparison in obj.body_comparisons]
        if obj.aggregates:
            # Optional key, as "cmp" is.
            payload["agg"] = [_aggregate_to_payload(constraint)
                              for constraint in obj.aggregates]
        return payload
    if isinstance(obj, Answer):
        return {
            "wire": WIRE_VERSION,
            "kind": "answer",
            "id": _wire_scalar(obj.query_id, "query id"),
            "rows": {relation: [[_wire_scalar(value, "answer value")
                                 for value in row] for row in rows]
                     for relation, rows in obj.rows.items()},
            "choices": obj.choices,
        }
    raise ValidationError(
        f"cannot serialize {type(obj).__name__} to a wire payload")


# ----------------------------------------------------------------------
# rendered queries (the text form of to_payload, for submit frames)
# ----------------------------------------------------------------------

#: Shape templates are dropped wholesale past this many (simple and
#: sufficient: a workload submits a handful of query shapes).
MAX_CACHED_SHAPES = 1024


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


#: A hole's JSON text by the exact type of its value — what
#: ``json.dumps(..., ensure_ascii=False)`` writes for that value.
#: Subclasses are absent on purpose: their shapes take the reference
#: path.
_SCALAR_JSON = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    float: _float_json,
    type(None): {None: "null"}.__getitem__,
}

#: Stands in for every hole while a template is built from a payload.
_HOLE = "\x00"
_HOLE_JSON = encode_basestring(_HOLE)

#: shape key -> ``(format string, per-hole encoders)``, or None for a
#: shape only the reference path renders.  An entry is a function of
#: its key alone, so one process-wide cache is safe to share.
_shape_templates: dict = {}


def _render_reference(obj) -> str:
    return compact_json(to_payload(obj))


def _build_template(query: EntangledQuery):
    """A shape's template, derived from one query's own payload: each
    hole (id, term values, choose, owner) is swapped for a marker, the
    tree is dumped once, and the text is cut at the markers.  Holes
    are visited in the order :func:`render_query` collects values."""
    payload = to_payload(query)  # raises exactly what rendering must
    encoders = []

    def hole(value, encoder=None):
        encoders.append(encoder or _SCALAR_JSON.get(type(value)))
        return _HOLE

    def term_hole(term):
        # Variable names are not part of the shape: the strict string
        # encoder raises on a non-str name, and that query alone takes
        # the reference path.
        term[1] = hole(term[1],
                       encode_basestring if term[0] == "v" else None)

    payload["id"] = hole(payload["id"])
    for section in ("head", "post", "body"):
        for _, args in payload[section]:
            for term in args:
                term_hole(term)
    payload["choose"] = hole(payload["choose"])
    payload["owner"] = hole(payload["owner"])
    for left, _, right in payload.get("cmp", ()):
        term_hole(left)
        term_hole(right)
    pieces = compact_json(payload).split(_HOLE_JSON)
    if None in encoders or len(pieces) != len(encoders) + 1:
        return None  # a subclass-typed value, or a marker in the text
    return ("%s".join(piece.replace("%", "%%") for piece in pieces),
            tuple(encoders))


def render_query(query) -> str:
    """The wire JSON text of *query*, rendered once from its shape.

    Byte-identical to ``json.dumps(to_payload(query),
    separators=(",", ":"), ensure_ascii=False)`` and raising the same
    :class:`ValidationError`\\ s.  A query's *shape* — its id's type,
    each atom's relation and variable-or-constant pattern with every
    constant's exact type, choose's and owner's types, each
    comparison's operator — keys a cached template whose holes take
    the JSON text of this query's values, so the payload tree is
    never built.  Anything the template cannot vouch for (aggregates,
    a value that is not a wire scalar, a subclass-typed value, a
    non-str relation or variable name, a non-query) renders through
    :func:`to_payload`, the reference.
    """
    if type(query) is not EntangledQuery or query.aggregates:
        return _render_reference(query)
    query_id = query.query_id
    key = [type(query_id)]
    values = [query_id]
    append_key = key.append
    append_value = values.append
    for atoms in (query.head, query.postconditions, query.body):
        # A relation string opens each atom, so arities are implicit.
        append_key(len(atoms))
        for atom in atoms:
            args = atom.args
            relation = atom.relation
            if type(relation) is not str:
                return _render_reference(query)
            append_key(relation)
            for term in args:
                if type(term) is Variable:
                    append_key(Variable)
                    append_value(term.name)
                elif type(term) is Constant:
                    value = term.value
                    append_key(type(value))
                    append_value(value)
                else:
                    return _render_reference(query)
    append_key(type(query.choose))
    append_value(query.choose)
    append_key(type(query.owner))
    append_value(query.owner)
    comparisons = query.body_comparisons
    append_key(len(comparisons))
    for comparison in comparisons:
        append_key(comparison.op)
        for term in (comparison.left, comparison.right):
            if type(term) is Variable:
                append_key(Variable)
                append_value(term.name)
            elif type(term) is Constant:
                value = term.value
                append_key(type(value))
                append_value(value)
            else:
                return _render_reference(query)
    key = tuple(key)
    try:
        template = _shape_templates[key]
    except KeyError:
        template = _build_template(query)
        if len(_shape_templates) >= MAX_CACHED_SHAPES:
            _shape_templates.clear()
        _shape_templates[key] = template
    if template is None:
        return _render_reference(query)
    text, encoders = template
    try:
        return text % tuple(map(call, encoders, values))
    except TypeError:
        return _render_reference(query)


def decode_queries(payloads) -> list[EntangledQuery]:
    """Rebuild a block of query payloads in one call.

    Equal to ``[from_payload(p) for p in payloads]``, but the block
    shares its terms: one ``Variable`` per name and one ``Constant``
    per ``(type, value)`` across every query decoded here, so a
    submit frame of look-alike queries allocates each term once.  A
    payload of another kind is refused: a block is queries only.
    """
    variables: dict = {}
    constants: dict = {}
    queries = []
    for payload in payloads:
        if payload.get("wire") != WIRE_VERSION:
            raise ParseError(
                f"payload wire version {payload.get('wire')!r} != "
                f"{WIRE_VERSION} (mixed shard revisions?)")
        if payload.get("kind") != "query":
            raise ValidationError(
                f"expected query payloads, got kind "
                f"{payload.get('kind')!r}")
        queries.append(EntangledQuery(
            query_id=payload["id"],
            head=_atoms_from_payload(payload["head"], variables,
                                     constants),
            postconditions=_atoms_from_payload(payload["post"],
                                               variables, constants),
            body=_atoms_from_payload(payload["body"], variables,
                                     constants),
            choose=payload["choose"],
            owner=payload["owner"],
            body_comparisons=tuple([
                Comparison(_term_from_payload(left, variables, constants),
                           op,
                           _term_from_payload(right, variables,
                                              constants))
                for left, op, right in payload.get("cmp", ())]),
            aggregates=tuple([
                _aggregate_from_payload(item, variables, constants)
                for item in payload["agg"]]) if "agg" in payload else ()))
    return queries


def from_payload(payload: dict) -> Union[EntangledQuery, Answer]:
    """Rebuild the query or answer a payload stands for (exact inverse
    of :func:`to_payload`; a query is :func:`decode_queries` of one)."""
    if payload.get("wire") != WIRE_VERSION:
        raise ParseError(
            f"payload wire version {payload.get('wire')!r} != "
            f"{WIRE_VERSION} (mixed shard revisions?)")
    kind = payload.get("kind")
    if kind == "query":
        return decode_queries([payload])[0]
    if kind == "answer":
        return Answer(
            query_id=payload["id"],
            rows={relation: [tuple(row) for row in rows]
                  for relation, rows in payload["rows"].items()},
            choices=payload["choices"])
    raise ParseError(f"unknown payload kind {kind!r}")


# ----------------------------------------------------------------------
# migration payloads (pending records crossing shard boundaries)
# ----------------------------------------------------------------------


def record_to_payload(record) -> dict:
    """Serialize one :class:`~repro.engine.engine.PendingRecord`.

    The record's working query rides as a regular query payload; the
    arrival sequence number and submission instant ride beside it, so
    the importing engine reproduces matching order and staleness as if
    the query had been submitted there originally.  The originating
    trace id, when tracing stamped one, rides as an optional ``trace``
    key — optional keys extend the record format without a wire-version
    bump: old readers ignore them, old payloads simply lack them.
    """
    payload = {"query": to_payload(record.query),
               "seq": record.arrival_seq,
               "at": record.submitted_at}
    if record.trace_id is not None:
        payload["trace"] = record.trace_id
    return payload


def record_from_payload(payload: dict):
    """Rebuild the :class:`~repro.engine.engine.PendingRecord` a
    payload stands for (exact inverse of :func:`record_to_payload`)."""
    return decode_records([payload])[0]


def decode_records(payloads) -> list:
    """:func:`record_from_payload` over a block, its queries decoded
    in one :func:`decode_queries` call."""
    from .engine.engine import PendingRecord  # avoid an import cycle
    queries = decode_queries([payload["query"] for payload in payloads])
    return [PendingRecord(query, payload["seq"], payload["at"],
                          payload.get("trace"))
            for query, payload in zip(queries, payloads)]


def id_pairs(mapping: dict) -> list:
    """A JSON-safe, deterministic rendering of a map keyed by query id.

    Query ids need not be strings, and JSON object keys must be — so
    such maps always travel as sorted ``[key, value]`` pairs, never as
    JSON objects.
    """
    return [[key, mapping[key]] for key in sorted(mapping, key=repr)]


def delta_to_payload(delta) -> dict:
    """Serialize one :class:`~repro.db.database.TableDelta`."""
    return {"table": _wire_scalar(delta.table, "table name"),
            "insert": [[_wire_scalar(value, "row value")
                        for value in row] for row in delta.inserted],
            "delete": [[_wire_scalar(value, "row value")
                        for value in row] for row in delta.deleted],
            "version": delta.version}


def delta_from_payload(payload: dict):
    """Rebuild the :class:`~repro.db.database.TableDelta` a payload
    stands for (exact inverse of :func:`delta_to_payload`)."""
    from .db.database import TableDelta  # facade import; no cycle risk
    return TableDelta(
        table=payload["table"],
        inserted=tuple(tuple(row) for row in payload["insert"]),
        deleted=tuple(tuple(row) for row in payload["delete"]),
        version=payload["version"])


def db_delta_to_payload(from_version: int, version: int,
                        deltas) -> dict:
    """Serialize one replication block of the live-mutation protocol.

    One ``db_delta`` frame carries every :class:`~repro.db.database.
    TableDelta` committed between two database versions, in commit
    order.  ``from`` names the version a replica must be at to apply
    the block and ``version`` the version it ends at, so replicas
    detect gaps (and replays of already-applied blocks) instead of
    silently diverging; ``count`` guards against truncation.
    """
    items = [delta_to_payload(delta) for delta in deltas]
    return {"wire": WIRE_VERSION,
            "kind": "db_delta",
            "from": from_version,
            "version": version,
            "count": len(items),
            "deltas": items}


def db_delta_from_payload(payload: dict) -> tuple:
    """Rebuild ``(from_version, version, deltas)`` from a ``db_delta``
    payload (exact inverse of :func:`db_delta_to_payload`)."""
    if payload.get("wire") != WIRE_VERSION:
        raise ParseError(
            f"db_delta wire version {payload.get('wire')!r} != "
            f"{WIRE_VERSION} (mixed shard revisions?)")
    if payload.get("kind") != "db_delta":
        raise ParseError(
            f"expected a db_delta payload, got {payload.get('kind')!r}")
    deltas = [delta_from_payload(item) for item in payload["deltas"]]
    if len(deltas) != payload["count"]:
        raise ParseError(
            f"db_delta block {payload['from']}->{payload['version']} "
            f"carries {len(deltas)} deltas but declares "
            f"{payload['count']}")
    return payload["from"], payload["version"], deltas


# ----------------------------------------------------------------------
# the frame envelope (write-ahead log, snapshots, server sockets)
# ----------------------------------------------------------------------

#: Envelope header: little-endian body length and CRC32 of the body
#: bytes.  The body is the UTF-8 JSON text of a payload dict, so a log
#: record and a socket frame are both the wire format plus this 8-byte
#: integrity envelope.
_FRAME_HEADER = struct.Struct("<II")

#: Default ceiling on one stream frame's JSON body (the header's
#: ``length`` field); a declared length beyond the ceiling is rejected
#: before any of the body is buffered.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class FrameError(ReproError):
    """The byte stream does not parse as envelope frames (bad CRC,
    undecodable body, non-dict payload).  Connection-fatal: there is
    no way to resynchronize a corrupt length-prefixed stream.

    :attr:`frames` carries any frames the same ``feed()`` call decoded
    *before* hitting the corruption, so a receiver can still process
    the valid prefix before rejecting and closing.
    """

    def __init__(self, message: str, frames: list | None = None):
        self.frames = frames or []
        super().__init__(message)


class FrameOversizeError(FrameError):
    """A frame header declares a body larger than the decoder's
    limit.  Raised before any body bytes are buffered."""


def frame_record(payload: dict) -> bytes:
    """Encode one payload as an envelope frame (a durable log record).

    The record is self-checking: ``<length, crc32>`` header followed by
    the JSON body.  A torn write (machine crash mid-flush) fails the
    length or CRC check and is treated as end-of-log by
    :func:`unframe_records`; a bit flip inside a record fails the CRC
    the same way, so a reader never acts on corrupt bytes.
    """
    return frame_body(compact_json(payload).encode("utf-8"))


def frame_body(body: bytes) -> bytes:
    """Wrap already-serialized JSON body bytes in the record framing.

    The journal serializes large command frames exactly once (the
    pre-execution dry run produces the body; events are spliced in
    after) and frames the bytes here instead of paying a second
    :func:`json.dumps` through :func:`frame_record`.
    """
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_frame(payload: Union[dict, str],
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """:func:`frame_record` for a stream that promised a size limit.

    *payload* is a payload dict or its already-rendered JSON text (a
    submit frame whose queries were rendered by :func:`render_query`).
    Raises :class:`FrameOversizeError` when the body exceeds
    *max_bytes* — the sender's half of the size contract, so an
    oversized reply can never poison a connection that was promised a
    limit in the welcome frame.
    """
    if not isinstance(payload, str):
        payload = compact_json(payload)
    body = payload.encode("utf-8")
    if len(body) > max_bytes:
        raise FrameOversizeError(
            f"frame body is {len(body)} bytes; the connection limit "
            f"is {max_bytes}")
    return frame_body(body)


def _scan_frames(data, max_bytes: Optional[int]
                 ) -> tuple[list[dict], int, Optional[FrameError]]:
    """The one envelope reader: decode whole frames off the front of
    *data* (``bytes`` or ``bytearray``).

    Each frame is checked in a fixed order — declared length against
    the *max_bytes* ceiling (None: no ceiling), completeness, CRC,
    UTF-8 JSON, is-a-dict — and the scan stops at the first frame that
    fails one.  Returns ``(payloads, offset, stop)``: *offset* is where
    that frame starts (``len(data)`` when everything parsed) and *stop*
    says why — None when the data simply ran out (nothing, or an
    incomplete frame, at *offset*), otherwise the unraised
    :class:`FrameError` describing the frame at *offset*.  What a stop
    *means* is the caller's policy: :func:`unframe_records` reads every
    stop as a clean end-of-log, :class:`FrameDecoder` raises every stop
    but the incomplete one.
    """
    payloads: list[dict] = []
    offset = 0
    total = len(data)
    stop: Optional[FrameError] = None
    while total - offset >= _FRAME_HEADER.size:
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        if max_bytes is not None and length > max_bytes:
            stop = FrameOversizeError(
                f"frame declares a {length}-byte body; the "
                f"connection limit is {max_bytes}")
            break
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            break
        body = data[start:end]
        if zlib.crc32(body) != crc:
            stop = FrameError(
                "frame body fails its CRC (corrupt stream)")
            break
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            stop = FrameError(f"frame body is not JSON: {error}")
            stop.__cause__ = error
            break
        if not isinstance(payload, dict):
            stop = FrameError(
                f"frame body is a {type(payload).__name__}, "
                f"not an object")
            break
        payloads.append(payload)
        offset = end
    return payloads, offset, stop


def unframe_records(data: bytes) -> tuple[list[dict], int]:
    """Decode durable log records from *data*; tolerate a torn tail.

    Returns ``(payloads, clean_length)`` where *clean_length* is the
    byte offset of the first record that is incomplete or fails its
    CRC (== ``len(data)`` when the whole buffer parses).  Everything
    before the torn point is intact — the crash-recovery contract is
    that a torn final record means "that command never happened", so
    any stop of :func:`_scan_frames` is an end-of-log, never a raise.
    """
    payloads, clean_length, _ = _scan_frames(data, None)
    return payloads, clean_length


class FrameDecoder:
    """Incremental frame decoder over an untrusted byte stream.

    ``feed(data)`` buffers *data* and returns every frame completed by
    it, in stream order.  Partial frames stay buffered across calls;
    coalesced frames all come out of one call.  Unlike a log, a stream
    has no legitimate torn state, so every :func:`_scan_frames` stop
    other than "incomplete" raises: corruption (CRC, JSON, non-dict
    payload) as :class:`FrameError`, a header declaring a body beyond
    *max_bytes* as :class:`FrameOversizeError` before the body is
    buffered.  After a raise the decoder is poisoned — length-prefixed
    streams cannot resynchronize — and every further feed raises.
    """

    __slots__ = ("max_bytes", "_buffer", "_poisoned")

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self._poisoned = False

    def __len__(self) -> int:
        """Bytes currently buffered (incomplete-frame residue)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        if self._poisoned:
            raise FrameError(
                "decoder already failed; the stream cannot recover")
        self._buffer.extend(data)
        frames, consumed, stop = _scan_frames(self._buffer,
                                              self.max_bytes)
        del self._buffer[:consumed]
        if stop is not None:
            self._poisoned = True
            stop.frames = frames
            raise stop
        return frames
