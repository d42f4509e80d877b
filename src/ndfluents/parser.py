"""Parsers for N-Triples, N-Quads and a Turtle subset, and a line reader
(`_Parser.read_line`) for their terms plus `?name` variables, one line at a
time.

The Turtle subset covers what the generated ontologies and fixtures need:
`@prefix` / `@base` directives, prefixed names (letters and digits of any
script, `_`, `-` and `.`), `<...>` IRIs, `a`, labeled blank nodes, string
literals with `^^datatype` / `@lang`, integers and decimals, and `;` / `,`
predicate/object lists, where `;` may repeat and may end the list
(`ex:s ex:p ex:o ;; ex:q ex:r ; .`). No collections, no anonymous `[]`
nodes, no doubles or booleans, no escapes in local names, no quoted triples.

One tokenizer and one statement walker serve all of them. The tokenizer is
one regex with a single capture group, run over the whole document with
`findall`: it skips whitespace and `#` comments and captures one whole
token, so an IRI, a string literal or a prefixed name is one string, and a
document becomes a list of strings that ends with an empty one. The walker
reads that list by index and tells a token's kind from its first
characters. Each distinct IRI, prefixed name, blank node label and number of
a document is resolved and validated once, into a dict from token text to
term, so a repeat costs one lookup; `@prefix` and `@base` empty the dict,
since they change what a token means. Escapes are decoded only in a token
that holds a backslash.

A token carries no position. When a `ParseError` is raised, the regex is
run again with `finditer` up to the failing token to find its offset, and
the line and column are worked out from that (only "\\n" starts a line;
"\\r" and tab count as one column each). When an IRI or a string literal is
malformed, its regex stops at the first character it cannot read, and the
error names that character's position, the escape's backslash, or the
token's start for an unterminated one.

Blank node labels are relabeled canonically (`_:b0`, `_:b1`, ... in first
occurrence order) at parse time so round-trips are deterministic.
"""

from __future__ import annotations

import re
from itertools import islice
from urllib.parse import urljoin

from .terms import (
    RDF_TYPE, XSD, XSD_STRING, BlankNode, Graph, InputError, Iri, Literal, Term, Triple, _collector_paused, _unchecked_triple,
    _LANG_RE, _SCHEME_RE,
)


class ParseError(InputError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class RelativeIriError(ParseError):
    """A relative IRI reference was found and no base IRI is in effect."""


NTRIPLES = "ntriples"
NQUADS = "nquads"
TURTLE = "turtle"

_FORMAT_ALIASES = {
    "ntriples": NTRIPLES, "nt": NTRIPLES,
    "nquads": NQUADS, "nq": NQUADS,
    "turtle": TURTLE, "ttl": TURTLE,
}


def normalize_format(fmt: str) -> str:
    try:
        return _FORMAT_ALIASES[fmt.lower()]
    except KeyError:
        raise InputError(f"unknown RDF format: {fmt!r} (expected ntriples, nquads, or turtle)")


# --- escapes ---------------------------------------------------------------

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# A \U escape beyond U+10FFFF does not match, so it reads as malformed.
_UCHAR = r"u[0-9A-Fa-f]{4}|U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4}"
_ECHAR = r"[tbnrf\"'\\]"
_ESCAPE_RE = re.compile(rf"\\({_UCHAR}|{_ECHAR}|[uU]|.?)", re.DOTALL)


def _decode_escape(m: re.Match) -> str:
    code = m.group(1)
    if len(code) > 1:
        return chr(int(code[1:], 16))
    if code in _ESCAPES:
        return _ESCAPES[code]
    reason = "malformed \\u escape" if code in ("u", "U") else f"unsupported escape \\{code}"
    raise ValueError(reason)


def _unescape(body: str) -> str:
    r"""Decode the escapes of a quoted literal or IRI body: `\t \b \n \r \f
    \" \' \\`, `\uXXXX` and `\UXXXXXXXX`. Raises `ValueError` naming the
    first malformed one."""
    return _ESCAPE_RE.sub(_decode_escape, body) if "\\" in body else body


# --- tokenizer -------------------------------------------------------------

# Token kinds, as error messages name them.
IRIREF = "IRIREF"
PNAME = "PNAME"
BLANK = "BLANK"
STRING = "STRING"
LANGTAG = "LANGTAG"
VAR = "VAR"
NUMBER = "NUMBER"
DOT = "."
KW_A = "a"
PREFIX_DIRECTIVE = "@prefix"
BASE_DIRECTIVE = "@base"
EOF = "EOF"

# A name character: `\w` (a letter or digit of any script, or `_`), `.` or
# `-`. The ASCII ones, listed first, match by a faster table lookup.
_PN = r"[A-Za-z0-9_.\w-]"
_IRI_CHAR = r'[^\n\r "<>{}|^`\\]'
_STRING_CHAR = r'[^"\\\n\r]'
# An IRI or a string literal up to its closing delimiter, which is left out.
_IRI = rf"<{_IRI_CHAR}*(?:\\(?:{_UCHAR}){_IRI_CHAR}*)*"
_STRING = rf"\"{_STRING_CHAR}*(?:\\(?:{_ECHAR}|{_UCHAR}){_STRING_CHAR}*)*"
_NUMBER = r"[+-]?[0-9]*\.?[0-9]+"
# Skips whitespace and comments, then captures one token. An IRI or a string
# always matches: the regex stops at the first character it cannot read, and
# a missing closing delimiter marks the token as malformed. The last two
# alternatives catch any other character and the end of the text, so a
# match never fails, each starts where the last one ended, and the last
# token of a document is the empty string.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*("
    rf"{_IRI}>?"
    rf"|{_STRING}\"?"
    rf"|_:{_PN}*(?<!\.)"
    r"|@(?:[^\W_]|-)*"
    r"|\^\^|[.;,]"
    rf"|{_PN}*:{_PN}*(?<!\.)"
    r"|\?[A-Za-z_][A-Za-z0-9_]*"
    rf"|{_NUMBER}"
    rf"|{_PN}+"
    r"|."
    r"|\Z)",
    re.DOTALL,
)
_CLOSED_STRING_RE = re.compile(rf"{_STRING}\"")
_NUMBER_RE = re.compile(_NUMBER)
_PN_RE = re.compile(_PN)
_PUNCTUATION = ("^^", ".", ";", ",")


def _kind(token: str) -> str | None:
    """The kind of a token, told from its first characters; None if the
    token is malformed."""
    if not token:
        return EOF
    first = token[0]
    if first == "<":
        return IRIREF if token[-1] == ">" else None
    if first == '"':
        return STRING if _CLOSED_STRING_RE.fullmatch(token) else None
    if first == "@":
        return token if token in (PREFIX_DIRECTIVE, BASE_DIRECTIVE) else LANGTAG
    if token in _PUNCTUATION:
        return token
    if token.startswith("_:"):
        return BLANK if len(token) > 2 else None
    if first == "?":
        return VAR if len(token) > 1 else None
    if ":" in token:
        return PNAME
    if token == KW_A:
        return KW_A
    return NUMBER if _NUMBER_RE.fullmatch(token) else None


def _describe(token: str) -> tuple[str, str]:
    """A token's kind and value, as error messages name them: an IRI or a
    string decoded, a prefixed name's local part, and so on."""
    kind = _kind(token)
    if kind == IRIREF or kind == STRING:
        return kind, _unescape(token[1:-1])
    if kind == PNAME:
        return kind, token.partition(":")[2]
    if kind == BLANK:
        return kind, token[2:]
    if kind == LANGTAG or kind == VAR:
        return kind, token[1:]
    return kind, token


def _error(text: str, reason: str, offset: int, cls: type[ParseError] = ParseError) -> ParseError:
    """`reason` at the 1-based line and column of `offset`."""
    return cls(reason, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _malformed(text: str, start: int, stop: int, what: str) -> ParseError:
    """The fault in the IRI or string literal opened at `start`, whose regex
    stopped at `stop`."""
    if stop == len(text):
        return _error(text, f"unterminated {what}", start)
    ch = text[stop]
    if ch in "\n\r":
        return _error(text, f"newline inside {what}", stop)
    if ch == "\\":
        try:
            _decode_escape(_ESCAPE_RE.match(text, stop))
        except ValueError as exc:
            return _error(text, str(exc), stop)
        # a string literal's escape, which an IRI does not allow
        return _error(text, f"unsupported escape {text[stop:stop + 2]}", stop)
    return _error(text, f"forbidden character {ch!r} in IRI", stop)


# --- parser ----------------------------------------------------------------

_XSD_INTEGER, _XSD_DECIMAL = XSD.integer, XSD.decimal
_POSITIONS = ("subject", "predicate", "object")


class _Parser:
    """The statement walker. Strict mode (N-Triples/N-Quads) disallows
    directives, prefixed names, `a`, numbers, `;`/`,` lists, and relative
    IRIs.

    `start` tokenizes a document into `tokens`; the walker reads them by
    index. `terms` maps the text of each IRI, prefixed name, blank node or
    number token read so far to its term."""

    def __init__(self, *, strict: bool, quads: bool, base: str | None = None):
        self.strict = strict
        self.quads = quads
        self.base = base
        self.prefixes: dict[str, str] = {}
        self.graphs: dict[Iri | None, set[Triple]] = {}
        self._blank_map: dict[str, BlankNode] = {}

    def start(self, text: str) -> None:
        self.text = text
        self.tokens: list[str] = _TOKEN_RE.findall(text)
        self.terms: dict[str, Term] = {}

    # Errors. Tokens carry no offset: the regex is run again up to the
    # failing token. A malformed token is reported as soon as the walker
    # reaches it, and a fault that shows only once a term's tokens are read
    # (a relative IRI, a literal subject) yields to a malformed token right
    # after them, so errors come in reading order with one token lookahead.

    def _offset(self, i: int) -> int:
        return next(islice(_TOKEN_RE.finditer(self.text), i, None)).start(1)

    def _malformed_token(self, i: int) -> ParseError | None:
        token = self.tokens[i]
        if _kind(token) is not None:
            return None
        text, start = self.text, self._offset(i)
        if token[0] == "<":
            return _malformed(text, start, start + len(token), "IRI")
        if token[0] == '"':
            return _malformed(text, start, start + len(token), "string literal")
        if token == "_:":
            return _error(text, "empty blank node label", start)
        if _PN_RE.match(token):
            return _error(text, f"expected ':' in prefixed name, got {token!r}", start)
        return _error(text, f"unexpected character {token!r}", start)

    def _fail(self, reason: str, at: int, read: int | None = None, cls: type[ParseError] = ParseError) -> ParseError:
        """`reason` at token `at`, unless the last token read, `read`
        (default `at`), is malformed."""
        malformed = self._malformed_token(at if read is None else read)
        return malformed or _error(self.text, reason, self._offset(at), cls)

    def _expected(self, what: str, i: int) -> ParseError:
        kind, value = _describe(self.tokens[i])
        return self._fail(f"expected {what}, got {kind} {value!r}", i)

    # Terms.

    def _resolve_iri(self, ref: str, i: int) -> Iri:
        # Most references are absolute: build first, and resolve against the
        # base only what `Iri` rejects for want of a scheme.
        try:
            return Iri(ref)
        except ValueError as exc:
            if _SCHEME_RE.match(ref):
                raise self._fail(str(exc), i, i + 1)
        if self.base is None:
            raise self._fail(f"relative IRI {ref!r} with no base", i, i + 1, RelativeIriError)
        try:
            return Iri(urljoin(self.base, ref))
        except ValueError as exc:
            raise self._fail(str(exc), i, i + 1)

    def _blank_node(self, label: str) -> BlankNode:
        node = self._blank_map.get(label)
        if node is None:
            node = BlankNode(f"b{len(self._blank_map)}")
            self._blank_map[label] = node
        return node

    def _term(self, i: int, position: str) -> tuple[Term, int]:
        """The term whose tokens start at token `i`, and the index of the
        token after them."""
        token = self.tokens[i]
        term = self.terms.get(token)
        if term is not None:
            return term, i + 1
        kind = _kind(token)
        if kind == IRIREF:
            term = self._resolve_iri(_unescape(token[1:-1]), i)
        elif kind == BLANK:
            term = self._blank_node(token[2:])
        elif kind == STRING:
            return self._literal(i)
        elif kind == PNAME:
            if self.strict:
                raise self._fail("prefixed names are not allowed in this format", i)
            prefix, _, local = token.partition(":")
            ns = self.prefixes.get(prefix)
            if ns is None:
                raise self._fail(f"undefined prefix {prefix + ':'!r}", i)
            term = self._resolve_iri(ns + local, i)
        elif kind == NUMBER and not self.strict:
            term = Literal(token, datatype=_XSD_DECIMAL if "." in token else _XSD_INTEGER)
        elif kind == KW_A and not self.strict and position == "predicate":
            return RDF_TYPE, i + 1
        else:
            raise self._expected(f"{position} term", i)
        self.terms[token] = term
        return term, i + 1

    def _literal(self, i: int) -> tuple[Literal, int]:
        tokens = self.tokens
        lexical = _unescape(tokens[i][1:-1])
        after = tokens[i + 1]
        if after[:1] == "@" and after not in (PREFIX_DIRECTIVE, BASE_DIRECTIVE):
            if not _LANG_RE.match(after[1:]):
                raise self._fail(f"malformed language tag {after}", i + 1)
            return Literal(lexical, language=after[1:]), i + 2
        if after != "^^":
            return Literal(lexical, datatype=XSD_STRING), i + 1
        at = i + 2
        kind = _kind(tokens[at])
        if kind != IRIREF and (kind != PNAME or self.strict):
            raise self._fail("expected datatype IRI after ^^", at)
        datatype, end = self._term(at, "datatype")
        try:
            return Literal(lexical, datatype=datatype), end
        except ValueError as exc:
            raise self._fail(str(exc), at, end)

    # Statements.

    def _directive(self, i: int) -> int:
        """Reads the directive at token `i`; returns the index after it."""
        tokens = self.tokens
        at = i + 1
        if tokens[i] == PREFIX_DIRECTIVE:
            name = tokens[at]
            if _kind(name) != PNAME:
                raise self._expected(PNAME, at)
            if not name.endswith(":"):
                raise self._fail("expected bare prefix (e.g. ex:) in @prefix", at, at + 1)
            at += 1
        if _kind(tokens[at]) != IRIREF:
            raise self._expected(IRIREF, at)
        value = self._resolve_iri(_unescape(tokens[at][1:-1]), at).value
        if tokens[i] == PREFIX_DIRECTIVE:
            self.prefixes[name[:-1]] = value
        else:
            self.base = value
        # A prefixed name or a relative IRI may now mean another term.
        self.terms.clear()
        if tokens[at + 1] != DOT:
            raise self._expected(DOT, at + 1)
        return at + 2

    def run(self, text: str) -> dict[Iri | None, set[Triple]]:
        """The triples of `text` by graph name; `None` names the default graph."""
        self.start(text)
        tokens, get = self.tokens, self.terms.get
        strict, quads, graphs = self.strict, self.quads, self.graphs
        default = graphs.setdefault(None, set())
        add = default.add
        i = 0
        while tokens[i]:
            token = tokens[i]
            if token == PREFIX_DIRECTIVE or token == BASE_DIRECTIVE:
                if strict:
                    raise self._fail("directives are not allowed in this format", i)
                i = self._directive(i)
                continue
            subject = get(token)
            if subject is None or subject.__class__ is Literal:
                subject, end = self._term(i, "subject")
                if subject.__class__ is Literal:
                    raise self._fail("subject must not be a literal", i, end)
                i = end
            else:
                i += 1
            while True:
                token = tokens[i]
                predicate = get(token)
                if predicate.__class__ is Iri:
                    i += 1
                elif token == KW_A and not strict:
                    predicate = RDF_TYPE
                    i += 1
                else:
                    predicate, end = self._term(i, "predicate")
                    if predicate.__class__ is not Iri:
                        raise self._fail("predicate must be an IRI", i, end)
                    i = end
                while True:
                    obj = get(tokens[i])
                    if obj is None:
                        obj, i = self._term(i, "object")
                    else:
                        i += 1
                    token = tokens[i]
                    if quads and token != DOT:
                        name, end = self._term(i, "graph label")
                        if name.__class__ is not Iri:
                            raise self._fail("graph label must be an IRI", i, end)
                        graphs.setdefault(name, set()).add(_unchecked_triple((subject, predicate, obj)))
                        i = end
                        break
                    add(_unchecked_triple((subject, predicate, obj)))
                    if token != "," or strict:
                        break
                    i += 1
                if tokens[i] != ";" or strict:
                    break
                # `;` may repeat, and may end the list.
                i += 1
                while tokens[i] == ";":
                    i += 1
                if tokens[i] == DOT:
                    break
            if tokens[i] != DOT:
                raise self._expected(DOT, i)
            i += 1
        if not default:
            del graphs[None]
        return graphs

    def read_line(self, line: str) -> list[Term | str]:
        """The terms of `line` up to an optional final `.`, a variable as its
        name; `a` reads as rdf:type in the second position only. Raises
        `ParseError` at a position in `line`. A line-oriented file, such as
        a pattern file, is read one line at a time by one parser, whose
        `prefixes` hold for the whole file."""
        self.start(line)
        tokens = self.tokens
        terms: list[Term | str] = []
        i = 0
        while tokens[i] and tokens[i] != DOT:
            if _kind(tokens[i]) == VAR:
                terms.append(tokens[i][1:])
                i += 1
            else:
                term, i = self._term(i, _POSITIONS[min(len(terms), 2)])
                terms.append(term)
        if tokens[i] == DOT and tokens[i + 1]:
            raise self._expected("end of line", i + 1)
        return terms


def _decode(document: str | bytes) -> str:
    if isinstance(document, bytes):
        try:
            return document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc.reason}", 1, 1)
    return document


@_collector_paused
def parse_ntriples(document: str | bytes) -> Graph:
    return Graph(_Parser(strict=True, quads=False).run(_decode(document)).get(None, ()))


@_collector_paused
def parse_nquads(document: str | bytes) -> list[Graph]:
    """Parse N-Quads into one Graph per graph label (default graph first)."""
    by_name = _Parser(strict=True, quads=True).run(_decode(document))
    names = sorted(by_name, key=lambda n: ("" if n is None else n.value))
    return [Graph(by_name[name], name=name) for name in names]


@_collector_paused
def parse_turtle(document: str | bytes, base: str | None = None) -> Graph:
    return Graph(_Parser(strict=False, quads=False, base=base).run(_decode(document)).get(None, ()))


def parse(document: str | bytes, fmt: str, base: str | None = None) -> Graph | list[Graph]:
    """Parse a document in the named format.

    Returns a Graph, or a list of named Graphs for N-Quads.
    """
    fmt = normalize_format(fmt)
    if fmt == NTRIPLES:
        return parse_ntriples(document)
    if fmt == NQUADS:
        return parse_nquads(document)
    return parse_turtle(document, base=base)
