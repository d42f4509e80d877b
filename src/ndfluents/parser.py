"""Parsers for N-Triples, N-Quads and a Turtle subset, and `TermReader`,
which reads their terms plus `?name` variables one line at a time.

The Turtle subset covers what the generated ontologies and fixtures need:
`@prefix` / `@base` directives, prefixed names (letters and digits of any
script, `_`, `-` and `.`), `<...>` IRIs, `a`, labeled blank nodes, string
literals with `^^datatype` / `@lang`, integers and decimals, and `;` / `,`
predicate/object lists. No collections, no anonymous `[]` nodes, no doubles
or booleans, no escapes in local names, no quoted triples.

One tokenizer serves all of them. A compiled regex, matched at the
current offset, skips whitespace and `#` comments and reads one whole token:
an IRI, a string literal or a prefixed name is a single match, and escapes
are decoded only in a span that holds a backslash. A token records the
offset it starts at, not a line and column: those are worked out from the
offset only when a `ParseError` is raised (only "\\n" starts a line; "\\r"
and tab count as one column each). When an IRI or a string literal is
malformed, its regex stops at the first character it cannot read, and the
error names that character's position, the escape's backslash, or the
token's start for an unterminated one.

Blank node labels are relabeled canonically (`_:b0`, `_:b1`, ... in first
occurrence order) at parse time so round-trips are deterministic.
"""

from __future__ import annotations

import re
from typing import Iterator
from urllib.parse import urljoin

from .terms import RDF_TYPE, XSD, XSD_STRING, BlankNode, Graph, Iri, Literal, Term, Triple


class ParseError(ValueError):
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
        raise ValueError(f"unknown RDF format: {fmt!r} (expected ntriples, nquads, or turtle)")


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

# A token is (kind, value, offset of its first character, prefix of a PNAME).
Token = tuple[str, str, int, str]

# A name character: `\w` (a letter or digit of any script, or `_`), `.` or
# `-`. The ASCII ones, listed first, match by a faster table lookup.
_PN = r"[A-Za-z0-9_.\w-]"
_IRI_CHAR = r'[^\n\r "<>{}|^`\\]'
_STRING_CHAR = r'[^"\\\n\r]'
# Skips whitespace and comments, then reads one token. An IRI or a string
# always matches: the regex stops at the first character it cannot read, and
# a missing closing delimiter marks the token as malformed. The last two
# alternatives catch any other character and the end of the text, so a
# match never fails and never backtracks into the skipped text.
_TOKEN_RE = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|#[^\n]*)*)(?:"
    rf"<(?P<iri>{_IRI_CHAR}*(?:\\(?:{_UCHAR}){_IRI_CHAR}*)*)(?P<iri_end>>?)"
    rf"|\"(?P<string>{_STRING_CHAR}*(?:\\(?:{_ECHAR}|{_UCHAR}){_STRING_CHAR}*)*)(?P<string_end>\"?)"
    rf"|_:(?P<blank>{_PN}*(?<!\.))"
    r"|@(?P<at>(?:[^\W_]|-)*)"
    r"|(?P<punct>\^\^|[.;,])"
    rf"|(?P<prefix>{_PN}*):(?P<local>{_PN}*(?<!\.))"
    r"|\?(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[+-]?[0-9]*\.?[0-9]+)"
    rf"|(?P<word>{_PN}+)"
    r"|(?P<other>.)"
    r"|\Z)",
    re.DOTALL,
)


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


def _tokens(text: str) -> Iterator[Token]:
    match = _TOKEN_RE.match
    pos = 0
    while True:
        m = match(text, pos)
        pos = m.end()
        start = m.end("skip")
        kind = m.lastgroup
        if kind == "iri_end":
            if pos == m.end("iri"):
                raise _malformed(text, start, pos, "IRI")
            yield IRIREF, _unescape(m.group("iri")), start, ""
        elif kind == "local":
            yield PNAME, m.group("local"), start, m.group("prefix")
        elif kind == "punct":
            value = m.group("punct")
            yield value, value, start, ""
        elif kind == "string_end":
            if pos == m.end("string"):
                raise _malformed(text, start, pos, "string literal")
            yield STRING, _unescape(m.group("string")), start, ""
        elif kind == "blank":
            if pos == start + 2:
                raise _error(text, "empty blank node label", start)
            yield BLANK, m.group("blank"), start, ""
        elif kind == "at":
            word = m.group("at")
            if word in ("prefix", "base"):
                yield "@" + word, "@" + word, start, ""
            else:
                yield LANGTAG, word, start, ""
        elif kind == "word":
            if m.group("word") != "a":
                raise _error(text, f"expected ':' in prefixed name, got {m.group('word')!r}", start)
            yield KW_A, "a", start, ""
        elif kind == "var":
            yield VAR, m.group("var"), start, ""
        elif kind == "number":
            yield NUMBER, m.group("number"), start, ""
        elif kind == "other":
            raise _error(text, f"unexpected character {m.group('other')!r}", start)
        else:
            yield EOF, "", start, ""
            return


# --- parser ----------------------------------------------------------------

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_LANGTAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
_XSD_INTEGER, _XSD_DECIMAL = XSD.integer, XSD.decimal


class _Parser:
    """Shared statement parser. Strict mode (N-Triples/N-Quads) disallows
    directives, prefixed names, `a`, `;`/`,` lists, and relative IRIs."""

    def __init__(self, *, strict: bool, quads: bool, base: str | None = None):
        self.strict = strict
        self.quads = quads
        self.base = base
        self.prefixes: dict[str, str] = {}
        self.graphs: dict[Iri | None, set[Triple]] = {}
        self._blank_map: dict[str, BlankNode] = {}

    def start(self, text: str) -> None:
        """Read `text` from its first token on."""
        self.text = text
        self._next_token = _tokens(text).__next__
        self.token = self._next_token()

    def _advance(self) -> None:
        self.token = self._next_token()

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        return _error(self.text, message, (token or self.token)[2])

    def _expect(self, kind: str) -> Token:
        tok = self.token
        if tok[0] != kind:
            raise self._error(f"expected {kind}, got {tok[0]} {tok[1]!r}")
        self._advance()
        return tok

    def _resolve_iri(self, ref: str, offset: int) -> Iri:
        # Most references are absolute and already interned: build first,
        # and resolve against the base only what `Iri` rejects for want of
        # a scheme.
        try:
            return Iri(ref)
        except ValueError as exc:
            if _SCHEME_RE.match(ref):
                raise _error(self.text, str(exc), offset)
        if self.base is None:
            raise _error(self.text, f"relative IRI {ref!r} with no base", offset, RelativeIriError)
        try:
            return Iri(urljoin(self.base, ref))
        except ValueError as exc:
            raise _error(self.text, str(exc), offset)

    def _blank_node(self, label: str) -> BlankNode:
        node = self._blank_map.get(label)
        if node is None:
            node = BlankNode(f"b{len(self._blank_map)}")
            self._blank_map[label] = node
        return node

    def _term(self, position: str) -> Term:
        kind, value, offset, prefix = self.token
        if kind == IRIREF:
            self._advance()
            return self._resolve_iri(value, offset)
        if kind == BLANK:
            self._advance()
            return self._blank_node(value)
        if kind == PNAME:
            if self.strict:
                raise self._error("prefixed names are not allowed in this format")
            ns = self.prefixes.get(prefix)
            if ns is None:
                raise self._error(f"undefined prefix {prefix + ':'!r}")
            self._advance()
            return self._resolve_iri(ns + value, offset)
        if kind == STRING:
            self._advance()
            if self.token[0] == LANGTAG:
                lang = self.token[1]
                if not _LANGTAG_RE.match(lang):
                    raise self._error(f"malformed language tag @{lang}")
                self._advance()
                return Literal(value, language=lang)
            if self.token[0] == "^^":
                self._advance()
                dt_tok = self.token
                if dt_tok[0] == IRIREF or (dt_tok[0] == PNAME and not self.strict):
                    datatype = self._term("datatype")
                else:
                    raise self._error("expected datatype IRI after ^^")
                try:
                    return Literal(value, datatype=datatype)
                except ValueError as exc:
                    raise self._error(str(exc), dt_tok)
            return Literal(value, datatype=XSD_STRING)
        if kind == KW_A and not self.strict and position == "predicate":
            self._advance()
            return RDF_TYPE
        if kind == NUMBER and not self.strict:
            self._advance()
            return Literal(value, datatype=_XSD_DECIMAL if "." in value else _XSD_INTEGER)
        raise self._error(f"expected {position} term, got {kind} {value!r}")

    def _directive(self) -> None:
        directive = self.token[0]
        self._advance()
        if directive == PREFIX_DIRECTIVE:
            name_tok = self._expect(PNAME)
            if name_tok[1]:
                raise self._error("expected bare prefix (e.g. ex:) in @prefix", name_tok)
            iri_tok = self._expect(IRIREF)
            self.prefixes[name_tok[3]] = self._resolve_iri(iri_tok[1], iri_tok[2]).value
        else:
            iri_tok = self._expect(IRIREF)
            self.base = self._resolve_iri(iri_tok[1], iri_tok[2]).value
        self._expect(DOT)

    def _statement(self) -> None:
        subj_tok = self.token
        subject = self._term("subject")
        if isinstance(subject, Literal):
            raise self._error("subject must not be a literal", subj_tok)
        pairs: list[tuple[Iri, Term]] = []
        while True:
            pred_tok = self.token
            predicate = self._term("predicate")
            if not isinstance(predicate, Iri):
                raise self._error("predicate must be an IRI", pred_tok)
            while True:
                pairs.append((predicate, self._term("object")))
                if not self.strict and self.token[0] == ",":
                    self._advance()
                    continue
                break
            if not self.strict and self.token[0] == ";":
                self._advance()
                if self.token[0] == DOT:  # trailing semicolon
                    break
                continue
            break
        graph_name: Iri | None = None
        if self.quads and self.token[0] != DOT:
            g_tok = self.token
            graph_name = self._term("graph label")
            if not isinstance(graph_name, Iri):
                raise self._error("graph label must be an IRI", g_tok)
        self._expect(DOT)
        triples = self.graphs.setdefault(graph_name, set())
        for predicate, obj in pairs:
            triples.add(Triple(subject, predicate, obj))

    def run(self, text: str) -> dict[Iri | None, set[Triple]]:
        """The triples of `text` by graph name; `None` names the default graph."""
        self.start(text)
        while self.token[0] != EOF:
            if self.token[0] in (PREFIX_DIRECTIVE, BASE_DIRECTIVE):
                if self.strict:
                    raise self._error("directives are not allowed in this format")
                self._directive()
            else:
                self._statement()
        return self.graphs


_POSITIONS = ("subject", "predicate", "object")


class TermReader:
    """Reads the terms of a line-oriented file, such as a pattern file, one
    line at a time. Its `prefixes` map (name to namespace IRI) holds for the
    whole file, and each distinct IRI of the file becomes one object."""

    def __init__(self) -> None:
        self._parser = _Parser(strict=False, quads=False)
        self.prefixes = self._parser.prefixes

    def read(self, line: str) -> list[Term | str]:
        """The terms of `line` up to an optional final `.`, a variable as its
        name; `a` reads as rdf:type in the second position only. Raises
        `ParseError` at a position in `line`."""
        parser = self._parser
        parser.start(line)
        terms: list[Term | str] = []
        while parser.token[0] not in (DOT, EOF):
            if parser.token[0] == VAR:
                terms.append(parser.token[1])
                parser._advance()
            else:
                terms.append(parser._term(_POSITIONS[min(len(terms), 2)]))
        if parser.token[0] == DOT:
            parser._advance()
            if parser.token[0] != EOF:
                kind, value = parser.token[:2]
                raise parser._error(f"expected end of line, got {kind} {value!r}")
        return terms


def _decode(document: str | bytes) -> str:
    if isinstance(document, bytes):
        try:
            return document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc.reason}", 1, 1)
    return document


def parse_ntriples(document: str | bytes) -> Graph:
    return Graph(_Parser(strict=True, quads=False).run(_decode(document)).get(None, ()))


def parse_nquads(document: str | bytes) -> list[Graph]:
    """Parse N-Quads into one Graph per graph label (default graph first)."""
    by_name = _Parser(strict=True, quads=True).run(_decode(document))
    names = sorted(by_name, key=lambda n: ("" if n is None else n.value))
    return [Graph(by_name[name], name=name) for name in names]


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
