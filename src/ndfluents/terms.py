"""RDF data model: terms, triples, and immutable in-memory graphs.

Terms use term equality throughout (lexical form + datatype + language tag
for literals), never value equality. Graphs are frozen sets of triples.
Iterating a graph follows a deterministic total order, so serialization,
triple counting and diffing are stable across runs; `Graph.match` answers
from hash indexes and yields in no particular order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Collection, Iterable, Iterator


_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_BAD_IRI_CHARS = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_LANG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


@dataclass(frozen=True, order=True, slots=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not _SCHEME_RE.match(self.value):
            raise ValueError(f"IRI is not absolute (missing scheme): {self.value!r}")
        if _BAD_IRI_CHARS.search(self.value):
            raise ValueError(f"IRI contains forbidden character: {self.value!r}")

    def n3(self) -> str:
        return f"<{self.value}>"

    def local_name(self) -> str:
        """Substring after the last '#' or '/', used by suffix-style minting."""
        value = self.value
        if "#" in value:
            return value.rsplit("#", 1)[1]
        return value.rstrip("/").rsplit("/", 1)[-1]

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


@dataclass(frozen=True, order=True, slots=True)
class BlankNode:
    label: str

    def __post_init__(self) -> None:
        if not _BLANK_LABEL_RE.match(self.label):
            raise ValueError(f"invalid blank node label: {self.label!r}")

    def n3(self) -> str:
        return f"_:{self.label}"

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"


class Namespace:
    """IRI factory for one vocabulary base, rdflib-style: `RDF.type`, `OWL["Class"]`."""

    def __init__(self, base: str):
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def __getitem__(self, local: str) -> Iri:
        return Iri(self._base + local)

    def __getattr__(self, local: str) -> Iri:
        if local.startswith("_"):
            raise AttributeError(local)
        return Iri(self._base + local)

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")

RDF_TYPE = RDF.type
RDF_LANG_STRING = RDF.langString
XSD_STRING = XSD.string

_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_literal(text: str) -> str:
    return "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in text)


@dataclass(frozen=True, order=True, slots=True)
class Literal:
    """An RDF literal. A language tag forces rdf:langString; the datatype
    otherwise defaults to xsd:string."""

    lexical: str
    datatype: Iri = field(default=None)  # type: ignore[assignment]
    language: str | None = None

    def __post_init__(self) -> None:
        if self.language is not None:
            if not _LANG_RE.match(self.language):
                raise ValueError(f"invalid language tag: {self.language!r}")
            object.__setattr__(self, "datatype", RDF_LANG_STRING)
        elif self.datatype is None:
            object.__setattr__(self, "datatype", XSD_STRING)
        elif self.datatype == RDF_LANG_STRING:
            raise ValueError("rdf:langString literal requires a language tag")

    def n3(self) -> str:
        body = f'"{_escape_literal(self.lexical)}"'
        if self.language is not None:
            return f"{body}@{self.language}"
        if self.datatype == XSD_STRING:
            return body
        return f"{body}^^{self.datatype.n3()}"

    def __repr__(self) -> str:
        return f"Literal({self.n3()})"


Term = Iri | BlankNode | Literal

_CANONICAL_BLANK_RE = re.compile(r"^b([0-9]+)$")


def term_sort_key(term: Term) -> str:
    """Total ordering key for serialization. Identical to the N-Triples token
    except that canonical blank labels compare numerically (b2 before b10),
    which keeps canonical relabeling stable on graphs with many blanks."""
    if isinstance(term, BlankNode):
        m = _CANONICAL_BLANK_RE.match(term.label)
        if m:
            return f"_:0{int(m.group(1)):020d}"
        return f"_:1{term.label}"
    return term.n3()


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.predicate, Iri):
            raise ValueError(f"triple predicate must be an IRI, got {self.predicate!r}")
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise ValueError(f"triple subject must be an IRI or blank node, got {self.subject!r}")
        if not isinstance(self.object, (Iri, BlankNode, Literal)):
            raise ValueError(f"triple object must be an RDF term, got {self.object!r}")

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def sort_key(self) -> tuple[str, str, str]:
        return (term_sort_key(self.subject), self.predicate.n3(), term_sort_key(self.object))

    def __repr__(self) -> str:
        return f"Triple({self.n3()})"


# Key functions of the hash indexes, one per combination of bound positions
# short of all three; each also names its index in `Graph._indexes`.
_BY_S = attrgetter("subject")
_BY_P = attrgetter("predicate")
_BY_O = attrgetter("object")
_BY_SP = attrgetter("subject", "predicate")
_BY_SO = attrgetter("subject", "object")
_BY_PO = attrgetter("predicate", "object")


class Graph:
    """An immutable set of triples with an optional graph name.

    Set semantics: duplicates collapse, so cardinality is the count of
    distinct triples. Instances are hashable and safely shareable across
    threads; derive new graphs with `union` instead of mutating.

    Iteration follows `Triple.sort_key`. `match` and `count` answer from
    hash indexes, one per combination of bound positions, each built on
    the first call that needs it and kept for the life of the graph.
    """

    __slots__ = ("_triples", "name", "_sorted", "_indexes")

    def __init__(self, triples: Iterable[Triple] = (), name: Iri | None = None):
        self._triples = frozenset(triples)
        self.name = name
        self._sorted: tuple[Triple, ...] | None = None
        self._indexes: dict[attrgetter, dict[object, Triple | list[Triple]]] = {}

    def sorted_triples(self) -> tuple[Triple, ...]:
        """Triples in lexicographic (subject, predicate, object) order."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._triples, key=Triple.sort_key))
        return self._sorted

    def union(self, *others: "Graph | Iterable[Triple]", name: Iri | None = None) -> "Graph":
        triples = set(self._triples)
        for other in others:
            triples.update(other)
        return Graph(triples, name=name if name is not None else self.name)

    def _bucket(self, key: attrgetter, value: object) -> Collection[Triple]:
        """The triples whose positions read by `key` equal `value`."""
        index = self._indexes.get(key)
        if index is None:
            # A bucket of one triple is stored bare, which saves a list per
            # key: most keys of the two-position indexes have one triple.
            # The index is built in full before it is published, so a
            # thread that reads the graph concurrently sees either no index
            # or a complete one.
            index = {}
            for t in self._triples:
                k = key(t)
                bucket = index.get(k)
                if bucket is None:
                    index[k] = t
                elif isinstance(bucket, Triple):
                    index[k] = [bucket, t]
                else:
                    bucket.append(t)
            self._indexes[key] = index
        bucket = index.get(value, ())
        return (bucket,) if isinstance(bucket, Triple) else bucket

    def _lookup(
        self, subject: Term | None, predicate: Iri | None, obj: Term | None
    ) -> Collection[Triple]:
        """The triples equal to every non-None position, in no particular order."""
        if subject is not None:
            if predicate is not None:
                if obj is not None:
                    try:
                        triple = Triple(subject, predicate, obj)
                    except ValueError:
                        return ()
                    return (triple,) if triple in self._triples else ()
                return self._bucket(_BY_SP, (subject, predicate))
            if obj is not None:
                return self._bucket(_BY_SO, (subject, obj))
            return self._bucket(_BY_S, subject)
        if predicate is not None:
            if obj is not None:
                return self._bucket(_BY_PO, (predicate, obj))
            return self._bucket(_BY_P, predicate)
        if obj is not None:
            return self._bucket(_BY_O, obj)
        return self._triples

    def match(
        self,
        subject: Term | None = None,
        predicate: Iri | None = None,
        obj: Term | None = None,
    ) -> Iterator[Triple]:
        """All triples matching the given positions (None is a wildcard).

        With a position bound the triples come in no particular order (it
        can change between runs); with none bound, in `sorted_triples` order.
        """
        if subject is None and predicate is None and obj is None:
            return iter(self.sorted_triples())
        return iter(self._lookup(subject, predicate, obj))

    def count(
        self,
        subject: Term | None = None,
        predicate: Iri | None = None,
        obj: Term | None = None,
    ) -> int:
        """How many triples `match` yields for the same positions."""
        return len(self._lookup(subject, predicate, obj))

    def subjects(self, predicate: Iri | None = None, obj: Term | None = None) -> list[Term]:
        return sorted({t.subject for t in self.match(None, predicate, obj)}, key=lambda x: x.n3())

    def objects(self, subject: Term | None = None, predicate: Iri | None = None) -> list[Term]:
        return sorted({t.object for t in self.match(subject, predicate, None)}, key=lambda x: x.n3())

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.sorted_triples())

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples and self.name == other.name

    def __hash__(self) -> int:
        return hash((self._triples, self.name))

    def __repr__(self) -> str:
        label = f" name={self.name.value!r}" if self.name else ""
        return f"<Graph{label} ({len(self)} triples)>"
