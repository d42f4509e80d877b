"""RDF data model: terms, triples, and immutable in-memory graphs.

Terms are hash-consed: `Iri`, `BlankNode` and `Literal` are built through
one process-wide intern table, so two equal terms (same kind and value; for
a literal the lexical form, datatype and language tag after the datatype
defaults apply) are the same object. Term equality is therefore identity,
and a term's hash and equality are `object`'s, which run in C. Each term
computes its N-Triples token and sort key once, when it is created, and is
validated only then. The table is module state on purpose: one table per
process is what makes identity mean equality. It is a plain dict from a
term's key to a `weakref.ref` of the term, so it keeps alive no term that
nothing else holds. Each reference's callback deletes its entry when the
term dies, with `_weakref._remove_dead_weakref`, the atomic removal that
`weakref.WeakValueDictionary` uses: it deletes the entry only if it still
holds a dead reference, so it never drops the entry of a newer term with
the same key. The table takes a lock on a miss, so two threads that build
the same term at once get one object. The bulk stages (parsing,
(de)contextualizing, canonicalizing, serializing, `saturate`, `validate`,
`cli.main`) pause automatic collection: their data holds no reference cycle.

A `Triple` is a tuple `(subject, predicate, object)` that checks its
positions when built; it compares and hashes as that tuple, so it also
equals a plain tuple of the same three terms. Code that has already
checked the positions (the parser, `contextualize`, `decontextualize`,
`read_statements_csv`, and `InferenceResult`'s graphs of the reasoner's
rule products) builds through `_unchecked_triple` instead.
Graphs are frozen sets of triples. Iterating a graph follows a
deterministic total order, so serialization, triple counting and diffing
are stable across runs. Lookups answer from hash indexes, one per set of
bound positions short of all three, and yield in no particular order.
`Graph._index` is the one accessor of an index: it builds the index on
first need and publishes it only when complete. Every bucket is a list of
the matching triples, so a reader takes a missing key as `get(key, ())`.
`Graph.match` cuts its lookup key with the index's own key function from
`_INDEX_KEYS`, and `Graph.count` counts what it yields. Readers that look
up once per node or per join row skip `match`'s calls and read the indexes
through the accessor directly: the query engine's joins and
`context_slice` (`query.py`), and `PatternVocabulary.levels` and
`attributed`, through which `validate` and `decontextualize` read parts.
`saturate` takes its first round's triples by predicate from the P index.
"""

from __future__ import annotations

import gc
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections import namedtuple
from functools import partial, total_ordering, wraps
from operator import itemgetter
from typing import Callable, Iterable, Iterator


# An absolute IRI: a scheme, then none of the characters `Iri` forbids.
_ABSOLUTE_IRI = r'[A-Za-z][A-Za-z0-9+.-]*:[^\x00-\x20<>"{}|^`\\]*'
_IRI_RE = re.compile(_ABSOLUTE_IRI + r"\Z")
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_LANG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_CANONICAL_BLANK_RE = re.compile(r"^b([0-9]+)$")

# The intern table (see the module docstring). The shape of a key gives the
# kind: an IRI's value (a str), a blank node's `(label,)`, a literal's
# `(lexical, datatype, language)`. A hit reads the dict without the lock; a
# miss takes the lock, looks again, and only then validates and builds the
# term.
_REFS: dict[object, weakref.ref] = {}
_LOCK = threading.Lock()
_PAUSE_LOCK = threading.Lock()
_pause = [0, False]  # process-wide, as the collector is: [paused calls running, collection was on]
_set = object.__setattr__


def _release(key: object, ref: weakref.ref, refs: dict = _REFS, remove=_remove_dead_weakref) -> None:
    # The table and the removal are bound as defaults, as in
    # `WeakValueDictionary`, so a term that dies at interpreter shutdown
    # does not look up module globals that may be gone.
    remove(refs, key)


def _intern(cls: type, key: object, *fields: object) -> "Term":
    with _LOCK:
        ref = _REFS.get(key)
        term = ref() if ref is not None else None
        if term is None:
            term = object.__new__(cls)
            term._build(*fields)
            _REFS[key] = weakref.ref(term, partial(_release, key))
    return term


def _collector_paused(function: Callable) -> Callable:
    """Run `function` with automatic cyclic collection off. The first paused
    call in, of any thread, records whether it was on; the last out, by return
    or raise, turns it back on if it was. Never wrap a generator or a function
    that returns a lazy iterator: the pause would end before its work."""
    @wraps(function)
    def paused(*args, **kwargs):
        with _PAUSE_LOCK:
            if not _pause[0]:
                _pause[1] = gc.isenabled()
                gc.disable()
            _pause[0] += 1
        try:
            return function(*args, **kwargs)
        finally:
            with _PAUSE_LOCK:
                _pause[0] -= 1
                if not _pause[0] and _pause[1]:
                    gc.enable()
    return paused


class InputError(ValueError):
    """Refused input, named in the message: the base of every input error, and all that `cli.main` exits 2 on."""


@total_ordering
class _Term:
    """What the three term kinds share: the token and sort key computed at
    creation, immutability, ordering within a kind, and pickling and copying
    that give back the interned object. Each kind defines `_build`, which
    validates and sets its slots on a table miss, and `_fields`, its
    constructor's arguments."""

    __slots__ = ("_token", "_key", "__weakref__")

    def n3(self) -> str:
        return self._token

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __lt__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() < other._fields()


class Iri(_Term):
    """An absolute IRI."""

    __slots__ = ("value",)
    value: str

    def __new__(cls, value: str) -> Iri:
        ref = _REFS.get(value)
        term = ref() if ref is not None else None
        return term if term is not None else _intern(cls, value, value)

    def _build(self, value: str) -> None:
        if not _IRI_RE.match(value):
            if not _SCHEME_RE.match(value):
                raise ValueError(f"IRI is not absolute (missing scheme): {value!r}")
            raise ValueError(f"IRI contains forbidden character: {value!r}")
        token = f"<{value}>"
        _set(self, "value", value)
        _set(self, "_token", token)
        _set(self, "_key", token)

    def _fields(self) -> tuple:
        return (self.value,)

    def local_name(self) -> str:
        """Substring after the last '#' or '/', used by suffix-style minting."""
        value = self.value
        if "#" in value:
            return value.rsplit("#", 1)[1]
        return value.rstrip("/").rsplit("/", 1)[-1]

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


class BlankNode(_Term):
    __slots__ = ("label",)
    label: str

    def __new__(cls, label: str) -> BlankNode:
        key = (label,)
        ref = _REFS.get(key)
        term = ref() if ref is not None else None
        return term if term is not None else _intern(cls, key, label)

    def _build(self, label: str) -> None:
        if not _BLANK_LABEL_RE.match(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        # Canonical labels sort numerically (b2 before b10), which keeps
        # canonical relabeling stable on graphs with many blanks.
        m = _CANONICAL_BLANK_RE.match(label)
        _set(self, "label", label)
        _set(self, "_token", f"_:{label}")
        _set(self, "_key", f"_:0{int(m.group(1)):020d}" if m else f"_:1{label}")

    def _fields(self) -> tuple:
        return (self.label,)

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
_LITERAL_SPECIAL = re.compile("[" + re.escape("".join(_LITERAL_ESCAPES)) + "]")


def _escape_literal(text: str) -> str:
    return _LITERAL_SPECIAL.sub(lambda m: _LITERAL_ESCAPES[m.group()], text)


class Literal(_Term):
    """An RDF literal. A language tag forces rdf:langString; the datatype
    otherwise defaults to xsd:string."""

    __slots__ = ("lexical", "datatype", "language")
    lexical: str
    datatype: Iri
    language: str | None

    def __new__(cls, lexical: str, datatype: Iri | None = None, language: str | None = None) -> Literal:
        if language is not None:
            datatype = RDF_LANG_STRING
        elif datatype is None:
            datatype = XSD_STRING
        key = (lexical, datatype, language)
        ref = _REFS.get(key)
        term = ref() if ref is not None else None
        return term if term is not None else _intern(cls, key, *key)

    def _build(self, lexical: str, datatype: Iri, language: str | None) -> None:
        body = f'"{_escape_literal(lexical)}"'
        if language is not None:
            if not _LANG_RE.match(language):
                raise ValueError(f"invalid language tag: {language!r}")
            token = f"{body}@{language}"
        elif not isinstance(datatype, Iri):
            raise ValueError(f"literal datatype must be an IRI, got {datatype!r}")
        elif datatype is RDF_LANG_STRING:
            raise ValueError("rdf:langString literal requires a language tag")
        else:
            token = body if datatype is XSD_STRING else f"{body}^^{datatype._token}"
        _set(self, "lexical", lexical)
        _set(self, "datatype", datatype)
        _set(self, "language", language)
        _set(self, "_token", token)
        _set(self, "_key", token)

    def _fields(self) -> tuple:
        return (self.lexical, self.datatype, self.language)

    def __repr__(self) -> str:
        return f"Literal({self._token})"


Term = Iri | BlankNode | Literal


def term_sort_key(term: Term) -> str:
    """Total ordering key for serialization. Identical to the N-Triples token
    except that canonical blank labels compare numerically (b2 before b10),
    which keeps canonical relabeling stable on graphs with many blanks."""
    return term._key


class Triple(namedtuple("Triple", ("subject", "predicate", "object"))):
    """A tuple `(subject, predicate, object)` whose positions are checked
    when it is built. It hashes and compares as that tuple, so it equals a
    plain tuple of the same three terms."""

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Iri, object: Term) -> Triple:
        if not isinstance(predicate, Iri):
            raise ValueError(f"triple predicate must be an IRI, got {predicate!r}")
        if not isinstance(subject, (Iri, BlankNode)):
            raise ValueError(f"triple subject must be an IRI or blank node, got {subject!r}")
        if not isinstance(object, (Iri, BlankNode, Literal)):
            raise ValueError(f"triple object must be an RDF term, got {object!r}")
        return tuple.__new__(cls, (subject, predicate, object))

    @classmethod
    def _make(cls, iterable: Iterable[Term]) -> Triple:
        # `_replace` builds through `_make`; keep it checked too.
        return cls(*iterable)

    def n3(self) -> str:
        subject, predicate, obj = self
        return f"{subject._token} {predicate._token} {obj._token} ."

    def sort_key(self) -> tuple[str, str, str]:
        subject, predicate, obj = self
        return (subject._key, predicate._token, obj._key)

    def __repr__(self) -> str:
        return f"Triple({self.n3()})"


# `Triple` without its checks, called with one tuple: `_unchecked_triple((s,
# p, o))`. Only for a caller whose subject is already known to be an IRI or
# blank node, its predicate an IRI and its object a term.
_unchecked_triple = partial(tuple.__new__, Triple)


# The hash indexes by the positions they key on, each with the function that
# cuts its key out of a triple, or out of `match`'s `(subject, predicate,
# obj)`: the term itself for one position, a tuple of the terms in position
# order for two. A `Graph` builds an index on the first lookup that needs it.
_INDEX_KEYS = {positions: itemgetter(*positions) for positions in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))}


class Graph:
    """An immutable set of triples with an optional graph name.

    Set semantics: duplicates collapse, so cardinality is the count of
    distinct triples. Instances are hashable and safely shareable across
    threads; derive new graphs with `union` instead of mutating.

    Iteration follows `Triple.sort_key`. `match` and `count` answer from
    hash indexes, one per combination of bound positions, which `_index`
    builds on the first call that needs one and keeps for the life of the
    graph. An index maps a key (the term at its one position, or the tuple
    of the terms at its two) to a bucket, the list of the matching triples.
    """

    __slots__ = ("_triples", "name", "_sorted", "_indexes")

    def __init__(self, triples: Iterable[Triple] = (), name: Iri | None = None):
        self._triples = frozenset(triples)
        self.name = name
        self._sorted: tuple[Triple, ...] | None = None
        self._indexes: dict[tuple[int, ...], dict[object, list[Triple]]] = {}

    def sorted_triples(self) -> tuple[Triple, ...]:
        """Triples in lexicographic (subject, predicate, object) order."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._triples, key=Triple.sort_key))
        return self._sorted

    def union(self, *others: "Graph | Iterable[Triple]", name: Iri | None = None) -> "Graph":
        triples = set(self._triples)
        for other in others:
            # A graph's own set, not its iteration, which sorts.
            triples.update(other._triples if isinstance(other, Graph) else other)
        return Graph(triples, name=name if name is not None else self.name)

    def _index(self, positions: tuple[int, ...]) -> dict[object, list[Triple]]:
        """The hash index of the triples by the terms at `positions` (one of
        the keys of `_INDEX_KEYS`), built on the first call. Each bucket is a
        list of the key's triples in the order the graph's set yields them.
        The index is built in full before it is published, so a thread that
        reads the graph concurrently sees either no index or a complete one."""
        index = self._indexes.get(positions)
        if index is None:
            key = _INDEX_KEYS[positions]
            index = {}
            for t in self._triples:
                k = key(t)
                bucket = index.get(k)
                if bucket is None:
                    index[k] = [t]
                else:
                    bucket.append(t)
            self._indexes[positions] = index
        return index

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
        spo = (subject, predicate, obj)
        positions = tuple(i for i, term in enumerate(spo) if term is not None)
        if not positions:
            return iter(self.sorted_triples())
        if len(positions) == 3:
            return iter((_unchecked_triple(spo),) if spo in self._triples else ())
        return iter(self._index(positions).get(_INDEX_KEYS[positions](spo), ()))

    def count(
        self,
        subject: Term | None = None,
        predicate: Iri | None = None,
        obj: Term | None = None,
    ) -> int:
        """How many triples `match` yields for the same positions."""
        if subject is None and predicate is None and obj is None:
            return len(self._triples)
        return len(list(self.match(subject, predicate, obj)))

    def subjects(self, predicate: Iri | None = None, obj: Term | None = None) -> list[Term]:
        """The distinct subjects of the matching triples, in `term_sort_key` order."""
        return sorted({t.subject for t in self.match(None, predicate, obj)}, key=term_sort_key)

    def objects(self, subject: Term | None = None, predicate: Iri | None = None) -> list[Term]:
        """The distinct objects of the matching triples, in `term_sort_key` order."""
        return sorted({t.object for t in self.match(subject, predicate, None)}, key=term_sort_key)

    def predicates(self) -> list[Iri]:
        """The distinct predicates, in `term_sort_key` order."""
        return sorted({t.predicate for t in self._triples}, key=term_sort_key)

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
