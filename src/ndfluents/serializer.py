"""Canonical serializers for N-Triples, N-Quads, and Turtle.

Output is deterministic: triples are sorted lexicographically by their
N-Triples tokens, Turtle groups consecutive triples sharing a subject with
`;` (and shared predicates with `,`) without changing that order, and line
endings are always LF. Serializing the same graph twice yields identical
bytes, which makes generated ontology files diffable.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .parser import NQUADS, NTRIPLES, TURTLE, normalize_format
from .terms import RDF_TYPE, BlankNode, Graph, Iri, Literal, Term, Triple, _collector_paused

# Local names that can appear after `prefix:` without escaping. Anything
# else falls back to the full <...> form rather than risking invalid Turtle.
_SAFE_LOCAL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


def _blind_key(term: Term) -> str:
    # All blanks collapse to the bare "_:" token so input labels cannot
    # steer the canonical order; they only break ties via the full key.
    return "_:" if isinstance(term, BlankNode) else term.n3()


def _relabel_sorted(graph: Graph) -> Graph:
    """Relabel blanks _:b0, _:b1, ... in first-occurrence order of the
    graph's canonical serialization, ordering triples as if blank labels
    were invisible."""
    ordered = sorted(
        graph,
        key=lambda t: (_blind_key(t.subject), t.predicate.n3(), _blind_key(t.object))
        + t.sort_key(),
    )
    mapping: dict[BlankNode, BlankNode] = {}
    for triple in ordered:
        for term in (triple.subject, triple.object):
            if isinstance(term, BlankNode) and term not in mapping:
                mapping[term] = BlankNode(f"b{len(mapping)}")
    if all(old == new for old, new in mapping.items()):
        return graph

    def sub(term: Term) -> Term:
        return mapping[term] if isinstance(term, BlankNode) else term

    return Graph(
        (Triple(sub(t.subject), t.predicate, sub(t.object)) for t in graph),
        name=graph.name,
    )


@_collector_paused
def canonicalize(graph: Graph) -> Graph:
    """Return the graph with canonical blank labels: serializing it and
    parsing the result gives back the same graph."""
    blanks = sum(1 for t in graph for x in (t.subject, t.object) if isinstance(x, BlankNode))
    if not blanks:
        return graph
    current = graph
    # Converges immediately in practice; the bound guards against a labeling
    # that never stabilizes, which would break round-trip guarantees.
    for _ in range(8 + blanks):
        relabeled = _relabel_sorted(current)
        if relabeled == current:
            return current
        current = relabeled
    raise RuntimeError("blank node relabeling did not converge")


@_collector_paused
def serialize_ntriples(graph: Graph) -> str:
    lines = [triple.n3() + "\n" for triple in graph.sorted_triples()]
    return "".join(lines)


def serialize_nquads(graphs: Iterable[Graph]) -> str:
    """Serialize graphs as N-Quads, default graph first, named graphs by name."""
    graph_list = sorted(graphs, key=lambda g: "" if g.name is None else g.name.value)
    out: list[str] = []
    for graph in graph_list:
        suffix = "" if graph.name is None else f" {graph.name.n3()}"
        for triple in graph.sorted_triples():
            out.append(
                f"{triple.subject.n3()} {triple.predicate.n3()} "
                f"{triple.object.n3()}{suffix} .\n"
            )
    return "".join(out)


def _split_iri(iri: Iri) -> tuple[str, str]:
    value = iri.value
    cut = value.rfind("#")
    if cut == -1:
        cut = value.rfind("/")
    if cut == -1:
        return value, ""
    return value[: cut + 1], value[cut + 1 :]


@_collector_paused
def serialize_turtle(graph: Graph, prefixes: dict[str, str] | None = None) -> str:
    """Serialize as Turtle with subject grouping, preserving canonical order."""
    prefixes = dict(prefixes or {})
    by_base = {base: name for name, base in prefixes.items()}
    used: set[str] = set()
    tokens: dict[Term, str] = {}
    cached = tokens.get

    # Not recursive, so no reference cycle keeps `tokens` and its terms
    # alive after the call.
    def token(term: Term) -> str:
        """The Turtle token of `term`, kept in `tokens`: the N-Triples token
        with the IRI, or the literal's datatype, as a prefixed name where a
        prefix covers it."""
        text = term.n3()
        iri = term.datatype if isinstance(term, Literal) and term.language is None else term
        if isinstance(iri, Iri):
            base, local = _split_iri(iri)
            name = by_base.get(base)
            if name is not None and _SAFE_LOCAL_RE.match(local) and not local.endswith("."):
                used.add(name)
                if text.endswith(iri.n3()):
                    text = text[: -len(iri.n3())] + f"{name}:{local}"
        tokens[term] = text
        return text

    # Terms are interned, so a repeated subject or predicate is the same object.
    body: list[str] = []
    subject = predicate = None
    for s, p, o in graph.sorted_triples():
        o_token = cached(o) or token(o)
        if s is subject and p is predicate:
            body += (" ,\n        ", o_token)
            continue
        p_token = "a" if p is RDF_TYPE else cached(p) or token(p)
        if s is subject:
            body += (" ;\n    ", p_token, " ", o_token)
        else:
            if subject is not None:
                body.append(" .\n\n")
            body += (cached(s) or token(s), "\n    ", p_token, " ", o_token)
            subject = s
        predicate = p
    if body:
        body.append(" .\n")

    header = [
        f"@prefix {name}: <{base}> .\n"
        for name, base in sorted(prefixes.items())
        if name in used or not body
    ]
    sep = "\n" if header and body else ""
    return "".join(header) + sep + "".join(body)


def serialize(
    data: Graph | Iterable[Graph],
    fmt: str,
    prefixes: dict[str, str] | None = None,
) -> str:
    """Serialize a graph (or graphs, for N-Quads) in the named format."""
    fmt = normalize_format(fmt)
    if fmt == NQUADS:
        graphs = [data] if isinstance(data, Graph) else list(data)
        return serialize_nquads(graphs)
    if isinstance(data, Graph):
        graph = data
    else:
        items = list(data)
        if len(items) != 1:
            raise ValueError(f"{fmt} holds exactly one graph, got {len(items)}")
        graph = items[0]
    if fmt == NTRIPLES:
        return serialize_ntriples(graph)
    return serialize_turtle(graph, prefixes=prefixes)
