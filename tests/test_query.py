"""Basic-graph-pattern matching, aggregation, context slicing, grammar."""

import dataclasses
import itertools
import random
import re
import sys
import threading
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndfluents import (
    Aggregate,
    BlankNode,
    CombinationModel,
    DimensionRegistry,
    Graph,
    Iri,
    Literal,
    Pattern,
    QueryError,
    RDF_TYPE,
    Triple,
    TriplePattern,
    Variable,
    XSD,
    annotate,
    context_slice,
    contextualize,
    decontextualize,
    match,
    parse_pattern,
    provenance_dimension,
    temporal_dimension,
)

from ndfluents import query
from ndfluents.parser import parse_ntriples
from ndfluents.serializer import serialize_ntriples
from ndfluents.vocabulary import CORE

from conftest import (
    CORPUS_DIMENSIONS,
    EX,
    chain_outsider,
    core_extent_graph,
    corpus_registry,
    listed_context_graph,
    part_chain,
    random_corpus,
)

TEMPORAL = temporal_dimension()
PROVENANCE = provenance_dimension()


def _core_extent_registry() -> DimensionRegistry:
    """The corpus dimensions, with trust reaching its contexts through the
    core contextualExtent: a trust context is attributed by its type."""
    temporal, provenance, trust = CORPUS_DIMENSIONS
    return DimensionRegistry([temporal, provenance, dataclasses.replace(trust, extent=CORE.contextualExtent)])


_NODES = [EX[f"n{i}"] for i in range(6)]
_PREDICATES = [EX[f"p{i}"] for i in range(3)]
# Predicates also stand as subjects and objects, and literals as objects, so
# a variable can carry a predicate, or a literal, into another position.
_SUBJECTS = _NODES + _PREDICATES[:1]
_OBJECTS = _NODES + _PREDICATES[:1] + [Literal("1", datatype=XSD.integer), Literal("n0")]


def _random_graph(rng: random.Random, size: int) -> Graph:
    triples = set()
    for _ in range(size):
        triples.add(
            Triple(rng.choice(_SUBJECTS), rng.choice(_PREDICATES), rng.choice(_OBJECTS))
        )
    return Graph(triples)


def _random_pattern(rng: random.Random) -> Pattern:
    variables = [Variable(name) for name in "xyzw"]

    def position(candidates):
        return rng.choice(variables) if rng.random() < 0.5 else rng.choice(candidates)

    patterns = tuple(
        TriplePattern(position(_SUBJECTS), position(_PREDICATES), position(_OBJECTS))
        for _ in range(rng.randint(1, 3))
    )
    if not any(tp.variables() for tp in patterns):
        return _random_pattern(rng)
    return Pattern(patterns)


# Shapes the random patterns reach only by chance.
_SHAPED_PATTERNS = [
    parse_pattern("PREFIX ex: <http://example.org/>\n" + text)
    for text in [
        # A variable repeated inside one triple pattern.
        "?x ex:p0 ?x",
        "?x ?x ?y",
        "?x ?y ?y",
        "?x ?x ?x",
        # A variable repeated across patterns, and in both ways at once.
        "?x ex:p0 ?y\n?y ex:p1 ?x",
        "?x ?p ?x\n?x ?p ?y",
        # A subject bound to a literal or a predicate.
        "?x ex:p0 ?y\n?y ?p ?z",
        # A predicate bound to a literal, a node or a predicate.
        "?x ex:p1 ?y\n?s ?y ?o",
        "?x ex:p0 ?y\n?y ?y ?o",
    ]
]


def _enumerate_solutions(graph: Graph, pattern: Pattern) -> set[tuple]:
    """Independent oracle: try every assignment of triples to patterns."""

    def unify(tp: TriplePattern, triple: Triple, binding: dict) -> dict | None:
        out = dict(binding)
        for position, value in (
            (tp.subject, triple.subject),
            (tp.predicate, triple.predicate),
            (tp.object, triple.object),
        ):
            if isinstance(position, Variable):
                if out.get(position.name, value) != value:
                    return None
                out[position.name] = value
            elif position != value:
                return None
        return out

    solutions = set()
    columns = [v.name for v in pattern.variables()]
    for combo in itertools.product(list(graph), repeat=len(pattern.patterns)):
        binding: dict | None = {}
        for tp, triple in zip(pattern.patterns, combo):
            binding = unify(tp, triple, binding)
            if binding is None:
                break
        if binding is not None:
            solutions.add(tuple(binding[name] for name in columns))
    return solutions


class TestMatching:
    def test_brute_force_oracle_agreement(self):
        rng = random.Random(7)
        for _ in range(120):
            graph = _random_graph(rng, rng.randint(0, 18))
            for pattern in [_random_pattern(rng), *_SHAPED_PATTERNS]:
                table = match(graph, pattern)
                expected = _enumerate_solutions(graph, pattern)
                assert set(table.rows) == expected, pattern

    def test_plan_joins_most_selective_first(self):
        g = Graph(
            [Triple(EX[f"n{i}"], EX.q, EX.b) for i in range(5)]
            + [Triple(EX.n0, EX.p, EX.c), Triple(EX.n1, EX.p, EX.c)]
        )
        wide = TriplePattern(Variable("x"), EX.q, Variable("y"))
        linked = TriplePattern(Variable("y"), Variable("r"), Variable("w"))
        narrow = TriplePattern(Variable("x"), EX.p, Variable("z"))
        # Fewest unbound variables first, then the smallest predicate extent.
        plan = query._plan(g, [wide, linked, narrow]).steps
        assert [step.pattern for step in plan] == [narrow, wide, linked]
        assert [step.binds for step in plan] == [("x", "z"), ("y",), ("r", "w")]

    def test_no_solutions_means_empty_table(self):
        g = Graph([Triple(EX.a, EX.p, EX.b)])
        table = match(g, Pattern((TriplePattern(Variable("x"), EX.q, Variable("y")),)))
        assert table.rows == ()
        assert table.columns == ("x", "y")

    def test_rows_are_distinct_and_sorted(self):
        g = Graph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.a, EX.q, EX.b),
                Triple(EX.b, EX.p, EX.c),
            ]
        )
        # ?x bound twice to (a, b) through different predicates: set semantics.
        pattern = Pattern(
            (
                TriplePattern(Variable("x"), Variable("pred"), Variable("y")),
                TriplePattern(Variable("x"), EX.p, Variable("y")),
            )
        )
        table = match(g, pattern)
        assert len(set(table.rows)) == len(table.rows)
        assert list(table.rows) == sorted(table.rows, key=lambda r: [t.n3() for t in r])

    def test_variable_predicates_are_supported(self):
        g = Graph([Triple(EX.a, EX.p, EX.b)])
        table = match(g, Pattern((TriplePattern(EX.a, Variable("pred"), EX.b),)))
        assert table.rows == ((EX.p,),)

    def test_group_by_without_aggregates_lists_distinct_keys(self):
        g = Graph(
            [
                Triple(EX.a, RDF_TYPE, EX.C),
                Triple(EX.b, RDF_TYPE, EX.C),
                Triple(EX.a, EX.p, EX.b),
            ]
        )
        pattern = Pattern(
            (TriplePattern(Variable("x"), RDF_TYPE, EX.C),),
            group_by=Variable("x"),
        )
        table = match(g, pattern)
        assert table.columns == ("x",)
        assert table.rows == ((EX.a,), (EX.b,))


def test_threads_building_the_indexes_at_once_get_the_single_threaded_tables():
    # Eight threads (a small fixed number) match on one freshly parsed graph
    # with no index built, so they race to build and publish the same
    # indexes; a thread that read an index before it was complete would
    # miss triples.
    registry = corpus_registry()
    statements = [
        annotate(
            EX[f"city{i}"],
            EX.pop,
            Literal(str(i), datatype=XSD.integer),
            ("temporal", EX[f"y{i % 20}"]),
            ("provenance", EX[f"src{i % 5}"]),
        )
        for i in range(400)
    ]
    text = serialize_ntriples(contextualize(statements, registry, CombinationModel.multi_context()))
    patterns = [
        parse_pattern(
            "PREFIX ex: <http://example.org/>\n"
            "?part ex:pop ?v .\n?part <http://purl.org/NET/ndfluents/4dFluents#temporalExtent> ?y\n"
            "GROUP BY ?y\nAGG SUM ?v AS total\nAGG COUNT ?part AS n\n"
        ),
        parse_pattern(
            "PREFIX ex: <http://example.org/>\n?part ex:pop ?v .\n?part ?p ?o\n"
            "AGG SUM ?v AS total\nAGG COUNT ?o AS n\nCONTEXT temporal ex:y3\n"
        ),
    ]
    expected = [match(parse_ntriples(text), pattern, registry) for pattern in patterns]
    assert all(table.rows for table in expected)

    graph = parse_ntriples(text)
    assert not graph._indexes
    start = threading.Barrier(8)
    results: list[object] = [None] * 8

    def run(slot: int) -> None:
        start.wait(timeout=60)
        results[slot] = [match(graph, pattern, registry) for pattern in patterns]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 8


def _score_graph(pairs):
    return Graph(
        [
            Triple(EX[f"row{i}"], EX.inGroup, EX[group])
            for i, (group, _) in enumerate(pairs)
        ]
        + [
            Triple(
                EX[f"row{i}"],
                EX.score,
                Literal(str(value), datatype=XSD.integer),
            )
            for i, (_, value) in enumerate(pairs)
        ]
    )


def _score_pattern(function, name, distinct=False, scale=2):
    return Pattern(
        (
            TriplePattern(Variable("row"), EX.inGroup, Variable("g")),
            TriplePattern(Variable("row"), EX.score, Variable("v")),
        ),
        group_by=Variable("g"),
        aggregates=(Aggregate(function, Variable("v"), name, distinct=distinct),),
        scale=scale,
    )


class TestAggregates:
    def test_avg_rounds_half_up_to_two_places(self):
        g = _score_graph([("g1", 1), ("g1", 2), ("g2", 10), ("g2", 3), ("g2", 3)])
        table = match(g, _score_pattern("AVG", "avg"))
        assert table.columns == ("g", "avg")
        assert dict(zip(table.column("g"), table.column("avg"))) == {
            EX.g1: Decimal("1.50"),
            EX.g2: Decimal("5.33"),
        }

    def test_avg_scale_is_configurable(self):
        g = _score_graph([("g1", 1), ("g1", 2)])
        table = match(g, _score_pattern("AVG", "avg", scale=4))
        assert table.column("avg") == (Decimal("1.5000"),)

    def test_count_is_an_int(self):
        g = _score_graph([("g1", 5), ("g1", 5), ("g2", 1)])
        # The two g1 rows are distinct solutions (different row IRIs).
        table = match(g, _score_pattern("COUNT", "n"))
        assert dict(zip(table.column("g"), table.column("n"))) == {EX.g1: 2, EX.g2: 1}

    def test_count_distinct_collapses_equal_values(self):
        g = _score_graph([("g1", 5), ("g1", 5), ("g1", 7)])
        table = match(g, _score_pattern("COUNT", "n", distinct=True))
        assert table.column("n") == (2,)

    def test_sum_min_max(self):
        g = _score_graph([("g1", 4), ("g1", -2), ("g1", 7)])
        assert match(g, _score_pattern("SUM", "s")).column("s") == (9,)
        assert match(g, _score_pattern("MIN", "lo")).column("lo") == (-2,)
        assert match(g, _score_pattern("MAX", "hi")).column("hi") == (7,)

    def test_sum_of_decimals_keeps_scale(self):
        g = Graph(
            [
                Triple(EX.r1, EX.inGroup, EX.g1),
                Triple(EX.r1, EX.score, Literal("0.1", datatype=XSD.decimal)),
                Triple(EX.r2, EX.inGroup, EX.g1),
                Triple(EX.r2, EX.score, Literal("0.2", datatype=XSD.decimal)),
            ]
        )
        # Fraction arithmetic: no float artifacts, 0.1 + 0.2 is exactly 0.30.
        assert match(g, _score_pattern("SUM", "s")).column("s") == (Decimal("0.30"),)

    def test_aggregate_without_group_by_yields_one_row(self):
        g = _score_graph([("g1", 1), ("g2", 3)])
        pattern = Pattern(
            (TriplePattern(Variable("row"), EX.score, Variable("v")),),
            aggregates=(Aggregate("SUM", Variable("v"), "total"),),
        )
        table = match(g, pattern)
        assert table.columns == ("total",)
        assert table.rows == ((4,),)

    def test_aggregate_over_empty_solutions_is_an_empty_table(self):
        g = Graph([Triple(EX.a, EX.p, EX.b)])
        pattern = Pattern(
            (TriplePattern(Variable("row"), EX.score, Variable("v")),),
            aggregates=(Aggregate("COUNT", Variable("v"), "n"),),
        )
        assert match(g, pattern).rows == ()

    def test_non_numeric_aggregation_is_an_error(self):
        g = Graph([Triple(EX.a, EX.score, Literal("high"))])
        pattern = Pattern(
            (TriplePattern(Variable("row"), EX.score, Variable("v")),),
            aggregates=(Aggregate("SUM", Variable("v"), "s"),),
        )
        with pytest.raises(QueryError):
            match(g, pattern)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    @pytest.mark.parametrize("function", ["SUM", "MAX", "AVG"])
    def test_a_value_past_the_digit_limit_names_the_literal_and_aggregate(self, function):
        g = _score_graph([("g1", "9" * 5000), ("g1", 1)])
        with pytest.raises(QueryError) as raised:
            match(g, _score_pattern(function, "x"))
        assert str(raised.value) == (
            f'{function}(?v) over "99999999999999999999..."^^'
            "<http://www.w3.org/2001/XMLSchema#integer> (5,000 characters) has more "
            "digits than Python writes out as text (see sys.set_int_max_str_digits)"
        )

    def test_a_non_numeric_value_is_named_in_term_order(self):
        # The terms come in reverse term order, as a group's solutions may.
        terms = [Literal(f"bad{i}") for i in reversed(range(6))]
        with pytest.raises(QueryError) as raised:
            query._aggregate_value(Aggregate("SUM", Variable("v"), "s"), terms, 2)
        assert str(raised.value) == 'SUM(?v) needs xsd numeric literals, got "bad0"'

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_of_equally_long_values_past_the_digit_limit_the_first_in_term_order_is_named(self):
        terms = [Literal(digit + "0" * 4999, datatype=XSD.integer) for digit in "21"]
        with pytest.raises(QueryError) as raised:
            query._aggregate_value(Aggregate("SUM", Variable("v"), "s"), terms, 2)
        assert str(raised.value).startswith('SUM(?v) over "10000000000000000000..."^^')

    def test_a_small_minimum_beside_a_huge_value_is_kept(self):
        g = _score_graph([("g1", "9" * 5000), ("g1", -3)])
        assert match(g, _score_pattern("MIN", "lo")).column("lo") == (-3,)

    def test_count_accepts_iris(self):
        g = Graph([Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, EX.d)])
        pattern = Pattern(
            (TriplePattern(Variable("s"), EX.p, Variable("o")),),
            aggregates=(Aggregate("COUNT", Variable("o"), "n"),),
        )
        assert match(g, pattern).column("n") == (2,)


_DIGITS = "0123456789" + "\u0660\u0661\u0665\u0669" + "\U0001d7ce\U0001d7d7"


@st.composite
def _integer_lexical(draw) -> str:
    """An xsd:integer lexical form: a sign, leading zeros, ASCII and other
    Unicode digits, groups joined by `_` or by `__` (which `int` refuses),
    spaces around; now and then more digits than `int` reads."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    if draw(st.integers(0, 9)) == 0:
        return sign + "7" * draw(st.integers(4290, 4400))
    zeros = "0" * draw(st.integers(0, 3))
    groups = draw(st.lists(st.text(st.sampled_from(_DIGITS), min_size=1, max_size=6), min_size=1, max_size=3))
    space = draw(st.sampled_from(["", " "]))
    return space + sign + zeros + draw(st.sampled_from(["", "_", "__"])).join(groups) + space


def _reference_fraction_to_decimal(value: Fraction, scale: int) -> Decimal:
    """The rounding `_fraction_to_decimal` replaced: a `Decimal` division at
    a precision wide enough for the exact quotient, then a ROUND_HALF_UP
    quantize."""
    quantum = Decimal(1).scaleb(-scale)
    digits = len(str(abs(value.numerator))) + len(str(value.denominator))
    with localcontext() as context:
        context.prec = digits + scale + 10
        result = Decimal(value.numerator) / Decimal(value.denominator)
        return result.quantize(quantum, rounding=ROUND_HALF_UP)


def _reference_aggregate(function: str, terms: list[Literal], scale: int) -> object:
    """SUM, MIN, MAX or AVG with every literal read through `Decimal` and
    rounded by `_reference_fraction_to_decimal`."""
    if any(term.datatype == XSD.string for term in terms):
        raise ValueError("not numeric")
    values = [Fraction(Decimal(term.lexical)) for term in terms]
    if function == "AVG":
        return _reference_fraction_to_decimal(Fraction(sum(values), len(values)), scale)
    result = {"SUM": sum, "MIN": min, "MAX": max}[function](values)
    if result.denominator != 1:
        return _reference_fraction_to_decimal(result, scale)
    str(int(result))  # refused past the digit limit
    return int(result)


def _outcome(compute, errors):
    """`"error"` when `compute` raises one of `errors`, else the type and
    text of its value. Any other exception escapes and fails the test."""
    try:
        value = compute()
    except errors:
        return "error"
    return type(value), str(value)


# The references compute through `Decimal`, which signals an error as
# `decimal.InvalidOperation`, an ArithmeticError; the library must raise
# its own errors instead.
_REFERENCE_ERRORS = (ValueError, ArithmeticError)


# Mostly xsd:integer, which `int` reads when it can; the others must read
# as they do through `Decimal`: an xsd:decimal is read, an xsd:string refused.
_DATATYPES = [XSD.integer, XSD.integer, XSD.integer, XSD.decimal, XSD.string]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_integer_lexical(), st.sampled_from(_DATATYPES)), min_size=1, max_size=5),
    st.sampled_from(["SUM", "MIN", "MAX", "AVG"]),
)
def test_integer_path_agrees_with_the_fraction_path(literals, function):
    terms = [Literal(text, datatype=datatype) for text, datatype in literals]
    aggregate = Aggregate(function, Variable("v"), "out")
    assert _outcome(lambda: query._aggregate_value(aggregate, terms, 2), QueryError) == _outcome(
        lambda: _reference_aggregate(function, terms, 2), _REFERENCE_ERRORS
    )


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.fractions(), st.builds(Fraction, st.integers(), st.sampled_from([2, 8, 200, 2000]))),
    st.integers(0, 12),
)
@example(Fraction(-1, 1000), 2)  # -0.00
@example(Fraction(-1, 3), 0)  # -0
@example(Fraction(-5, 1000), 2)  # a tie rounds away from zero
def test_half_up_rounding_agrees_with_decimal_quantize(value, scale):
    _assert_rounding_agrees(value, scale)


def _assert_rounding_agrees(value: Fraction, scale: int) -> None:
    # `_fraction_to_decimal` may raise only ValueError, which `_aggregate_value`
    # turns into a QueryError.
    new, old = query._fraction_to_decimal, _reference_fraction_to_decimal
    expected = _outcome(lambda: old(value, scale), _REFERENCE_ERRORS)
    assert _outcome(lambda: new(value, scale), ValueError) == expected
    if expected != "error":
        assert new(value, scale).as_tuple() == old(value, scale).as_tuple()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
@pytest.mark.parametrize(
    "value",
    [Fraction(10**4299 + 1, 3), Fraction(7 * 10**4300), Fraction(1, 10**4300)],
    ids=["rounded-past-the-limit", "numerator-past-the-limit", "denominator-past-the-limit"],
)
def test_half_up_rounding_refuses_what_decimal_quantize_refuses(value):
    # Only a numerator or denominator that `str` refuses is an error.
    _assert_rounding_agrees(value, 5)


class TestPatternValidation:
    def test_group_variable_must_appear(self):
        with pytest.raises(QueryError):
            Pattern(
                (TriplePattern(Variable("x"), EX.p, EX.o),),
                group_by=Variable("missing"),
            )

    def test_aggregate_variable_must_appear(self):
        with pytest.raises(QueryError):
            Pattern(
                (TriplePattern(Variable("x"), EX.p, EX.o),),
                aggregates=(Aggregate("COUNT", Variable("missing"), "n"),),
            )

    def test_duplicate_aggregate_names_rejected(self):
        with pytest.raises(QueryError):
            Pattern(
                (TriplePattern(Variable("x"), EX.p, Variable("y")),),
                aggregates=(
                    Aggregate("COUNT", Variable("x"), "n"),
                    Aggregate("COUNT", Variable("y"), "n"),
                ),
            )

    def test_unknown_aggregate_function_rejected(self):
        with pytest.raises(QueryError):
            Aggregate("MEDIAN", Variable("x"), "m")

    def test_empty_pattern_rejected(self):
        with pytest.raises(QueryError):
            Pattern(())


class TestContextSlice:
    @pytest.mark.parametrize(
        "model",
        [
            CombinationModel.multi_context(),
            CombinationModel.contexts_in_context(["provenance", "temporal", "trust"]),
            CombinationModel.combined_extent(),
        ],
        ids=["multi", "nested", "combined"],
    )
    def test_slice_agrees_with_selection_decontextualization(self, model):
        for registry in (corpus_registry(), _core_extent_registry()):
            rng = random.Random(99)
            for serial in range(30):
                statements = random_corpus(rng, serial)
                graph = contextualize(statements, registry, model)
                recovered = decontextualize(graph, registry)
                pairs = {pair for s in statements for pair in s.assignment_pairs()}
                for dimension, context in sorted(pairs, key=lambda pair: pair[1].value)[:3]:
                    piece = context_slice(graph, registry, context)
                    assert set(piece) <= set(graph)
                    assert set(decontextualize(piece, registry)) == set(
                        decontextualize(graph, registry, selection={context})
                    )
                    piece = context_slice(graph, registry, context, dimension=dimension)
                    assert set(decontextualize(piece, registry)) == {
                        s for s in recovered if (dimension, context) in s.assignment_pairs()
                    }

    def test_a_core_extent_is_attributed_by_its_context_type(self, two_dim_registry):
        graph = core_extent_graph()
        (statement,) = decontextualize(graph, two_dim_registry)
        assert statement.assignment_pairs() == (("temporal", EX.y2016),)
        text = "?part <http://example.org/population> ?n .\nCONTEXT {} <http://example.org/y2016>\n"
        assert match(graph, parse_pattern(text.format("temporal")), two_dim_registry).rows == (
            (EX["Paris@y2016"], Literal("5", datatype=XSD.integer)),
        )
        assert match(graph, parse_pattern(text.format("provenance")), two_dim_registry).rows == ()

    def test_dimension_filter_restricts_hits(self, two_dim_registry):
        # The same IRI is used as a temporal context of one statement and a
        # provenance context of another; the filter keeps them apart.
        shared = EX.oddContext
        statements = [
            annotate(EX.a, EX.p, EX.b, ("temporal", shared)),
            annotate(EX.c, EX.p, EX.d, ("provenance", shared)),
        ]
        graph = contextualize(
            statements, two_dim_registry, CombinationModel.multi_context()
        )
        temporal_only = context_slice(graph, two_dim_registry, shared, dimension="temporal")
        recovered = decontextualize(temporal_only, two_dim_registry)
        assert recovered == [statements[0]]

    def test_slice_through_combined_membership(self, two_dim_registry):
        statement = annotate(
            EX.a, EX.p, EX.b, ("temporal", EX.t1), ("provenance", EX.s1)
        )
        graph = contextualize(
            [statement], two_dim_registry, CombinationModel.combined_extent()
        )
        piece = context_slice(graph, two_dim_registry, EX.t1)
        assert set(decontextualize(piece, two_dim_registry)) == {statement}

    @pytest.mark.parametrize("combined", [True, False], ids=["combined", "core"])
    def test_a_member_no_dimension_types_is_kept_only_without_a_dimension(self, two_dim_registry, combined):
        extent = two_dim_registry.combined(["provenance", "temporal"]).extent if combined else CORE.contextualExtent
        graph = listed_context_graph(extent, EX.cc, [EX.t1, EX.u], [(EX.t1, TEMPORAL.context_class)])
        assert set(context_slice(graph, two_dim_registry, EX.u)) == set(graph)
        assert set(context_slice(graph, two_dim_registry, EX.t1, dimension="temporal")) == set(graph)
        for dimension in ("temporal", "provenance"):
            assert len(context_slice(graph, two_dim_registry, EX.u, dimension=dimension)) == 0

    def test_a_blank_node_combined_context_is_ignored(self, two_dim_registry):
        extent = two_dim_registry.combined(["provenance", "temporal"]).extent
        graph = listed_context_graph(extent, BlankNode("c"), [EX.t1], [(EX.t1, TEMPORAL.context_class)])
        for dimension in (None, "temporal"):
            assert len(context_slice(graph, two_dim_registry, EX.t1, dimension=dimension)) == 0

    def test_a_registered_extent_selects_its_context_not_the_members(self, two_dim_registry):
        graph = listed_context_graph(TEMPORAL.extent, EX.cc, [EX.t1], [(EX.t1, TEMPORAL.context_class)])
        for dimension in (None, "temporal"):
            assert len(context_slice(graph, two_dim_registry, EX.t1, dimension=dimension)) == 0
            assert set(context_slice(graph, two_dim_registry, EX.cc, dimension=dimension)) == set(graph)
        assert len(context_slice(graph, two_dim_registry, EX.cc, dimension="provenance")) == 0

    @pytest.mark.parametrize("combined", [True, False], ids=["combined", "core"])
    def test_a_context_that_lists_itself_is_one_of_its_members(self, two_dim_registry, combined):
        extent = two_dim_registry.combined(["provenance", "temporal"]).extent if combined else CORE.contextualExtent
        graph = listed_context_graph(
            extent,
            EX.cc,
            [EX.cc, EX.t1],
            [(EX.cc, PROVENANCE.context_class), (EX.t1, TEMPORAL.context_class)],
        )
        for context, dimension in [(EX.cc, None), (EX.cc, "provenance"), (EX.t1, None), (EX.t1, "temporal")]:
            assert set(context_slice(graph, two_dim_registry, context, dimension=dimension)) == set(graph)
        for context, dimension in [(EX.cc, "temporal"), (EX.t1, "provenance")]:
            assert len(context_slice(graph, two_dim_registry, context, dimension=dimension)) == 0

    def test_deep_part_chain_does_not_recurse(self, temporal_registry):
        # Every part of the chain reaches the context only through all of
        # its ancestors, 3000 links up.
        graph = part_chain(3000)
        piece = context_slice(graph, temporal_registry, EX.y2016)
        assert set(piece) == set(graph) - set(chain_outsider())

    def test_part_of_cycle_reaches_the_hit_from_every_member(self, temporal_registry):
        graph = Graph(
            [
                Triple(EX.a, TEMPORAL.part_of, EX.b),
                Triple(EX.b, TEMPORAL.part_of, EX.a),
                Triple(EX.b, TEMPORAL.part_of, EX.c),
                Triple(EX.c, TEMPORAL.extent, EX.y2016),
                Triple(EX.c, TEMPORAL.part_of, EX.Paris),
                Triple(EX.a, EX.population, Literal("1", datatype=XSD.integer)),
                Triple(EX.b, EX.population, Literal("2", datatype=XSD.integer)),
            ]
        )
        piece = context_slice(graph, temporal_registry, EX.y2016)
        assert set(piece) == set(graph)

    def test_unregistered_dimension_is_rejected(self, two_dim_registry):
        statement = annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1))
        graph = contextualize([statement], two_dim_registry, CombinationModel.multi_context())
        with pytest.raises(QueryError, match="'temporl'.*registered: provenance, temporal"):
            context_slice(graph, two_dim_registry, EX.t1, dimension="temporl")
        pattern = parse_pattern(f"?s ?p ?o .\nCONTEXT temporl {EX.t1.n3()}\n")
        with pytest.raises(QueryError, match="unknown dimension 'temporl'"):
            match(graph, pattern, two_dim_registry)

    def test_match_with_context_filter_needs_registry(self):
        pattern = Pattern(
            (TriplePattern(Variable("x"), EX.p, Variable("y")),),
            context=("temporal", EX.t1),
        )
        with pytest.raises(QueryError):
            match(Graph(), pattern)


class TestPatternGrammar:
    def test_full_query_parses(self):
        pattern = parse_pattern(
            """\
# per-group averages
PREFIX ex: <http://example.org/>
PREFIX 4d: <http://purl.org/NET/ndfluents/4dFluents#>

?row ex:inGroup ?g .
?row ex:score ?v
GROUP BY ?g
AGG AVG ?v AS average
AGG COUNT DISTINCT ?v AS n
CONTEXT temporal <http://example.org/t1>
SCALE 3
"""
        )
        assert len(pattern.patterns) == 2
        assert pattern.group_by == Variable("g")
        assert pattern.aggregates[0] == Aggregate("AVG", Variable("v"), "average")
        assert pattern.aggregates[1].distinct
        assert pattern.context == ("temporal", EX.t1)
        assert pattern.scale == 3

    def test_a_keyword_and_literal_objects(self):
        pattern = parse_pattern(
            """\
PREFIX ex: <http://example.org/>
?x a ex:City .
?x ex:label "Paris"@fr .
?x ex:population 2229621 .
?x ex:density 53.5 .
?x ex:motto "Fluctuat nec mergitur"^^ex:latin .
"""
        )
        objects = [tp.object for tp in pattern.patterns]
        assert pattern.patterns[0].predicate == RDF_TYPE
        assert objects[1] == Literal("Paris", language="fr")
        assert objects[2] == Literal("2229621", datatype=XSD.integer)
        assert objects[3] == Literal("53.5", datatype=XSD.decimal)
        assert objects[4] == Literal("Fluctuat nec mergitur", datatype=EX.latin)

    def test_solutions_from_parsed_and_constructed_patterns_agree(self):
        g = _score_graph([("g1", 1), ("g1", 2), ("g2", 3)])
        parsed = parse_pattern(
            """\
PREFIX ex: <http://example.org/>
?row ex:inGroup ?g
?row ex:score ?v
GROUP BY ?g
AGG AVG ?v AS avg
"""
        )
        assert match(g, parsed) == match(g, _score_pattern("AVG", "avg"))

    @pytest.mark.parametrize(
        "text",
        [
            "GROUP BY ?x\n",  # no triple patterns
            "?x <http://e.org/p>\n",  # arity
            "?x <http://e.org/p> ?y ?z\n",  # arity
            "ex:a ex:b ex:c\n",  # unknown prefix
            "?x <http://e.org/p> ?y\nGROUP BY ?zap\n",  # unbound group var
            "?x <http://e.org/p> ?y\nAGG AVG ?y AS a\nAGG SUM ?y AS a\n",  # dup name
            "?x <http://e.org/p> ?y\nAGG MEDIAN ?y AS m\n",  # unknown function
            "?x <http://e.org/p> ?y\nSCALE x\n",  # bad scale
            '"lit" <http://e.org/p> ?y\n',  # literal subject
            "?x <http://e.org/p> ?y\nCONTEXT temporal notaniri\n",  # bad context
            "_:b <http://e.org/p> ?y\n",  # blank node
            "?x <http://e.org/p> ?y . ?z\n",  # a term after the dot
            "PREFIX ex: <rel/>\n?x ex:p ?y\n",  # relative prefix IRI
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(QueryError):
            parse_pattern(text)

    @pytest.mark.parametrize("escape", ["\\u+04A", "\\u1_23", "\\u 04A", "\\U0011FFFF", "\\q"])
    def test_malformed_literal_escapes_rejected(self, escape):
        # `int(digits, 16)` alone would read "\u+04A" as "J".
        with pytest.raises(QueryError, match="line 2: (malformed|unsupported)"):
            parse_pattern(f'# escapes\n?s <http://e.org/p> "x{escape}" .\n')

    def test_literal_escapes_decoded(self):
        pattern = parse_pattern('?s <http://e.org/p> "\\u004A\\U0001F600\\t\\"" .\n')
        assert pattern.patterns[0].object == Literal('J\U0001F600\t"')


# PREFIX lines that `_PatternParser` may store without the term walk, and
# lines next to them that it must still read with the TermReader.
_PREFIX_LINES = [
    "PREFIX ex: <http://e.org/>",
    "PREFIX : <http://e.org/>",
    "PREFIX ex:<http://e.org/>",
    "prefix ex: <http://e.org/ns#>",
    "PREFIX é-1.x: <http://e.org/>",
    "PREFIX ex: <urn:isbn:0451450523>",
    "PREFIX ex: <HTTP://E.ORG/é/>",
    "PREFIX ex: <mailto:a@b.org>",
    "PREFIX ex: <h+t.t-p:x>",
    "PREFIX ex: <http://e.org/>   ",
    "PREFIX ex: <rel/>",
    "PREFIX ex: <>",
    "PREFIX ex: <1http://e.org/>",
    "PREFIX ex: <:>",
    "PREFIX ex: <http://e.org/\\u0041/>",
    "PREFIX ex: <http://e.org/\\U00000041/>",
    "PREFIX ex: <http://e.org/\\n>",
    "PREFIX ex: <http://e.org/\\>",
    "PREFIX ex: <http://e.org/> # a comment",
    "PREFIX ex: <http://e.org/>#a comment",
    "PREFIX ex: <http://e.org/> .",
    "PREFIX ex: <http://e.org/> <http://f.org/>",
    "PREFIX ex: <http://e.org/> ex:",
    "PREFIX ex: <http://e.org/>>",
    "PREFIX ex: <http://e.org/",
    "PREFIX ex: <http://e.org/a b>",
    "PREFIX ex: <http://e.org/a\tb>",
    "PREFIX ex: <http://e.org/a\x01b>",
    'PREFIX ex: <http://e.org/"a>',
    "PREFIX ex: <http://e.org/{a}>",
    "PREFIX ex: <http://e.org/a|b^c`d>",
    "PREFIX ex: <http://e.org/<a>",
    "PREFIX ex: http://e.org/",
]


def _parse_both_ways(text: str, monkeypatch) -> tuple[object, object]:
    """`parse_pattern(text)` as it is, and with every PREFIX line read by
    the TermReader; each result is a `Pattern` or a `QueryError`'s text."""

    def outcome():
        try:
            return parse_pattern(text)
        except QueryError as exc:
            return f"QueryError: {exc}"

    direct = outcome()
    with monkeypatch.context() as patched:
        patched.setattr(query, "_PLAIN_IRI_RE", re.compile(r"(?!)"))
        walked = outcome()
    return direct, walked


@pytest.mark.parametrize("line", _PREFIX_LINES)
def test_prefix_lines_read_as_the_term_reader_reads_them(line, monkeypatch):
    match_name = re.match(r"(?i)PREFIX\s+(\S*):", line)
    name = match_name.group(1) if match_name else "ex"
    direct, walked = _parse_both_ways(f"{line}\n?s ?p {name}:x .\n", monkeypatch)
    assert direct == walked


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=st.sampled_from('aZ09:/#.+-é \t\\u0041<>"{}|^`\x01'), max_size=12),
    st.sampled_from(["", " ", "  # c", " .", " x"]),
)
def test_drawn_prefix_lines_read_as_the_term_reader_reads_them(body, end):
    with pytest.MonkeyPatch.context() as monkeypatch:
        direct, walked = _parse_both_ways(f"PREFIX ex: <{body}>{end}\n?s ?p ex:x .\n", monkeypatch)
    assert direct == walked


# Pattern terms drawn with the text that writes them.
_NS = "http://example.org/"
_variables = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).map(
    lambda name: (Variable(name), f"?{name}")
)
_iris = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=0x21, blacklist_characters='<>"{}|^`\\'),
        max_size=8,
    ).map(lambda local: (Iri(_NS + local), f"<{_NS}{local}>")),
    st.text(
        alphabet=st.one_of(st.characters(whitelist_categories=("Lu", "Ll", "Lo", "Nd")), st.sampled_from("_-")),
        min_size=1,
        max_size=8,
    ).map(lambda local: (Iri(_NS + local), f"ex:{local}")),
)
_lexical = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
_signs = st.sampled_from(["", "+", "-"])
_literals = st.one_of(
    _lexical.map(lambda text: (Literal(text), Literal(text).n3())),
    st.builds(
        lambda text, tag: (Literal(text, language=tag), Literal(text, language=tag).n3()),
        _lexical,
        st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}", fullmatch=True),
    ),
    st.builds(
        lambda text, dt: (Literal(text, datatype=dt[0]), f"{Literal(text).n3()}^^{dt[1]}"), _lexical, _iris
    ),
    st.builds(lambda sign, n: f"{sign}{n}", _signs, st.integers(0, 10**12)).map(
        lambda text: (Literal(text, datatype=XSD.integer), text)
    ),
    st.builds(
        lambda sign, whole, fraction: f"{sign}{whole}.{fraction}",
        _signs,
        st.integers(0, 10**6).map(str),
        st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    ).map(lambda text: (Literal(text, datatype=XSD.decimal), text)),
)
_triple_lines = st.tuples(
    st.one_of(_variables, _iris),
    st.one_of(_variables, _iris, st.just((RDF_TYPE, "a"))),
    st.one_of(_variables, _iris, _literals),
    st.sampled_from(["", ".", " .", " . # a comment", "  # a comment"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_triple_lines, min_size=1, max_size=4))
def test_written_patterns_parse_back_equal(lines):
    text = "PREFIX ex: <http://example.org/>\n" + "".join(
        f"{s[1]} {p[1]} {o[1]}{end}\n" for s, p, o, end in lines
    )
    expected = Pattern(tuple(TriplePattern(s[0], p[0], o[0]) for s, p, o, _ in lines))
    assert parse_pattern(text) == expected


class TestResultTable:
    def test_to_csv_renders_iris_literals_and_numbers(self):
        from ndfluents import ResultTable

        table = ResultTable(
            ("who", "what", "n", "avg"),
            (
                (EX.a, Literal("x,y"), 3, Decimal("1.50")),
            ),
        )
        assert table.to_csv() == 'who,what,n,avg\nhttp://example.org/a,"x,y",3,1.50\n'

    def test_column_lookup_errors(self):
        from ndfluents import ResultTable

        table = ResultTable(("a",), ((1,),))
        with pytest.raises(QueryError):
            table.column("missing")
