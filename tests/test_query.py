"""Basic-graph-pattern matching, aggregation, context slicing, grammar."""

import itertools
import random
from decimal import Decimal

import pytest

from ndfluents import (
    Aggregate,
    CombinationModel,
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
    temporal_dimension,
)

from conftest import EX, chain_outsider, corpus_registry, part_chain, random_corpus

TEMPORAL = temporal_dimension()


def _random_graph(rng: random.Random, size: int) -> Graph:
    nodes = [EX[f"n{i}"] for i in range(6)]
    preds = [EX[f"p{i}"] for i in range(3)]
    triples = set()
    for _ in range(size):
        triples.add(
            Triple(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
        )
    return Graph(triples)


def _random_pattern(rng: random.Random) -> Pattern:
    nodes = [EX[f"n{i}"] for i in range(6)]
    preds = [EX[f"p{i}"] for i in range(3)]
    variables = [Variable(name) for name in "xyzw"]

    def position(candidates):
        return rng.choice(variables) if rng.random() < 0.5 else rng.choice(candidates)

    patterns = tuple(
        TriplePattern(position(nodes), position(preds), position(nodes))
        for _ in range(rng.randint(1, 3))
    )
    if not any(tp.variables() for tp in patterns):
        return _random_pattern(rng)
    return Pattern(patterns)


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
            pattern = _random_pattern(rng)
            table = match(graph, pattern)
            expected = _enumerate_solutions(graph, pattern)
            assert set(table.rows) == expected

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
        assert match(g, pattern).rows == ((EX.a,), (EX.b,))


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

    def test_count_accepts_iris(self):
        g = Graph([Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, EX.d)])
        pattern = Pattern(
            (TriplePattern(Variable("s"), EX.p, Variable("o")),),
            aggregates=(Aggregate("COUNT", Variable("o"), "n"),),
        )
        assert match(g, pattern).column("n") == (2,)


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
        registry = corpus_registry()
        rng = random.Random(99)
        for serial in range(30):
            statements = random_corpus(rng, serial)
            graph = contextualize(statements, registry, model)
            contexts = {ctx for s in statements for _, ctx in s.assignment_pairs()}
            for context in sorted(contexts, key=lambda c: c.value)[:3]:
                piece = context_slice(graph, registry, context)
                assert set(piece) <= set(graph)
                assert set(decontextualize(piece, registry)) == set(
                    decontextualize(graph, registry, selection={context})
                )

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
