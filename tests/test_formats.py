"""Statement interchange formats: CSV and context-bundle N-Quads."""

import pytest

from ndfluents import (
    FormatError,
    Literal,
    XSD,
    annotate,
    read_annotated_nquads,
    read_statements_csv,
    write_annotated_nquads,
    write_statements_csv,
)
from ndfluents.formats import read_bundle_sidecar_csv

from conftest import EX, corpus_registry, random_corpus
import random


def _sample_statements():
    return [
        annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1)),
        annotate(
            EX.Earth,
            EX.population,
            Literal("7000000000", datatype=XSD.integer),
            ("temporal", EX.y2011),
            ("provenance", EX.census),
        ),
        annotate(EX.Paris, EX.label, Literal("Paris", language="fr"), ("provenance", EX.census)),
        annotate(EX.Paris, EX.motto, Literal("Fluctuat"), ("temporal", EX.t1)),
    ]


class TestStatementsCsv:
    def test_round_trip(self):
        statements = _sample_statements()
        text = write_statements_csv(statements)
        assert set(read_statements_csv(text)) == set(statements)

    def test_round_trip_random_corpora(self):
        rng = random.Random(3)
        for serial in range(25):
            statements = random_corpus(rng, serial)
            assert set(read_statements_csv(write_statements_csv(statements))) == set(
                statements
            )

    def test_header_is_stable(self):
        text = write_statements_csv(_sample_statements()[:1])
        header = text.splitlines()[0]
        assert header.startswith("subject,predicate,object,objectType")

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError):
            read_statements_csv("a,b,c\n1,2,3\n")

    def test_row_without_context_rejected(self):
        text = write_statements_csv(_sample_statements()[:1])
        lines = text.splitlines()
        # Strip the dimension/context cells from the data row.
        cells = lines[1].split(",")
        broken = "\n".join([lines[0], ",".join(cells[:4])]) + "\n"
        with pytest.raises(FormatError):
            read_statements_csv(broken)

    def test_unknown_object_type_rejected(self):
        header = "subject,predicate,object,objectType,dim1,ctx1\n"
        row = "http://e.org/a,http://e.org/p,x,mystery,temporal,http://e.org/t\n"
        with pytest.raises(FormatError):
            read_statements_csv(header + row)


class TestPhysicalLineNumbers:
    """Every error names the physical line of its row, as `csv.Error`
    does, so the two agree after a blank line or a multi-line field."""

    @pytest.mark.parametrize(
        "before, line",
        [
            pytest.param("\n", 3, id="blank-line"),
            pytest.param(
                'http://e.org/a,http://e.org/p,"two\nlines",literal,temporal,http://e.org/t\n', 4, id="multi-line-field"
            ),
        ],
    )
    def test_statements_errors_name_the_line(self, before, line):
        header = "subject,predicate,object,objectType,dim1,ctx1\n"
        bad = "http://e.org/a,http://e.org/p,x,literal,temporal,t1\n"
        with pytest.raises(FormatError, match=f"^row {line}: IRI is not absolute"):
            read_statements_csv(header + before + bad)
        oversized = bad.replace("t1", "http://e.org/" + "t" * 131072)
        with pytest.raises(FormatError, match=f"^row {line}: field larger than field limit"):
            read_statements_csv(header + before + oversized)

    @pytest.mark.parametrize(
        "before, line",
        [
            pytest.param("\n", 3, id="blank-line"),
            pytest.param('http://e.org/b,"tem\nporal",http://e.org/t1\n', 4, id="multi-line-field"),
        ],
    )
    def test_sidecar_errors_name_the_line(self, before, line):
        header = "bundle,dimension,context\n"
        with pytest.raises(FormatError, match=f"^sidecar row {line}: IRI is not absolute"):
            read_bundle_sidecar_csv(header + before + "http://e.org/b,temporal,t1\n")
        with pytest.raises(FormatError, match=f"^sidecar row {line}: field larger than field limit"):
            read_bundle_sidecar_csv(header + before + "http://e.org/b,temporal,http://e.org/" + "t" * 131072 + "\n")


class TestAnnotatedNQuads:
    def test_round_trip_with_csv_sidecar(self):
        statements = _sample_statements()
        registry = corpus_registry()
        nquads, sidecar = write_annotated_nquads(statements)
        assert set(read_annotated_nquads(nquads, sidecar, registry)) == set(statements)

    def test_statements_sharing_a_context_set_share_a_bundle(self):
        statements = [
            annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1)),
            annotate(EX.c, EX.p, EX.d, ("temporal", EX.t1)),
            annotate(EX.e, EX.p, EX.f, ("temporal", EX.t2)),
        ]
        nquads, sidecar = write_annotated_nquads(statements)
        bundles = read_bundle_sidecar_csv(sidecar)
        assert len(bundles) == 2

    def test_default_graph_triples_rejected(self):
        statements = _sample_statements()[:1]
        nquads, sidecar = write_annotated_nquads(statements)
        nquads += "<http://example.org/x> <http://example.org/p> <http://example.org/y> .\n"
        with pytest.raises(FormatError):
            read_annotated_nquads(nquads, sidecar, corpus_registry())

    def test_bundle_missing_from_sidecar_rejected(self):
        statements = _sample_statements()[:1]
        nquads, _ = write_annotated_nquads(statements)
        empty_sidecar = "bundle,dimension,context\n"
        with pytest.raises(FormatError):
            read_annotated_nquads(nquads, empty_sidecar, corpus_registry())

    def test_turtle_sidecar(self):
        statements = _sample_statements()
        registry = corpus_registry()
        nquads, csv_sidecar = write_annotated_nquads(statements)
        # Rebuild the sidecar as Turtle: bundle --extent--> context per row.
        rows = [line.split(",") for line in csv_sidecar.splitlines()[1:]]
        turtle = "".join(
            f"<{bundle}> <{registry.get(dim).extent.value}> <{ctx}> .\n"
            for bundle, dim, ctx in rows
        )
        recovered = read_annotated_nquads(nquads, turtle, registry, sidecar_format="turtle")
        assert set(recovered) == set(statements)

    def test_unknown_sidecar_format_rejected(self):
        nquads, sidecar = write_annotated_nquads(_sample_statements()[:1])
        with pytest.raises(FormatError):
            read_annotated_nquads(nquads, sidecar, corpus_registry(), sidecar_format="json")
