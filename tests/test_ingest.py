"""Population-estimate CSV ingestion."""

import io

import pytest

from ndfluents import (
    EstimateRow,
    IngestError,
    Literal,
    RDF_TYPE,
    Triple,
    XSD,
    ingest_csv,
    ingest_rows,
    read_estimate_rows,
)
from ndfluents.ingest import (
    DBR,
    EARTH,
    POPULATION_TOTAL,
    PROV,
    TIME,
    activity_iri,
    interval_iri,
)

HEADER = "source,year,population_low,population_high\n"


class TestEstimateRow:
    def test_point_estimate_uses_low(self):
        row = EstimateRow("Biraben", 1000, 275000000)
        assert row.value == 275000000

    def test_interval_estimate_is_the_rounded_mean(self):
        assert EstimateRow("X", 0, 100, 101).value == 101  # .5 rounds up
        assert EstimateRow("X", 0, 100, 103).value == 102  # exact .5 again
        assert EstimateRow("X", 0, 100, 104).value == 102
        assert EstimateRow("X", 0, 150, 150).value == 150

    def test_validation(self):
        with pytest.raises(IngestError):
            EstimateRow("X", 0, -5)
        with pytest.raises(IngestError):
            EstimateRow("X", 0, 100, 50)
        with pytest.raises(IngestError):
            EstimateRow("", 0, 100)


class TestReadEstimateRows:
    def test_reads_point_and_interval_rows(self):
        rows = read_estimate_rows(HEADER + "A,1000,100,\nB,-400,100,200\n")
        assert rows == [
            EstimateRow("A", 1000, 100),
            EstimateRow("B", -400, 100, 200),
        ]

    def test_header_must_match(self):
        with pytest.raises(IngestError):
            read_estimate_rows("who,when,how_many\nA,1,2\n")

    def test_bad_year_reports_row_number(self):
        with pytest.raises(IngestError) as err:
            read_estimate_rows(HEADER + "A,one千,100,\n")
        assert "row 2" in str(err.value)

    @pytest.mark.parametrize(
        "before, line",
        [pytest.param("\n", 3, id="blank-line"), pytest.param('"Mc\nEvedy",1000,100,\n', 4, id="multi-line-field")],
    )
    def test_errors_name_the_physical_line(self, before, line):
        # The same line that a `csv.Error` on that row names.
        with pytest.raises(IngestError, match=f"^row {line}: year and populations must be integers"):
            read_estimate_rows(HEADER + before + "A,one,100,\n")
        with pytest.raises(IngestError, match=f"^row {line}: field larger than field limit"):
            read_estimate_rows(HEADER + before + "s" * 131073 + ",2000,1,\n")
        with pytest.raises(IngestError, match=f"^row {line + 1}: duplicate .* first seen at row {line}$"):
            read_estimate_rows(HEADER + before + "A,1000,100,\nA,1000,200,\n")

    def test_blank_rows_before_the_header_are_skipped(self):
        assert read_estimate_rows("\n , \n" + HEADER + "A,1000,100,\n") == [EstimateRow("A", 1000, 100)]
        with pytest.raises(IngestError, match="^row 4: year and populations must be integers$"):
            read_estimate_rows("\n\n" + HEADER + "A,one,100,\n")

    @pytest.mark.parametrize("text", ["", "\n", "\n , \n\n"], ids=["empty", "blank-line", "blank-rows"])
    def test_a_file_of_blank_rows_has_no_header(self, text):
        with pytest.raises(IngestError, match="^empty CSV: expected a header row$"):
            read_estimate_rows(text)

    def test_bad_population_rejected(self):
        with pytest.raises(IngestError):
            read_estimate_rows(HEADER + "A,1000,many,\n")

    def test_duplicate_source_year_rejected(self):
        with pytest.raises(IngestError):
            read_estimate_rows(HEADER + "A,1000,100,\nA,1000,200,\n")

    def test_year_zero_and_negatives_allowed(self):
        rows = read_estimate_rows(HEADER + "A,0,100,\nA,-400,90,\n")
        assert [r.year for r in rows] == [0, -400]


class TestIngest:
    def _rows(self):
        return [
            EstimateRow("McEvedyJones", -400, 153200000, 171000000),
            EstimateRow("Biraben", -400, 162000000),
            EstimateRow("Biraben", 0, 255000000),
        ]

    def test_one_statement_per_row(self):
        result = ingest_rows(self._rows())
        assert len(result.statements) == 3

    def test_statement_shape(self):
        result = ingest_rows(self._rows())
        statement = result.statements[1]
        assert statement.base.subject == EARTH
        assert statement.base.predicate == POPULATION_TOTAL
        assert statement.base.object == Literal("162000000", datatype=XSD.integer)
        pairs = dict(statement.assignment_pairs())
        assert pairs["temporal"] == interval_iri(-400)
        assert pairs["provenance"] == activity_iri("Biraben")

    def test_interval_estimate_statement_value(self):
        result = ingest_rows(self._rows())
        mcevedy = result.statements[0]
        assert mcevedy.base.object == Literal("162100000", datatype=XSD.integer)

    def test_registry_provides_temporal_and_provenance(self):
        result = ingest_rows(self._rows())
        assert result.registry.names() == ["provenance", "temporal"]

    def test_interval_description_graph(self):
        result = ingest_rows(self._rows())
        interval = interval_iri(-400)
        descriptions = result.descriptions
        assert Triple(interval, RDF_TYPE, TIME.Interval) in descriptions
        assert (
            Triple(interval, TIME.year, Literal("-400", datatype=XSD.integer))
            in descriptions
        )
        # The nested spelling: interval -> intervalDuring -> description -> year.
        (during,) = descriptions.match(subject=interval, predicate=TIME.intervalDuring)
        (desc_edge,) = descriptions.match(
            subject=during.object, predicate=TIME.hasDateTimeDescription
        )
        description = desc_edge.object
        assert Triple(description, RDF_TYPE, TIME.DateTimeDescription) in descriptions
        assert (
            Triple(description, TIME.year, Literal("-400", datatype=XSD.integer))
            in descriptions
        )

    def test_activity_description_graph(self):
        result = ingest_rows(self._rows())
        activity = activity_iri("Biraben")
        descriptions = result.descriptions
        assert Triple(activity, RDF_TYPE, PROV.Activity) in descriptions
        (assoc,) = descriptions.match(
            subject=activity, predicate=PROV.wasAssociatedWith
        )
        assert Triple(assoc.object, RDF_TYPE, PROV.Agent) in descriptions

    def test_source_names_are_percent_quoted(self):
        iri = activity_iri("van der Berg")
        assert " " not in iri.value and "van%20der%20Berg" in iri.value

    def test_ingest_csv_accepts_text_and_file_objects(self):
        text = HEADER + "A,1000,100,\n"
        from_text = ingest_csv(text)
        from_file = ingest_csv(io.StringIO(text))
        assert from_text.statements == from_file.statements

    def test_custom_base_namespace(self):
        result = ingest_rows(self._rows(), base="http://example.org/pop#")
        pairs = dict(result.statements[0].assignment_pairs())
        assert pairs["temporal"].value.startswith("http://example.org/pop#")

    def test_earth_is_the_dbpedia_resource(self):
        assert EARTH == DBR.Earth
