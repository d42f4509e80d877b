"""End-to-end command-line tests driven through `main(argv)`."""

import contextlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import EX, core_extent_graph, part_chain

from ndfluents import (
    RDF,
    XSD,
    CombinationModel,
    Iri,
    Literal,
    MintingPolicy,
    Triple,
    annotate,
    contextualize,
    default_config,
    write_statements_csv,
)
from ndfluents import cli
from ndfluents.cli import build_parser, main
from ndfluents.config import load_config
from ndfluents.parser import parse_ntriples, parse_turtle
from ndfluents.serializer import serialize_ntriples
from ndfluents.vocabulary import (
    CORE,
    axioms_from_graph,
    functional,
    temporal_dimension,
    transitive,
)

FIXTURE_CSV = "fixtures/world_population.csv"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args, hash_seed="0"):
    """Run the command line in a fresh interpreter with the given hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ndfluents.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture
def statements():
    return [
        annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.year508)),
        annotate(
            EX.Paris,
            EX.capitalOf,
            EX.France,
            ("temporal", EX.year2016),
            ("provenance", EX.dbpedia),
        ),
    ]


@pytest.fixture
def statements_csv(tmp_path, statements):
    path = tmp_path / "statements.csv"
    path.write_text(write_statements_csv(statements), encoding="utf-8")
    return path


@pytest.fixture
def graph_file(tmp_path, statements):
    config = default_config()
    graph = contextualize(
        statements, config.registry, CombinationModel.multi_context(), MintingPolicy()
    )
    path = tmp_path / "graph.nt"
    path.write_text(serialize_ntriples(graph), encoding="utf-8")
    return path


class TestGenOntology:
    def test_stdout_turtle(self, capsys):
        assert main(["gen-ontology"]) == 0
        out = capsys.readouterr().out
        assert "@prefix nd:" in out
        axioms = axioms_from_graph(parse_turtle(out))
        assert functional(CORE.contextualPartOf) in axioms
        assert transitive(CORE.contextualPartOf) not in axioms

    def test_split_writes_one_file_per_module(self, tmp_path, capsys):
        out_dir = tmp_path / "modules"
        assert main(["gen-ontology", "--split", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "core.ttl",
            "datatype.ttl",
            "dimension-provenance.ttl",
            "dimension-temporal.ttl",
            "restrictions-provenance.ttl",
            "restrictions-temporal.ttl",
        ]

    def test_nested_model_adds_transitivity_module(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[core]\nmodel = a\n", encoding="utf-8")
        out_dir = tmp_path / "modules"
        assert main(["gen-ontology", "-c", str(config), "--split", str(out_dir)]) == 0
        text = (out_dir / "transitivity.ttl").read_text(encoding="utf-8")
        assert transitive(CORE.contextualPartOf) in axioms_from_graph(parse_turtle(text))

    def test_combined_model_adds_combined_modules(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[core]\nmodel = c\n", encoding="utf-8")
        out_dir = tmp_path / "modules"
        assert main(["gen-ontology", "-c", str(config), "--split", str(out_dir)]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert {"combined-extent.ttl", "combined-provenance-temporal.ttl"} <= names
        text = (out_dir / "combined-extent.ttl").read_text(encoding="utf-8")
        assert functional(CORE.contextualExtent) in axioms_from_graph(parse_turtle(text))

    def test_ntriples_output(self, tmp_path):
        out = tmp_path / "tbox.nt"
        assert main(["gen-ontology", "-o", str(out), "--format", "ntriples"]) == 0
        graph = parse_ntriples(out.read_text(encoding="utf-8"))
        assert len(graph) > 0


class TestIngestAndStats:
    def test_ingest_writes_statement_csv(self, capsys):
        assert main(["ingest-csv", FIXTURE_CSV]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "subject,predicate,object,objectType,dim1,ctx1,dim2,ctx2"
        assert len(lines) == 1 + 19
        assert all("provenance" in line and "temporal" in line for line in lines[1:])

    def test_ingest_descriptions_graph(self, tmp_path, capsys):
        desc = tmp_path / "desc.ttl"
        assert main(["ingest-csv", FIXTURE_CSV, "--descriptions", str(desc)]) == 0
        graph = parse_turtle(desc.read_text(encoding="utf-8"))
        years = graph.match(predicate=Iri("http://www.w3.org/2006/time#year"))
        assert {t.object.lexical for t in years} == {
            "-400",
            "0",
            "1000",
            "1500",
            "1900",
        }

    def test_stats_table(self, statements_csv, capsys):
        assert main(["stats", str(statements_csv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "representation,model,triples"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("ndfluents", "contexts-in-context"),
            ("ndfluents", "multi-context"),
            ("ndfluents", "combined-extent"),
            ("reification", ""),
            ("singleton", ""),
        ]
        counts = {(r[0], r[1]): int(r[2]) for r in rows}
        assert counts[("reification", "")] == (4 + 1) + (4 + 2)
        assert counts[("singleton", "")] == (2 + 1) + (2 + 2)


class TestContextualizeRoundTrip:
    def test_contextualize_to_turtle_stdout(self, statements_csv, capsys):
        assert main(["contextualize", str(statements_csv)]) == 0
        out = capsys.readouterr().out
        graph = parse_turtle(out)
        parts = list(graph.match(predicate=RDF.type, obj=CORE.ContextualPart))
        assert not parts  # parts carry dimension part classes, not the superclass
        assert list(graph.match(predicate=temporal_dimension().part_of, obj=EX.Paris))

    def test_round_trip_is_byte_identical(self, tmp_path, statements_csv, capsys):
        graph_path = tmp_path / "graph.ttl"
        assert main(["contextualize", str(statements_csv), "-o", str(graph_path)]) == 0
        back = tmp_path / "back.csv"
        assert main(["decontextualize", str(graph_path), "-o", str(back)]) == 0
        assert back.read_bytes() == statements_csv.read_bytes()

    def test_round_trip_under_related_predicates(self, tmp_path, statements_csv):
        # contextualize writes ex:capitalOf#contextual; decontextualize
        # under the same config gives ex:capitalOf back.
        config = tmp_path / "run.ini"
        config.write_text("[core]\npredicate_mode = related\n", encoding="utf-8")
        graph_path = tmp_path / "graph.ttl"
        back = tmp_path / "back.csv"
        assert main(["contextualize", "-c", str(config), str(statements_csv), "-o", str(graph_path)]) == 0
        assert "capitalOf#contextual" in graph_path.read_text(encoding="utf-8")
        assert main(["decontextualize", "-c", str(config), str(graph_path), "-o", str(back)]) == 0
        assert back.read_bytes() == statements_csv.read_bytes()

    def test_out_format_ntriples(self, tmp_path, statements_csv):
        graph_path = tmp_path / "graph.any"
        assert (
            main(
                [
                    "contextualize",
                    str(statements_csv),
                    "-o",
                    str(graph_path),
                    "--out-format",
                    "ntriples",
                ]
            )
            == 0
        )
        assert parse_ntriples(graph_path.read_text(encoding="utf-8"))

    def test_merge_unions_graphs(self, tmp_path, statements_csv, capsys):
        extra = tmp_path / "extra.nt"
        extra.write_text(
            "<http://example.org/Paris> <http://example.org/pop> "
            '"2200000"^^<http://www.w3.org/2001/XMLSchema#integer> .\n',
            encoding="utf-8",
        )
        assert main(["contextualize", str(statements_csv), "--merge", str(extra)]) == 0
        merged = parse_turtle(capsys.readouterr().out)
        assert Triple(EX.Paris, EX.pop, Literal("2200000", XSD.integer)) in merged

    def test_merge_keeps_the_blank_nodes_of_each_file_apart(self, tmp_path, statements_csv, capsys):
        merges = []
        for word in ("one", "two"):
            path = tmp_path / f"{word}.ttl"
            path.write_text(f'_:x <http://example.org/label> "{word}" .\n', encoding="utf-8")
            merges += ["--merge", str(path)]
        assert main(["contextualize", str(statements_csv), *merges]) == 0
        merged = parse_turtle(capsys.readouterr().out)
        labels = {t.subject: t.object.lexical for t in merged.match(predicate=EX.label)}
        assert sorted(labels.values()) == ["one", "two"]

    def test_context_selection(self, tmp_path, statements_csv, capsys):
        graph_path = tmp_path / "graph.ttl"
        assert main(["contextualize", str(statements_csv), "-o", str(graph_path)]) == 0
        assert (
            main(
                [
                    "decontextualize",
                    str(graph_path),
                    "--context",
                    EX.year508.value,
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # header + the single year-508 statement
        assert "year508" in lines[1]

    def test_nquads_bundle_round_trip(self, tmp_path, statements_csv):
        bundles = tmp_path / "bundles.nq"
        sidecar = tmp_path / "bundles.contexts.csv"
        csv_text = statements_csv.read_text(encoding="utf-8")
        assert (
            main(
                [
                    "decontextualize",
                    "--format",
                    "nquads",
                    "--sidecar",
                    str(sidecar),
                    "-o",
                    str(bundles),
                    str(_contextualized(tmp_path, statements_csv)),
                ]
            )
            == 0
        )
        back = tmp_path / "back.csv"
        assert (
            main(
                [
                    "contextualize",
                    str(bundles),
                    "--format",
                    "nquads",
                    "--sidecar",
                    str(sidecar),
                    "-o",
                    str(tmp_path / "graph2.ttl"),
                ]
            )
            == 0
        )
        assert (
            main(["decontextualize", str(tmp_path / "graph2.ttl"), "-o", str(back)])
            == 0
        )
        assert back.read_text(encoding="utf-8") == csv_text


def _contextualized(tmp_path, statements_csv):
    graph_path = tmp_path / "for-bundles.ttl"
    assert main(["contextualize", str(statements_csv), "-o", str(graph_path)]) == 0
    return graph_path


class TestValidate:
    def test_clean_graph_exits_zero(self, graph_file, capsys):
        assert main(["validate", str(graph_file)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one_and_report(self, tmp_path, graph_file, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text(
            graph_file.read_text(encoding="utf-8")
            + "<http://example.org/stray> "
            "<http://purl.org/NET/ndfluents/4dFluents#temporalPartOf> "
            "<http://example.org/year508> .\n",
            encoding="utf-8",
        )
        report = tmp_path / "violations.json"
        assert main(["validate", str(bad), "--report", str(report)]) == 1
        out = capsys.readouterr().out
        assert "MissingPartOf" in out or "RangeComplement" in out
        entries = json.loads(report.read_text(encoding="utf-8"))
        assert entries and all(
            {"kind", "subjects", "detail", "triples"} <= set(e) for e in entries
        )

    def test_no_same_extent_silences_extent_mismatch(self, tmp_path, statements_csv, capsys):
        graph_path = tmp_path / "graph.nt"
        assert (
            main(
                [
                    "contextualize",
                    str(statements_csv),
                    "-o",
                    str(graph_path),
                    "--out-format",
                    "ntriples",
                ]
            )
            == 0
        )
        # Link the two Paris parts, whose temporal extents differ.
        config = default_config()
        graph = parse_ntriples(graph_path.read_text(encoding="utf-8"))
        parts = sorted(
            {
                t.subject
                for t in graph.match(predicate=temporal_dimension().part_of, obj=EX.Paris)
            },
            key=lambda term: term.n3(),
        )
        assert len(parts) == 2
        with graph_path.open("a", encoding="utf-8") as handle:
            handle.write(f"{parts[0].n3()} <http://example.org/knows> {parts[1].n3()} .\n")
        assert main(["validate", str(graph_path)]) == 1
        assert "SameExtent" in capsys.readouterr().out
        assert main(["validate", str(graph_path), "--no-same-extent"]) == 0


class TestReason:
    def test_derived_only_output(self, graph_file, capsys):
        assert main(["reason", "--derived-only", str(graph_file)]) == 0
        derived = parse_turtle(capsys.readouterr().out)
        # Dimension part classes sit below the generic contextual-part class.
        assert list(derived.match(predicate=RDF.type, obj=CORE.ContextualPart))
        # Source triples are not repeated.
        assert not list(derived.match(predicate=temporal_dimension().extent))

    def test_full_output_includes_source(self, graph_file, capsys):
        assert main(["reason", str(graph_file)]) == 0
        full = parse_turtle(capsys.readouterr().out)
        assert list(full.match(predicate=temporal_dimension().extent))
        assert list(full.match(predicate=RDF.type, obj=CORE.ContextualPart))

    def test_verbose_logs_the_size_of_each_round(self, graph_file, caplog):
        with caplog.at_level(logging.INFO, logger="ndfluents"):
            assert main(["-v", "reason", str(graph_file), "-o", os.devnull]) == 0
        (line,) = [r.message for r in caplog.records if r.message.startswith("rounds ")]
        rounds = json.loads(line.removeprefix("rounds "))
        assert rounds and all(isinstance(size, int) and size > 0 for size in rounds)

    def test_extra_tbox_file(self, tmp_path, graph_file, capsys):
        from ndfluents.vocabulary import axioms_to_graph, sub_class_of

        tbox = tmp_path / "extra.ttl"
        extra = axioms_to_graph([sub_class_of(CORE.Context, EX.Thing)])
        tbox.write_text(serialize_ntriples(extra), encoding="utf-8")
        assert (
            main(
                [
                    "reason",
                    "--derived-only",
                    "--tbox",
                    str(tbox),
                    str(graph_file),
                ]
            )
            == 0
        )
        derived = parse_turtle(capsys.readouterr().out)
        assert list(derived.match(obj=EX.Thing))


    @pytest.mark.parametrize("model", ["multi-context", "contexts-in-context", "combined-extent"])
    def test_the_written_ontology_reads_back_as_the_configured_tbox(self, tmp_path, model):
        config = tmp_path / "run.ini"
        config.write_text(f"[core]\nmodel = {model}\n", encoding="utf-8")
        tbox = tmp_path / "tbox.ttl"
        assert main(["gen-ontology", "-c", str(config), "-o", str(tbox)]) == 0
        read_back = axioms_from_graph(parse_turtle(tbox.read_text(encoding="utf-8")))
        assert set(read_back) == set(load_config(config.read_text(encoding="utf-8")).axioms())
        graph = GOLDEN / f"object_parts.{model}.nt"
        written = []
        for extra in ([], ["--tbox", str(tbox)]):
            out = tmp_path / f"reasoned{len(extra)}.ttl"
            assert main(["reason", "-c", str(config), str(graph), *extra, "-o", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestQuery:
    def test_pattern_to_csv(self, tmp_path, graph_file, capsys):
        pattern = tmp_path / "pattern.rq"
        pattern.write_text(
            "PREFIX 4d: <http://purl.org/NET/ndfluents/4dFluents#>\n"
            "?part 4d:temporalPartOf ?entity .\n"
            "GROUP BY ?entity\n"
            "AGG COUNT ?part AS parts\n",
            encoding="utf-8",
        )
        assert main(["query", str(graph_file), "--pattern", str(pattern)]) == 0
        # Both Paris (subject) and France (object) carry one part per context set.
        assert capsys.readouterr().out == (
            "entity,parts\n"
            "http://example.org/France,2\n"
            "http://example.org/Paris,2\n"
        )

    def test_a_core_extent_context_filter(self, tmp_path, capsys):
        # The part reaches EX.y2016 through the core extent, and EX.y2016 is
        # typed as a temporal interval.
        graph = tmp_path / "graph.nt"
        graph.write_text(serialize_ntriples(core_extent_graph()), encoding="utf-8")
        pattern = tmp_path / "pattern.rq"
        pattern.write_text(
            "?part <http://example.org/population> ?n .\n"
            "CONTEXT temporal <http://example.org/y2016>\n",
            encoding="utf-8",
        )
        assert main(["query", str(graph), "--pattern", str(pattern)]) == 0
        assert capsys.readouterr().out == "part,n\nhttp://example.org/Paris@y2016,5\n"

    def test_out_file(self, tmp_path, graph_file):
        pattern = tmp_path / "pattern.rq"
        pattern.write_text("?s ?p ?o .\nAGG COUNT ?s AS n\n", encoding="utf-8")
        out = tmp_path / "result.csv"
        assert main(["query", str(graph_file), "--pattern", str(pattern), "-o", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "n"
        assert int(rows[1]) == len(parse_ntriples(graph_file.read_text(encoding="utf-8")))

    def test_population_pipeline(self, tmp_path, capsys):
        statements = tmp_path / "population.csv"
        descriptions = tmp_path / "descriptions.ttl"
        graph = tmp_path / "population.ttl"
        assert (
            main(
                [
                    "ingest-csv",
                    FIXTURE_CSV,
                    "-o",
                    str(statements),
                    "--descriptions",
                    str(descriptions),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "contextualize",
                    str(statements),
                    "--merge",
                    str(descriptions),
                    "-o",
                    str(graph),
                ]
            )
            == 0
        )
        pattern = tmp_path / "pattern.rq"
        pattern.write_text(
            "PREFIX nd: <http://purl.org/NET/ndfluents#>\n"
            "PREFIX 4d: <http://purl.org/NET/ndfluents/4dFluents#>\n"
            "PREFIX time: <http://www.w3.org/2006/time#>\n"
            "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
            "?part dbo:populationTotal ?pop .\n"
            "?part 4d:temporalExtent ?interval .\n"
            "?interval time:intervalDuring ?spec .\n"
            "?spec time:hasDateTimeDescription ?desc .\n"
            "?desc time:year ?year .\n"
            "GROUP BY ?year\n"
            "AGG AVG ?pop AS avg_population\n"
            "AGG COUNT DISTINCT ?part AS estimates\n",
            encoding="utf-8",
        )
        assert main(["query", str(graph), "--pattern", str(pattern)]) == 0
        assert capsys.readouterr().out == (
            "year,avg_population,estimates\n"
            "-400,159033333.33,3\n"
            "0,228375000.00,4\n"
            "1000,281000000.00,4\n"
            "1500,459300000.00,4\n"
            "1900,1648000000.00,4\n"
        )


class TestSubprocess:
    def test_context_query_on_a_deep_part_chain(self, tmp_path):
        graph = tmp_path / "chain.nt"
        graph.write_text(serialize_ntriples(part_chain(3000)), encoding="utf-8")
        pattern = tmp_path / "pattern.rq"
        pattern.write_text(
            "CONTEXT temporal <http://example.org/y2016>\n"
            "?part <http://example.org/population> ?v .\n"
            "AGG SUM ?v AS total\n",
            encoding="utf-8",
        )
        done = run_cli(["query", graph, "--pattern", pattern])
        assert (done.returncode, done.stdout) == (0, "total\n5\n")
        assert "Traceback" not in done.stderr

    def test_malformed_graph_exits_two_with_a_positioned_error(self, tmp_path):
        graph = tmp_path / "bad.ttl"
        graph.write_text('<http://e.org/s> <http://e.org/p> "x" .\n_:a <http://e.org/p> "\\U00110000" .\n')
        done = run_cli(["validate", graph])
        assert done.returncode == 2
        assert done.stderr == f"error: {graph}: line 2, column 23: malformed \\u escape\n"

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        statements = tmp_path / "population.csv"
        descriptions = tmp_path / "descriptions.ttl"
        graph = tmp_path / "population.ttl"
        assert main(["ingest-csv", FIXTURE_CSV, "-o", str(statements), "--descriptions", str(descriptions)]) == 0
        assert main(["contextualize", str(statements), "--merge", str(descriptions), "-o", str(graph)]) == 0
        faulty = tmp_path / "faulty.ttl"
        part = "<http://dbpedia.org/resource/Earth@interval_0_source_Biraben>"
        faulty.write_text(
            graph.read_text(encoding="utf-8")
            + f"{part} a <http://purl.org/NET/ndfluents#Context> ;\n"
            "    <http://purl.org/NET/ndfluents/4dFluents#temporalPartOf> "
            "<http://dbpedia.org/resource/Mars> , "
            "<http://purl.org/NET/ndfluents/population#interval_0> ;\n"
            "    <http://example.org/linked> "
            "<http://dbpedia.org/resource/Earth@interval_-400_source_Biraben> .\n"
            "<http://example.org/x> a <http://purl.org/NET/ndfluents/4dFluents#TemporalPart> .\n"
            # four values of a functional partOf property: one violation,
            # whose witness must not depend on set order
            "<http://example.org/y> <http://purl.org/NET/ndfluents#contextualPartOf> "
            "<http://example.org/w1> , <http://example.org/w2> , <http://example.org/w3> , "
            "<http://example.org/w4> .\n",
            encoding="utf-8",
        )
        pattern = tmp_path / "pattern.rq"
        pattern.write_text(
            "PREFIX 4d: <http://purl.org/NET/ndfluents/4dFluents#>\n"
            "PREFIX time: <http://www.w3.org/2006/time#>\n"
            "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
            "?part dbo:populationTotal ?pop .\n"
            "?part 4d:temporalExtent ?interval .\n"
            "?interval time:intervalDuring ?spec .\n"
            "?spec time:hasDateTimeDescription ?desc .\n"
            "?desc time:year ?year .\n"
            "GROUP BY ?year\n"
            "AGG AVG ?pop AS avg_population\n"
            "AGG COUNT DISTINCT ?part AS estimates\n",
            encoding="utf-8",
        )
        commands = {
            "contextualize": ["contextualize", statements, "--merge", descriptions],
            "decontextualize": ["decontextualize", graph],
            "query": ["query", graph, "--pattern", pattern],
            "validate": ["validate", faulty],
            "reason": ["reason", faulty],
        }
        # Terms hash by address, so set order differs between any two
        # processes, whatever the hash seed: equal output across these runs
        # is what shows that no output depends on it.
        for name, args in commands.items():
            runs = [run_cli(args, hash_seed) for hash_seed in ("0", "1", "2")]
            assert [done.returncode for done in runs] == [1 if name == "validate" else 0] * 3, name
            outputs = {(done.stdout, done.stderr) for done in runs}
            assert runs[0].stdout and outputs == {(runs[0].stdout, runs[0].stderr)}, name


_CSV_HEADER = "subject,predicate,object,objectType,dim1,ctx1\n"
_CSV_ROW = "http://e.org/a,http://e.org/p,http://e.org/b,iri,temporal,http://e.org/t1\n"

# (input kind, file content, a piece of the one error line); each kind is
# fed to the command that reads it.
MALFORMED_INPUTS = {
    "csv-truncated": ("csv", (_CSV_HEADER + _CSV_ROW)[:70], "row 2: expected at least one"),
    "csv-open-quote": ("csv", _CSV_HEADER + 'http://e.org/a,http://e.org/p,"http://e.org/b,iri\n', "row 2"),
    "csv-wrong-header": ("csv", "subj,pred,obj,type,dim1,ctx1\n" + _CSV_ROW, "bad header"),
    "csv-empty": ("csv", "", "empty statements CSV"),
    "csv-relative-iri": ("csv", _CSV_HEADER + _CSV_ROW.replace("http://e.org/a", "a"), "row 2: IRI is not absolute"),
    "csv-relative-context": ("csv", _CSV_HEADER + _CSV_ROW.replace("http://e.org/t1", "t1"), "row 2: IRI is not absolute"),
    "csv-undecodable": ("csv", _CSV_HEADER.encode() + b"http://e.org/\xff" + _CSV_ROW[14:].encode(), "not UTF-8 at byte 59"),
    "csv-dangling-dimension": ("csv", _CSV_HEADER[:-1] + ",dim2\n" + _CSV_ROW[:-1] + ",provenance\n", "row 2: dangling dimension"),
    "csv-unknown-dimension": ("csv", _CSV_HEADER + _CSV_ROW.replace("temporal", "spatial"), "unknown dimension: 'spatial'"),
    "csv-oversized-field": (
        "csv", _CSV_HEADER + _CSV_ROW.replace("http://e.org/a", "http://e.org/" + "a" * 131072),
        "row 2: field larger than field limit",
    ),
    "estimates-oversized-field": (
        "estimates", "source,year,population_low,population_high\n" + "s" * 131073 + ",2000,1,\n",
        "row 2: field larger than field limit",
    ),
    "sidecar-oversized-field": (
        "sidecar", "bundle,dimension,context\nhttp://e.org/" + "b" * 131072 + ",temporal,http://e.org/t1\n",
        "sidecar row 2: field larger than field limit",
    ),
    "config-truncated": ("config", "[core]\nmodel", "line 2: expected key = value"),
    "config-bad-section-header": ("config", "[core\nmodel = multi-context\n", "line 1: expected a [section] header"),
    "config-unknown-section": ("config", "[weird]\n", "unknown config section [weird]"),
    "config-relative-iri": ("config", "[core]\nnamespace = relative#\n", "IRI is not absolute"),
    "config-relative-combined-base": (
        "config", "[core]\ncombined_base = rel\n", "[core] combined_base: IRI is not absolute (missing scheme): 'rel'"
    ),
    "config-relative-context-base": (
        "config", "[minting]\ncontext_base = rel\n", "[minting] context_base: IRI is not absolute (missing scheme): 'rel'"
    ),
    "config-relative-dimension-base": (
        "config", "[dimension.trust]\nbase = rel#\n", "[dimension.trust] base: IRI is not absolute (missing scheme): 'rel#'"
    ),
    "config-undecodable": ("config", b"[core]\nnamespace = \xff\n", "not UTF-8 at byte 19"),
    "config-dangling-dimension": (
        "config",
        "[core]\nmodel = contexts-in-context\nnesting_order = temporal, spatial\n",
        "nesting_order names unregistered dimensions: spatial",
    ),
    "config-unknown-key": ("config", "[dimension.spatial]\ncolour = red\n", "unknown keys: colour"),
    "pattern-truncated": ("pattern", "?s ?p", "line 1: a triple pattern needs exactly 3 terms"),
    "pattern-bad-group": ("pattern", "?s ?p ?o .\nGROUP BY\n", "line 2: expected GROUP BY ?variable"),
    "pattern-relative-iri": ("pattern", "<rel> ?p ?o .\n", "line 1: relative IRI 'rel'"),
    "pattern-undecodable": ("pattern", b'?s ?p "\xff" .\n', "not UTF-8 at byte 7"),
    "pattern-dangling-dimension": ("pattern", "?s ?p ?o .\nCONTEXT temporal\n", "line 2: expected CONTEXT dimension <iri>"),
    "pattern-unknown-dimension": (
        "pattern",
        "?s ?p ?o .\nCONTEXT temporl <http://e.org/t1>\n",
        "unknown dimension 'temporl' in the context filter; registered: provenance, temporal",
    ),
}


class TestMalformedInputs:
    """Every malformed statements, estimates, sidecar, config or pattern
    file exits 2 with one `error:` line and no traceback, in a fresh
    interpreter."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_two_with_one_error_line(self, tmp_path, case):
        kind, content, expected = MALFORMED_INPUTS[case]
        bad = tmp_path / f"bad.{kind}"
        if isinstance(content, str):
            content = content.encode("utf-8")
        bad.write_bytes(content)
        good_csv = tmp_path / "good.csv"
        good_csv.write_text(_CSV_HEADER + _CSV_ROW, encoding="utf-8")
        graph = tmp_path / "graph.nt"
        graph.write_text("<http://e.org/a@t1> <http://e.org/p> <http://e.org/b@t1> .\n", encoding="utf-8")
        quads = tmp_path / "good.nq"
        quads.write_text("<http://e.org/a> <http://e.org/p> <http://e.org/b> <http://e.org/bundle> .\n", encoding="utf-8")
        argv = {
            "csv": ["contextualize", bad],
            "estimates": ["ingest-csv", bad],
            "sidecar": ["contextualize", quads, "--format", "nquads", "--sidecar", bad],
            "config": ["contextualize", good_csv, "-c", bad],
            "pattern": ["query", graph, "--pattern", bad],
        }[kind]
        done = run_cli(argv)
        lines = done.stderr.splitlines()
        assert (done.returncode, done.stdout, len(lines)) == (2, "", 1), done.stderr
        assert lines[0].startswith("error: ") and expected in lines[0]


class TestSyntaxErrorNamesItsFile:
    """A syntax error's `error:` line names the file that holds it, for
    each RDF input the CLI reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["validate", "{bad}.ttl"], id="graph"),
            pytest.param(["contextualize", "{csv}", "--merge", "{bad}.ttl"], id="merge"),
            pytest.param(["validate", "{graph}", "--tbox", "{bad}.ttl"], id="validate-tbox"),
            pytest.param(["reason", "{graph}", "--tbox", "{bad}.ttl"], id="reason-tbox"),
            pytest.param(
                ["contextualize", "{bad}.nq", "--format", "nquads", "--sidecar", "{sidecar}"], id="nquads-statements"
            ),
            pytest.param(
                ["contextualize", "{quads}", "--format", "nquads", "--sidecar", "{bad}.ttl", "--sidecar-format", "turtle"],
                id="turtle-sidecar",
            ),
        ],
    )
    def test_the_error_line_names_the_faulty_file(self, tmp_path, capsys, argv):
        files = {
            "csv": ("good.csv", _CSV_HEADER + _CSV_ROW),
            "graph": ("good.nt", "<http://e.org/a@t1> <http://e.org/p> <http://e.org/b@t1> .\n"),
            "quads": ("good.nq", "<http://e.org/a> <http://e.org/p> <http://e.org/b> <http://e.org/bundle> .\n"),
            "sidecar": ("good.sidecar.csv", "bundle,dimension,context\nhttp://e.org/bundle,temporal,http://e.org/t1\n"),
        }
        paths = {key: tmp_path / name for key, (name, _) in files.items()}
        for key, (_, text) in files.items():
            paths[key].write_text(text, encoding="utf-8")
        argv = [arg.format(bad=tmp_path / "bad", **paths) for arg in argv]
        bad = next(arg for arg in argv if Path(arg).name.startswith("bad."))
        Path(bad).write_text('<http://e.org/a> <http://e.org/p> "x .\n', encoding="utf-8")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 1, column 39: newline inside string literal\n"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["validate", "no/such/file.ttl"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_statement_format_rejected_by_argparse(self, statements_csv, capsys):
        assert main(["contextualize", str(statements_csv), "--format", "xml"]) == 2

    def test_bad_in_format(self, graph_file, capsys):
        assert main(["validate", str(graph_file), "--in-format", "rdfxml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text("<http://a> <http://b> .\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bad.nt" in err

    def test_context_filter_with_an_unregistered_dimension(self, tmp_path, graph_file, capsys):
        pattern = tmp_path / "pattern.rq"
        pattern.write_text("?s ?p ?o .\nCONTEXT temporl <http://example.org/year508>\n", encoding="utf-8")
        assert main(["query", str(graph_file), "--pattern", str(pattern)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown dimension 'temporl' in the context filter; "
            "registered: provenance, temporal\n"
        )

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_an_aggregate_past_the_digit_limit(self, tmp_path, capsys):
        graph = tmp_path / "big.nt"
        graph.write_text(
            f'<http://example.org/a> <http://example.org/v> "{"9" * 5000}"'
            "^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            encoding="utf-8",
        )
        pattern = tmp_path / "pattern.rq"
        pattern.write_text("?s <http://example.org/v> ?v .\nAGG SUM ?v AS total\n", encoding="utf-8")
        assert main(["query", str(graph), "--pattern", str(pattern)]) == 2
        assert capsys.readouterr().err == (
            'error: SUM(?v) over "99999999999999999999..."^^'
            "<http://www.w3.org/2001/XMLSchema#integer> (5,000 characters) has more "
            "digits than Python writes out as text (see sys.set_int_max_str_digits)\n"
        )

    def test_malformed_pattern(self, tmp_path, graph_file, capsys):
        pattern = tmp_path / "pattern.rq"
        pattern.write_text("GROUP BY ?ghost\n", encoding="utf-8")
        assert main(["query", str(graph_file), "--pattern", str(pattern)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[core]\nmodel = quantum\n", encoding="utf-8")
        assert main(["gen-ontology", "-c", str(config)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nquads_without_sidecar(self, tmp_path, graph_file, capsys):
        assert (
            main(["decontextualize", str(graph_file), "--format", "nquads"]) == 2
        )
        assert "sidecar" in capsys.readouterr().err

    def test_verbose_logs_progress(self, statements_csv, caplog):
        with caplog.at_level(logging.INFO, logger="ndfluents"):
            assert main(["-v", "contextualize", str(statements_csv), "-o", "/dev/null"]) == 0
        assert any("contextualized" in record.message for record in caplog.records)


def _call(argv, parse=None):
    """Exit code, stdout and stderr of `main(argv)`, or of `parse(argv)` when
    given, each call with standard streams of its own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if parse is None:
            code = main(argv)
        else:
            try:
                parse(argv)
                code = 0
            except SystemExit as exit_:
                code = int(exit_.code or 0)
    return code, out.getvalue(), err.getvalue()


class TestRepeatedCalls:
    """`main` reuses one parser: no call may see the options, the verbosity
    or the streams of an earlier call."""

    def test_each_call_logs_at_its_own_level_to_its_own_stderr(self, tmp_path):
        quiet = _call(["gen-ontology", "-o", str(tmp_path / "a.ttl")])
        verbose = _call(["-v", "gen-ontology", "-o", str(tmp_path / "b.ttl")])
        debug = _call(["-vv", "gen-ontology", "-o", str(tmp_path / "c.ttl")])
        quiet_again = _call(["gen-ontology", "-o", str(tmp_path / "d.ttl")])
        assert quiet == quiet_again == (0, "", "")
        assert verbose[0] == debug[0] == 0
        assert verbose[2].startswith("INFO generated ") and verbose[2].endswith(" axioms\n")
        assert debug[2] == verbose[2]

    def test_a_call_leaves_the_logger_as_it_found_it(self, tmp_path):
        logger = logging.getLogger("ndfluents")
        before = (logger.level, list(logger.handlers))
        _call(["-vv", "gen-ontology", "-o", str(tmp_path / "a.ttl")])
        _call(["-v", "validate", "no/such/file.ttl"])
        assert (logger.level, list(logger.handlers)) == before

    def test_a_single_verbose_run_logs_to_stderr(self, tmp_path):
        done = run_cli(["-v", "gen-ontology", "-o", tmp_path / "a.ttl"])
        assert done.returncode == 0 and done.stdout == ""
        assert done.stderr.startswith("INFO generated ") and done.stderr.count("\n") == 1

    def test_options_do_not_carry_over(self, tmp_path, statements_csv, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_cmd_contextualize", lambda args: seen.append(vars(args)) or 0)
        monkeypatch.setattr(cli, "_cmd_decontextualize", lambda args: seen.append(vars(args)) or 0)
        calls = [
            ["contextualize", str(statements_csv), "--merge", "a.ttl", "--merge", "b.ttl"],
            ["contextualize", str(statements_csv), "--merge", "c.ttl"],
            ["contextualize", str(statements_csv)],
            ["decontextualize", "g.ttl", "--context", "http://e.org/x", "--context", "http://e.org/y"],
            ["decontextualize", "g.ttl", "--context", "http://e.org/z"],
            ["decontextualize", "g.ttl"],
        ]
        for argv in calls:
            assert main(argv) == 0
        assert seen == [vars(build_parser().parse_args(argv)) for argv in calls]
        assert [args.get("merge") for args in seen[:3]] == [["a.ttl", "b.ttl"], ["c.ttl"], None]
        assert [args.get("context") for args in seen[3:]] == [
            ["http://e.org/x", "http://e.org/y"], ["http://e.org/z"], None,
        ]

    def test_merge_and_context_twice_then_none(self, tmp_path, statements_csv):
        extra = tmp_path / "extra.nt"
        extra.write_text(
            '<http://example.org/Paris> <http://example.org/pop> "1" .\n', encoding="utf-8"
        )
        graph = tmp_path / "graph.ttl"
        plain = _call(["contextualize", str(statements_csv)])
        merged = _call(["contextualize", str(statements_csv), "--merge", str(extra)])
        assert _call(["contextualize", str(statements_csv), "--merge", str(extra)]) == merged
        assert _call(["contextualize", str(statements_csv)]) == plain != merged
        graph.write_text(plain[1], encoding="utf-8")
        everything = _call(["decontextualize", str(graph)])
        sliced = _call(["decontextualize", str(graph), "--context", str(EX.year508)])
        assert _call(["decontextualize", str(graph), "--context", str(EX.year508)]) == sliced
        assert _call(["decontextualize", str(graph)]) == everything != sliced
        assert everything[1] == statements_csv.read_text(encoding="utf-8")

    def test_a_usage_error_between_two_good_calls(self, statements_csv):
        good = _call(["contextualize", str(statements_csv)])
        for bad in (["contextualize"], ["contextualize", "x.csv", "--format", "xml"], ["nope"]):
            code, out, err = _call(bad)
            assert (code, out, err) == _call(bad, build_parser().parse_args)
            assert code == 2 and err.startswith("usage: ndfluents")
        assert _call(["contextualize", str(statements_csv)]) == good
        assert good[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"]] + [[command, "--help"] for command in (
            "gen-ontology", "ingest-csv", "contextualize", "decontextualize",
            "validate", "reason", "query", "stats",
        )],
    )
    def test_help_is_a_fresh_parsers(self, argv):
        first = _call(argv)
        assert first[0] == 0 and first[1].startswith("usage: ndfluents")
        assert _call(argv) == first == _call(argv, build_parser().parse_args)

    def test_build_parser_gives_a_parser_of_its_own(self):
        parser = build_parser()
        assert parser is not build_parser()
        parser.add_argument("--extra")
        code, _, err = _call(["gen-ontology", "--extra", "x"])
        assert code == 2 and err.endswith("error: unrecognized arguments: --extra x\n")
