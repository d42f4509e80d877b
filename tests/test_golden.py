"""Byte-identical output on the shipped fixtures.

`fixtures/world_population.csv` is taken through `ingest-csv` and
`contextualize --merge` under each combination model, in Turtle and in
N-Triples, and each output must equal its committed file in `golden/`
byte for byte. The committed files were written by those same commands:

    ndfluents ingest-csv fixtures/world_population.csv \\
        -o population.csv --descriptions contexts.ttl
    ndfluents contextualize -c MODEL.ini population.csv --merge contexts.ttl \\
        -o tests/golden/population.MODEL.ttl

with `MODEL.ini` holding the `[core]` section of `MODELS` below (and
`--out-format ntriples -o tests/golden/population.MODEL.nt` for the other
format). Every population statement has a literal object and two
dimensions, so `fixtures/object_parts.csv` pins the rest: object parts,
statements in one dimension and in two (the one-dimension fallback of
combined-extent, nested chains of one level and of two) and parts shared
between statements. Its files were written by

    ndfluents contextualize -c MODEL.ini fixtures/object_parts.csv \\
        -o tests/golden/object_parts.MODEL.ttl

The ontology each model's configuration calls for is pinned the same way,
blank nodes of its range complement included; its files were written by

    ndfluents gen-ontology -c MODEL.ini -o tests/golden/ontology.MODEL.ttl

(and `--format ntriples -o tests/golden/ontology.MODEL.nt`).

`context_slice` is pinned on those same `contextualize` outputs: the
committed N-Triples file of each input and model, sliced for every context
its statements name, once with the context's dimension and once without,
each slice written as N-Triples to `golden/slices/`. Those files were
written by

    PYTHONPATH=src python tests/test_golden.py --write-slices

`reason` is pinned on those same `contextualize` outputs: the committed
N-Triples file of the population under each model, saturated under the
model's default TBox, written whole and with `--derived-only`, by

    ndfluents reason -c MODEL.ini tests/golden/population.MODEL.nt \\
        --out-format ntriples -o tests/golden/reason.population.MODEL.nt

(and `--derived-only -o tests/golden/reason-derived.population.MODEL.nt`).

A change that means to alter the output regenerates them so.
"""

import sys
from pathlib import Path

import pytest

from ndfluents.cli import main
from ndfluents.config import load_config
from ndfluents.formats import read_statements_csv
from ndfluents.ingest import ingest_csv
from ndfluents.parser import parse_ntriples, parse_turtle
from ndfluents.query import context_slice
from ndfluents.serializer import serialize_ntriples, serialize_turtle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

MODELS = {
    "multi-context": "[core]\nmodel = multi-context\n",
    "contexts-in-context": "[core]\nmodel = contexts-in-context\nnesting_order = temporal, provenance\n",
    "combined-extent": "[core]\nmodel = combined-extent\n",
}


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    statements, contexts = work / "population.csv", work / "contexts.ttl"
    fixture = ROOT / "fixtures" / "world_population.csv"
    assert main(["ingest-csv", str(fixture), "-o", str(statements), "--descriptions", str(contexts)]) == 0
    return work, statements, contexts


# (input, model, format); the population cases have the shorter ids.
CASES = [
    pytest.param(name, model, fmt, id=f"{prefix}{model}-{fmt}")
    for name, prefix in (("population", ""), ("object_parts", "object-parts-"))
    for model in MODELS
    for fmt in ("ttl", "nt")
]


@pytest.mark.parametrize("name, model, fmt", CASES)
def test_contextualize_output_is_byte_identical_to_the_committed_file(ingested, name, model, fmt):
    work, statements, contexts = ingested
    inputs = {
        "population": [str(statements), "--merge", str(contexts)],
        "object_parts": [str(ROOT / "fixtures" / "object_parts.csv")],
    }
    config = work / f"{model}.ini"
    config.write_text(MODELS[model], encoding="utf-8")
    out = work / f"{name}.{model}.{fmt}"
    argv = ["contextualize", "-c", str(config), *inputs[name], "-o", str(out)]
    if fmt == "nt":
        argv += ["--out-format", "ntriples"]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("fmt", ["ttl", "nt"])
def test_gen_ontology_output_is_byte_identical_to_the_committed_file(tmp_path, model, fmt):
    config = tmp_path / f"{model}.ini"
    config.write_text(MODELS[model], encoding="utf-8")
    out = tmp_path / f"ontology.{model}.{fmt}"
    argv = ["gen-ontology", "-c", str(config), "-o", str(out)]
    if fmt == "nt":
        argv += ["--format", "ntriples"]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("model", list(MODELS))
def test_committed_turtle_reads_back_to_its_ntriples_and_writes_back_to_itself(model):
    turtle = (GOLDEN / f"population.{model}.ttl").read_text(encoding="utf-8")
    graph = parse_turtle(turtle)
    assert graph == parse_ntriples((GOLDEN / f"population.{model}.nt").read_bytes())
    assert serialize_turtle(graph, load_config(MODELS[model]).prefixes()) == turtle


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("stem, flags", [("reason", []), ("reason-derived", ["--derived-only"])], ids=["all", "derived"])
def test_reason_output_is_byte_identical_to_the_committed_file(tmp_path, model, stem, flags):
    config = tmp_path / f"{model}.ini"
    config.write_text(MODELS[model], encoding="utf-8")
    out = tmp_path / f"{stem}.population.{model}.nt"
    graph = GOLDEN / f"population.{model}.nt"
    assert main(["reason", "-c", str(config), str(graph), *flags, "--out-format", "ntriples", "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def _slice_cases():
    """(file name, input, model, dimension or None, context) for every
    committed slice: each context the input's statements name, with its
    dimension and with none."""
    fixtures = ROOT / "fixtures"
    statements = {
        "population": ingest_csv((fixtures / "world_population.csv").read_text(encoding="utf-8")).statements,
        "object_parts": read_statements_csv((fixtures / "object_parts.csv").read_text(encoding="utf-8")),
    }
    cases = []
    for name, annotated in statements.items():
        pairs = sorted({(a.dimension, a.context.value, a.context) for s in annotated for a in s.contexts})
        for model in MODELS:
            for dimension, _, context in pairs:
                for given in (dimension, None):
                    stem = f"{name}.{model}.{given or 'any'}.{context.local_name()}"
                    cases.append((f"{stem}.nt", name, model, given, context))
    return cases


SLICE_CASES = _slice_cases()


def _slice_ntriples(name, model, dimension, context):
    graph = parse_ntriples((GOLDEN / f"{name}.{model}.nt").read_bytes())
    config = load_config(MODELS[model])
    return serialize_ntriples(context_slice(graph, config.registry, context, dimension, config.vocab))


@pytest.mark.parametrize(
    "file_name, name, model, dimension, context", SLICE_CASES, ids=[case[0][:-3] for case in SLICE_CASES]
)
def test_context_slice_is_byte_identical_to_the_committed_file(file_name, name, model, dimension, context):
    expected = (GOLDEN / "slices" / file_name).read_bytes()
    assert _slice_ntriples(name, model, dimension, context).encode("utf-8") == expected


def _write_slices() -> None:
    out = GOLDEN / "slices"
    out.mkdir(exist_ok=True)
    names = [case[0] for case in SLICE_CASES]
    assert len(set(names)) == len(names), "two slices share a file name"
    for file_name, name, model, dimension, context in SLICE_CASES:
        (out / file_name).write_bytes(_slice_ntriples(name, model, dimension, context).encode("utf-8"))
    print(f"wrote {len(SLICE_CASES)} slices to {out}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-slices"]:
        sys.exit("usage: python tests/test_golden.py --write-slices")
    _write_slices()
