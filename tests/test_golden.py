"""Byte-identical output on the shipped fixture.

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
format). A change that means to alter the output regenerates them so.
"""

from pathlib import Path

import pytest

from ndfluents.cli import main
from ndfluents.config import load_config
from ndfluents.parser import parse_ntriples, parse_turtle
from ndfluents.serializer import serialize_turtle

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


@pytest.mark.parametrize("fmt", ["ttl", "nt"])
@pytest.mark.parametrize("model", list(MODELS))
def test_contextualize_output_is_byte_identical_to_the_committed_file(ingested, model, fmt):
    work, statements, contexts = ingested
    config = work / f"{model}.ini"
    config.write_text(MODELS[model], encoding="utf-8")
    out = work / f"population.{model}.{fmt}"
    argv = ["contextualize", "-c", str(config), str(statements), "--merge", str(contexts), "-o", str(out)]
    if fmt == "nt":
        argv += ["--out-format", "ntriples"]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("model", list(MODELS))
def test_committed_turtle_reads_back_to_its_ntriples_and_writes_back_to_itself(model):
    turtle = (GOLDEN / f"population.{model}.ttl").read_text(encoding="utf-8")
    graph = parse_turtle(turtle)
    assert graph == parse_ntriples((GOLDEN / f"population.{model}.nt").read_bytes())
    assert serialize_turtle(graph, load_config(MODELS[model]).prefixes()) == turtle
