"""A mutation fuzzer over the command line, run through `cli.main` in
process.

Each input is a committed file (two golden graphs, the statements and the
estimates fixtures) or a small one built here (a config, a pattern, and
the statements fixture written as N-Quads plus a bundle sidecar). An
example makes one to three byte edits to one input: it deletes a span,
inserts a syntax character, duplicates a span or truncates. Then it runs
every command line that reads the input. Whatever the bytes, nothing but an
exit status leaves `main`: 0, 1 (from `validate` only) or 2, and on 2
exactly one `error:` line. When `contextualize` exits 0, `decontextualize`
under the same config gives back the statements it read.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ndfluents import default_config, read_annotated_nquads, read_statements_csv, write_annotated_nquads
from ndfluents.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
STATEMENTS = (ROOT / "fixtures" / "object_parts.csv").read_bytes()
NQUADS, SIDECAR = (text.encode() for text in write_annotated_nquads(read_statements_csv(STATEMENTS.decode())))

CONFIG = b"""[core]
model = contexts-in-context
nesting_order = temporal, provenance
predicate_mode = related
datatype_axioms = false
[minting]
mode = suffix
separator = @
[dimension.provenance]
base = http://purl.org/NET/ndfluents/provenance#
"""

PATTERN = b"""PREFIX 4d: <http://purl.org/NET/ndfluents/4dFluents#>
PREFIX dbo: <http://dbpedia.org/ontology/>
?part dbo:populationTotal ?pop .
?part 4d:temporalPartOf ?entity .
CONTEXT temporal <http://purl.org/NET/ndfluents/population#interval_1900>
GROUP BY ?entity
AGG AVG ?pop AS average
AGG COUNT DISTINCT ?part AS estimates
SCALE 3
"""

# The unedited files the command lines name besides the input, by name
# under the working directory.
COMPANIONS = {
    "statements.csv": STATEMENTS,
    "statements.nq": NQUADS,
    "sidecar.csv": SIDECAR,
    "population.ttl": (GOLDEN / "population.multi-context.ttl").read_bytes(),
    "pattern.rq": PATTERN,
}

_GRAPH_COMMANDS = (
    ["decontextualize", "{input}"],
    ["validate", "{input}"],
    ["reason", "{input}"],
    ["query", "{input}", "--pattern", "{dir}/pattern.rq"],
)

# Each input: its file name (the suffix gives a graph's syntax), its bytes,
# and the command lines that read it.
INPUTS = {
    "statements": ("input.csv", STATEMENTS, (["contextualize", "{input}"], ["stats", "{input}"])),
    "estimates": (
        "input.csv",
        (ROOT / "fixtures" / "world_population.csv").read_bytes(),
        (["ingest-csv", "{input}", "--descriptions", "{dir}/descriptions.ttl"],),
    ),
    "turtle-graph": ("input.ttl", COMPANIONS["population.ttl"], _GRAPH_COMMANDS),
    "ntriples-graph": ("input.nt", (GOLDEN / "object_parts.contexts-in-context.nt").read_bytes(), _GRAPH_COMMANDS),
    "config": (
        "input.ini",
        CONFIG,
        (["contextualize", "{dir}/statements.csv", "-c", "{input}"], ["gen-ontology", "-c", "{input}"]),
    ),
    "pattern": ("input.rq", PATTERN, (["query", "{dir}/population.ttl", "--pattern", "{input}"],)),
    "nquads": (
        "input.nq",
        NQUADS,
        (["contextualize", "{input}", "--format", "nquads", "--sidecar", "{dir}/sidecar.csv"],),
    ),
    "sidecar": (
        "input.csv",
        SIDECAR,
        (["contextualize", "{dir}/statements.nq", "--format", "nquads", "--sidecar", "{input}"],),
    ),
}

# What an edit inserts: the syntax characters of the formats read, and
# bytes that are not ASCII, one of them not UTF-8.
_INSERTS = [bytes([c]) for c in b"<>\"'.,;:#@_^\\[](){}=?-+ \t\n\r0"] + [b"\xff", "é".encode()]


@st.composite
def _edited(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("delete", "insert", "duplicate", "truncate")))
        i = draw(st.integers(0, len(data)))
        if edit == "truncate":
            data = data[:i]
        elif edit == "insert":
            data = data[:i] + draw(st.sampled_from(_INSERTS)) + data[i:]
        else:
            j = draw(st.integers(i, min(len(data), i + 64)))
            data = data[:i] + data[j:] if edit == "delete" else data[:j] + data[i:j] + data[j:]
    return data


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _statements_read(argv):
    """The statements that the `contextualize` command line `argv` reads."""
    text = Path(argv[1]).read_text(encoding="utf-8")
    if "--sidecar" not in argv:
        return set(read_statements_csv(text))
    sidecar = Path(argv[argv.index("--sidecar") + 1]).read_text(encoding="utf-8")
    return set(read_annotated_nquads(text, sidecar, default_config().registry))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, data in COMPANIONS.items():
        (directory / name).write_bytes(data)
    return directory


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_an_edited_input_exits_with_a_status(workdir, name):
    filename, original, commands = INPUTS[name]

    @settings(max_examples=40, deadline=None)
    @given(_edited(original))
    def check(data):
        path = workdir / filename
        path.write_bytes(data)
        for template in commands:
            argv = [arg.format(input=path, dir=workdir) for arg in template]
            code, out, err = _call(argv)
            assert code in ((0, 1, 2) if argv[0] == "validate" else (0, 2)), (argv, code, err)
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
            if argv[0] == "contextualize" and code == 0:
                graph = workdir / "output.ttl"
                graph.write_text(out, encoding="utf-8")
                config = argv[argv.index("-c"):][:2] if "-c" in argv else []
                code, out, err = _call(["decontextualize", str(graph), *config])
                assert (code, err) == (0, "")
                assert set(read_statements_csv(out)) == _statements_read(argv)

    check()
