"""The benchmark's own tests: each output check catches a corrupted output.

    python3 -m pytest bench/test_checks.py -q

They stay out of the repository's test suite (its `testpaths` is `tests`).
"""

from __future__ import annotations

import os
import shutil
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import expect  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from expect import CheckFailed  # noqa: E402

SIZE = 40


@pytest.fixture
def workdir():
    path = BENCH.parent / ".bench_out" / f"tests-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def captured(workload):
    return workload.capture(workload.op())


def test_same_seed_gives_identical_inputs():
    one, two = inputs.make_corpus(7, SIZE), inputs.make_corpus(7, SIZE)
    assert inputs.statements_csv(one) == inputs.statements_csv(two)
    assert inputs.descriptions_turtle(one) == inputs.descriptions_turtle(two)
    assert inputs.statements_csv(inputs.make_corpus(8, SIZE)) != inputs.statements_csv(one)
    assert sum(s.literal for s in one) == round(SIZE * inputs.LITERAL_SHARE)


def test_half_up_rounding():
    assert expect.half_up(Fraction(5, 1000)) == "0.01"
    assert expect.half_up(Fraction(-5, 1000)) == "-0.01"
    assert expect.half_up(Fraction(1, 3)) == "0.33"
    assert expect.half_up(Fraction(123, 1)) == "123.00"


def test_turtle_reader_expands_lists_and_prefixes():
    text = (
        "@prefix ex: <http://e.org/> .\n\n"
        'ex:a a ex:C ;\n    ex:p ex:b ,\n        "1"^^ex:int ;\n    ex:q "x y . z" .\n'
    )
    assert expect.turtle_triples(text) == [
        ("http://e.org/a", inputs.RDF_TYPE, "<http://e.org/C>"),
        ("http://e.org/a", "http://e.org/p", "<http://e.org/b>"),
        ("http://e.org/a", "http://e.org/p", '"1"^^<http://e.org/int>'),
        ("http://e.org/a", "http://e.org/q", '"x y . z"'),
    ]


def test_convert_checks_catch_corruption(workdir):
    workload = workloads.build("convert", 3, workdir, SIZE)
    codes = workload.op()
    workload.check(workload.capture(codes))
    graph, back = workload.graph_path.read_text(), workload.back_path.read_text()

    with pytest.raises(CheckFailed, match="exit codes"):
        workload.check(workload.capture((0, 2)))

    workload.back_path.write_text("".join(back.splitlines(keepends=True)[:-1]))
    with pytest.raises(CheckFailed, match="back.csv differs"):
        workload.check(workload.capture(codes))

    workload.graph_path.write_text(graph + "\n")
    with pytest.raises(CheckFailed, match="differs from the first"):
        workload.check(workload.capture(codes))

    fresh = workloads.build("convert", 3, workdir, SIZE)
    fresh.graph_path.write_text("\n\n".join(graph.split("\n\n")[:-1]) + "\n")
    fresh.back_path.write_text(back)
    with pytest.raises(CheckFailed, match="triples"):
        fresh.check(fresh.capture(codes))


def test_query_checks_catch_corruption(workdir):
    workload = workloads.build("query", 3, workdir, SIZE)
    tables = captured(workload)
    workload.check(tables)

    name, columns, rows = tables[1]
    assert name == "join"
    key, value = rows[0]
    altered = [tables[0], (name, columns, ((key, str(Decimal(value) + Decimal("0.01"))),) + rows[1:]), *tables[2:]]
    with pytest.raises(CheckFailed, match="join"):
        workload.check(altered)

    name, columns, rows = tables[0]
    with pytest.raises(CheckFailed, match="population"):
        workload.check([(name, columns, rows[1:]), *tables[1:]])

    name, columns, rows = tables[3]
    with pytest.raises(CheckFailed, match="lookup"):
        workload.check([*tables[:3], (name, columns, rows[:-1])])


def test_query_setup_check_catches_a_lost_triple(workdir):
    workload = workloads.build("query", 3, workdir, SIZE)
    workload.check_setup()
    workload.graph = type(workload.graph)(list(workload.graph)[1:])
    with pytest.raises(CheckFailed, match="parsed graph"):
        workload.check_setup()


def test_reason_checks_catch_corruption(workdir):
    workload = workloads.build("reason", 3, workdir, SIZE)
    workload.check_setup()
    clean, seeded = captured(workload)
    workload.check((clean, seeded))
    assert len(seeded) == 4

    with pytest.raises(CheckFailed, match="clean graph"):
        workload.check((frozenset({("MissingPartOf", ())}), seeded))
    with pytest.raises(CheckFailed, match="missing"):
        workload.check((clean, frozenset(sorted(seeded)[1:])))

    workload.axioms = [axiom for axiom in workload.axioms if axiom.kind != "Transitive"]
    with pytest.raises(CheckFailed, match="contextualPartOf"):
        workload.check_setup()

