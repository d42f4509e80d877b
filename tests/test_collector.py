"""The bulk stages pause automatic cyclic collection: none starts inside
them, they leave no cyclic garbage behind, and every caller, nested,
raising or in another thread, finds the collector as it left it."""

import gc
import random
import sys
import threading
from pathlib import Path

import pytest

from conftest import EX, collector, corpus_registry, gc_state, random_corpus

from ndfluents import (
    CombinationModel,
    Config,
    Graph,
    MintingPolicy,
    Triple,
    canonicalize,
    contextualize,
    decontextualize,
    default_registry,
    parse_nquads,
    parse_ntriples,
    parse_turtle,
    read_statements_csv,
    saturate,
    validate,
    write_statements_csv,
)
from ndfluents import reasoner
from ndfluents.cli import main
from ndfluents.contextualize import PatternError
from ndfluents.serializer import serialize_ntriples, serialize_turtle
from ndfluents.terms import _collector_paused
from ndfluents.vocabulary import CORE, temporal_dimension

ROOT = Path(__file__).resolve().parent.parent
ORDER = ("temporal", "provenance")
TIMEOUT = 60


def _config(registry, order=ORDER) -> Config:
    return Config(
        registry=registry, model=CombinationModel.contexts_in_context(order), policy=MintingPolicy(), vocab=CORE
    )


def _fixture_statements():
    return read_statements_csv((ROOT / "fixtures" / "object_parts.csv").read_text(encoding="utf-8"))


def _fixture_graph():
    """The contexts-in-context graph of `fixtures/object_parts.csv`."""
    return contextualize(_fixture_statements(), default_registry(), CombinationModel.contexts_in_context(ORDER))


def _cycle_graph():
    """Two temporal parts with extents, each part of the other."""
    dim = temporal_dimension()
    return Graph([
        Triple(EX.a, dim.part_of, EX.b), Triple(EX.b, dim.part_of, EX.a), Triple(EX.a, EX.p, EX.c),
        Triple(EX.a, dim.extent, EX.t1), Triple(EX.b, dim.extent, EX.t1),
    ])


class TestCallerState:
    def test_a_raising_call(self, caller_gc):
        with pytest.raises(PatternError, match="partOf cycle"):
            decontextualize(_cycle_graph(), default_registry())
        assert gc_state() == caller_gc

    def test_a_nested_call_keeps_the_pause_of_the_outer_one(self, caller_gc, monkeypatch):
        # `validate` calls `saturate`: when the inner paused call returns,
        # the outer one is still running, so collection stays off.
        seen = []
        paused_saturate = reasoner.saturate

        def spy(*args, **kwargs):
            result = paused_saturate(*args, **kwargs)
            seen.append(gc.isenabled())
            return result

        monkeypatch.setattr(reasoner, "saturate", spy)
        graph = _fixture_graph()
        validate(graph, _config(default_registry()).axioms(), default_registry())
        assert seen == [False]
        assert gc_state() == caller_gc


class TestThreads:
    THREADS = 4

    def test_concurrent_callers(self, caller_gc):
        graph = _fixture_graph()
        text = serialize_turtle(graph)
        registry = default_registry()
        axioms = _config(registry).axioms()
        barrier = threading.Barrier(self.THREADS, timeout=TIMEOUT)
        results = [None] * self.THREADS

        def work(i):
            barrier.wait()
            results[i] = (validate(graph, axioms, registry), parse_turtle(text))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [([], graph)] * self.THREADS
        assert gc_state() == caller_gc

    def test_an_overlapping_pause_ends_with_the_last_call_out(self, caller_gc):
        """Thread A's paused call holds while thread B runs a whole stage,
        and thread C's call begins before A's ends and ends after it: the
        collector stays off until the last of them is out."""
        text = serialize_turtle(_fixture_graph())
        waited = []

        def holder():
            entered, release = threading.Event(), threading.Event()

            @_collector_paused
            def hold():
                entered.set()
                waited.append(release.wait(TIMEOUT))

            thread = threading.Thread(target=hold)
            thread.start()
            assert entered.wait(TIMEOUT)
            return thread, release

        def leave(thread, release):
            release.set()
            thread.join(TIMEOUT)
            assert not thread.is_alive()

        a = holder()
        try:
            b = threading.Thread(target=parse_turtle, args=(text,))
            b.start()
            b.join(TIMEOUT)
            assert not b.is_alive()
            assert not gc.isenabled()
            c = holder()
            try:
                leave(*a)
                assert not gc.isenabled()
            finally:
                leave(*c)
        finally:
            leave(*a)
        assert waited == [True, True]
        assert gc_state() == caller_gc


def test_no_collection_starts_inside_a_stage(tmp_path):
    """About 500 statements, each with contexts of its own, allocate far
    more objects than the first threshold of the collector, so each of
    these calls would start collections if it ran with the collector on."""
    rng = random.Random(0)
    statements = [s for serial in range(100) for s in random_corpus(rng, serial)]
    registry = corpus_registry()
    order = ("provenance", "temporal", "trust")
    model = CombinationModel.contexts_in_context(order)
    graph = contextualize(statements, registry, model)
    text = serialize_turtle(graph)
    axioms = _config(registry, order).axioms()
    csv = tmp_path / "statements.csv"
    csv.write_text(write_statements_csv(statements), encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(
        "[core]\nmodel = contexts-in-context\nnesting_order = provenance, temporal, trust\n"
        "[dimension.temporal]\n[dimension.provenance]\n[dimension.trust]\n",
        encoding="utf-8",
    )
    argv = ["contextualize", str(csv), "-c", str(config), "-o", str(tmp_path / "g.ttl")]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    counted, results = {}, {}
    gc.callbacks.append(count)
    try:
        with collector(True):
            for name, call in [
                ("contextualize", lambda: contextualize(statements, registry, model)),
                ("parse_turtle", lambda: parse_turtle(text)),
                ("decontextualize", lambda: decontextualize(graph, registry)),
                ("validate", lambda: validate(graph, axioms, registry)),
                ("cli.main", lambda: main(argv)),
            ]:
                starts.clear()
                results[name] = call()
                counted[name] = len(starts)
    finally:
        gc.callbacks.remove(count)
    assert len(statements) > 500 and len(results["decontextualize"]) == len(statements)
    assert results["contextualize"] == results["parse_turtle"] == graph
    assert results["validate"] == [] and results["cli.main"] == 0
    assert parse_turtle((tmp_path / "g.ttl").read_text(encoding="utf-8")) == graph
    assert counted == dict.fromkeys(counted, 0)


STAGES = (
    "parse_turtle", "parse_ntriples", "parse_nquads", "contextualize", "decontextualize", "decontextualize-raising",
    "canonicalize", "serialize_turtle", "serialize_ntriples", "saturate", "validate",
)


def _stage(name):
    statements = _fixture_statements()
    registry = default_registry()
    graph = _fixture_graph()
    text = serialize_ntriples(graph)
    axioms = _config(registry).axioms()

    def raising():
        try:
            decontextualize(_cycle_graph(), registry)
        except PatternError:
            return
        raise AssertionError("decontextualize accepted a partOf cycle")

    blank = parse_turtle("@prefix ex: <http://example.org/> .\n_:z ex:p _:y ; ex:r _:x .\n_:x ex:s 1 .\n")
    return {
        "parse_turtle": lambda: parse_turtle(serialize_turtle(graph)),
        "parse_ntriples": lambda: parse_ntriples(text),
        "parse_nquads": lambda: parse_nquads(text.replace(" .\n", " <http://example.org/g> .\n")),
        "contextualize": lambda: contextualize(statements, registry, CombinationModel.multi_context()),
        "decontextualize": lambda: decontextualize(graph, registry),
        "decontextualize-raising": raising,
        "canonicalize": lambda: canonicalize(blank),
        "serialize_turtle": lambda: serialize_turtle(graph, {"ex": "http://example.org/"}),
        "serialize_ntriples": lambda: serialize_ntriples(graph),
        "saturate": lambda: saturate(graph, axioms),
        "validate": lambda: validate(graph, axioms, registry),
    }[name]


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_leaves_no_garbage_cycle(stage):
    """What a stage allocates is freed by reference counting: a cycle made
    while collection is paused would live until the next collection."""
    call = _stage(stage)
    gc.collect()
    with collector(False):
        call()
        assert gc.collect() == 0
