"""No runner outlives its session, and no command leaves garbage.

With the cyclic collector off, reference counting alone must free every
object a CLI command built once `main` returns: its runner, `HPMSpec`
and `TruncationContext`, its formulas and their analyses, and a dropped
`InductionRunner` together with its trace.  An object kept alive by a
reference cycle would stay, with all it holds, until the next full
collection.
"""

import gc
import sys
import weakref

import pytest

import clarith.formula as fm
from clarith import comprehension, game, hpm, induction, wrappers
from clarith.cli import main
from clarith.game import int_to_numer

from conftest import (CLI_FILES, COUNTER_TEXT, FIXTURES, TWO_DISJUNCT_TEXT,
                      counter_k_script, counter_n_script, drive_solver)

TRACKED = (hpm.StrategyRunner, wrappers.ReasonRunner, wrappers.VasaRunner,
           comprehension.ComprehensionRunner, induction.InductionRunner,
           hpm.HPMSpec, game.TruncationContext)

# name -> (the class of the runner it builds, argv)
COMMANDS = {
    "play": ("StrategyRunner", [
        "play", "<fixtures>/legal.hpm", "<tmp>/game.clf", "--env", "x=9",
        "--fuel", "60"]),
    "reason": ("ReasonRunner", [
        "transform", "reason", "--machine", "<fixtures>/bigmove.hpm",
        "--f", "<tmp>/game.clf", "--play", "--env", "x=9", "--fuel", "60"]),
    "vasa": ("VasaRunner", [
        "transform", "vasa", "--machine", "<fixtures>/legal.hpm",
        "--f", "<tmp>/game.clf", "--consts", "x=9", "--play", "--env", "x=9",
        "--fuel", "60"]),
    "compr": ("ComprehensionRunner", [
        "transform", "compr", "--premise", "<fixtures>/always_yes.hpm",
        "--p", "<tmp>/p.clf", "--y", "y", "--bound", "3", "--play",
        "--fuel", "50"]),
    "induct": ("InductionRunner", [
        "transform", "induct", "--n", "<fixtures>/n_const.hpm",
        "--k", "<fixtures>/k_const.hpm", "--f", "<tmp>/concl.clf",
        "--env", "k=2", "--trace", "<tmp>/trace.jsonl", "--play",
        "--fuel", "200"]),
    # k = 0 replays the base premise through a second generator
    "induct-zero": ("InductionRunner", [
        "transform", "induct", "--n", "<fixtures>/n_const.hpm",
        "--k", "<fixtures>/k_const.hpm", "--f", "<tmp>/concl.clf",
        "--env", "k=0", "--play", "--fuel", "20"]),
}


# the commands that build no runner, on the files `_write_files` writes
OTHER_COMMANDS = {
    "fmt-check": ["fmt", "check", "<tmp>/concl.clf"],  # root a choice
    "meter": ["meter", "<tmp>/run.txt"],
    "diag-induct": ["diag", "induct", "<tmp>/diag.jsonl"],
    "oracle-fetch": ["oracle", "fetch", "--cases", "5"],
    "oracle-windup": ["oracle", "windup", "--cases", "2"],
    "oracle-sim": ["oracle", "sim", "--cases", "5"],
    "oracle-compr": ["oracle", "compr", "--cases", "5"],
}

DIAG_ROWS = (
    '{"iteration": 0, "classification": "repeating(2.2.1)", '
    '"entries": [[2, 1]], "master_scale": 1, "U": 0, "rank": 5}\n'
    '{"iteration": 1, "classification": "locking(2.1.2)", '
    '"entries": [[1, 1], [2, 1]], "master_scale": 1, "U": 0, "rank": 7}\n')


def _write_files(tmp_path):
    for file_name, text in {**CLI_FILES, "run.txt": "B #1001\nT 0.#11",
                            "diag.jsonl": DIAG_ROWS}.items():
        (tmp_path / file_name).write_text(text + "\n")


def _argv(argv, tmp_path):
    return [arg.replace("<fixtures>", FIXTURES).replace("<tmp>", str(tmp_path))
            for arg in argv]


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def built(monkeypatch):
    """(class name, weakref) of every TRACKED object constructed."""
    refs = []
    for cls in TRACKED:
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append((type(self).__name__, weakref.ref(self)))
        monkeypatch.setattr(cls, "__init__", init)
    return refs


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_command_frees_what_it_built(name, tmp_path, capsys,
                                         no_cyclic_gc, built):
    _write_files(tmp_path)
    runner_cls, argv = COMMANDS[name]
    assert main(_argv(argv, tmp_path)) == 0
    capsys.readouterr()
    assert {runner_cls, "HPMSpec"} <= {cls for cls, _ in built}
    assert [cls for cls, ref in built if ref() is not None] == []


@pytest.mark.parametrize("argv", [argv for _, argv in COMMANDS.values()]
                         + list(OTHER_COMMANDS.values()),
                         ids=list(COMMANDS) + list(OTHER_COMMANDS))
def test_cli_command_leaves_no_garbage(argv, tmp_path, capsys, no_cyclic_gc):
    """A second run of the command, once the first has built what a
    process builds once (the argument parser), leaves `gc.collect()`
    nothing: each object it made was freed by reference counting.  The
    induct conclusion and the compr conclusion are rooted at a choice,
    and the induct run's winner is the judge's."""
    _write_files(tmp_path)
    argv = _argv(argv, tmp_path)
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0
    capsys.readouterr()


@pytest.mark.parametrize("k", [0, 5])
def test_dropped_induction_runner_frees_its_trace(k, no_cyclic_gc):
    runner = induction.build_induction_solver(
        counter_n_script(), counter_k_script(), fm.parse_formula(COUNTER_TEXT))
    if k:
        drive_solver(runner, [(0, "#" + int_to_numer(k))])
        assert runner.locked and runner.trace
    else:
        run = (("B", "#"),)
        assert sum((runner.poll(run) for _ in range(10)), []) == ["1.#"]
    # a list takes no weakref: the trace is gone with the runner once
    # this frame's name is its only holder, as `alone` is of a new list
    ref, trace, alone = weakref.ref(runner), runner.trace, []
    del runner
    assert ref() is None
    assert sys.getrefcount(trace) == sys.getrefcount(alone)


def test_an_analysis_not_rooted_at_a_choice_leaves_no_cycle(no_cyclic_gc):
    """Neither the walk that builds an `Analysis` nor
    `MoveShapes.completions` refers to itself through a closure cell, so
    reference counting alone frees a formula whose root is not a choice,
    with its analysis."""
    gc.collect()
    f = fm.parse_formula(TWO_DISJUNCT_TEXT)
    a = fm.analysis(f)
    assert a.shapes.completions("") == ["0.#", "0.1.#", "1.#", "1.1.#"]
    del f, a
    assert gc.collect() == 0


def test_an_analysis_rooted_at_a_choice_leaves_no_cycle(no_cyclic_gc):
    """A `Unit` keeps its quantifier's var and bound, not the quantifier,
    so the root unit of a formula whose root is a choice does not refer
    back to the formula that holds its analysis."""
    gc.collect()
    f = fm.parse_formula(COUNTER_TEXT)
    a = fm.analysis(f)
    assert a.shapes.completions("") == ["#", "1.#"]
    assert (a.units[0].var, a.units[0].bound) == (f.var, f.bound)
    ref = weakref.ref(f)
    del f, a
    assert ref() is None
    assert gc.collect() == 0
