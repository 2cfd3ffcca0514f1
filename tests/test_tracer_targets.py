"""The benchmark's tracer patches clarith functions by name; each name it
lists must still exist, or `perfbench/run.py --trace 1` breaks, and be
called through its module, or the spans miss the calls."""

import importlib
import importlib.util
import os
import random

import clarith.formula as fm
from clarith import hpm, induction, wrappers, zoo
from clarith.game import int_to_numer

from conftest import COUNTER_TEXT, counter_k_script, counter_n_script, drive_solver

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def resolve(modname, attr):
    """What `Tracer.install` wraps: a module attribute, or a function in
    a class's own namespace."""
    obj = importlib.import_module(modname)
    *owners, last = attr.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
    return vars(obj).get(last) if obj is not None else None


def test_every_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # install() also replaces the CLI's env factory
    targets = [(m, a) for _, m, a in tracer.TARGETS]
    targets.append(("clarith.cli", "_script_env"))
    missing = [f"{m}.{a}" for m, a in targets if not callable(resolve(m, a))]
    assert missing == []


def test_strategy_reaches_the_vm_through_the_module(monkeypatch, legal_machine,
                                                    two_disjunct_formula):
    """The curve counts wrap `hpm.run_until`, and the tracer replaces
    `hpm.spacecost`; a strategy or runner that bound either would go
    round them.  Each is built first, so the globals are read at call
    time.  A one-cycle `stretch` is Sim's path, a longer one the path
    `play` takes through `StrategyRunner`; `VasaRunner` reads its cells
    through `spacecost` on the stretch that retires it and on each one
    after."""
    strategy = hpm.HPMStrategy(zoo.random_machine(random.Random(0)))
    runner = hpm.StrategyRunner(strategy)
    vasa = wrappers.VasaRunner(legal_machine, two_disjunct_formula, {"x": 9})
    calls = {"spacecost": 0, "run_until": 0}
    for name in calls:
        def counting(*args, name=name, fn=getattr(hpm, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(hpm, name, counting)
    strategy.stretch(strategy.initial(), 1)
    assert calls == {"spacecost": 0, "run_until": 1}
    runner.stretch((), 5)
    assert calls == {"spacecost": 0, "run_until": 2}
    bad = (("B", "0.1.#1"),)  # ⊥ may not resolve ⊤'s quantifier
    vasa.stretch(bad, 1)
    assert vasa.retired and calls == {"spacecost": 1, "run_until": 2}
    vasa.stretch((), 5)
    assert calls == {"spacecost": 2, "run_until": 2}


def test_synchronizer_validates_through_the_module(monkeypatch):
    """The tracer replaces `induction.validate_aggregation` and
    `induction.central_triple`; a synchronizer that bound either would
    go round the spans.  Each iteration, the recorded ones and the one
    still in progress, calls both once."""
    runner = induction.build_induction_solver(
        counter_n_script(), counter_k_script(3), fm.parse_formula(COUNTER_TEXT))
    calls = {"validate_aggregation": 0, "central_triple": 0}
    for name in calls:
        def counting(*args, name=name, fn=getattr(induction, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(induction, name, counting)
    drive_solver(runner, [(0, "#" + int_to_numer(9))])
    assert runner.locked
    in_progress = len(runner.trace) + 1
    assert calls == {"validate_aggregation": in_progress,
                     "central_triple": in_progress}
