"""The benchmark's tracer patches clarith functions by name; each name it
lists must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import os

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
