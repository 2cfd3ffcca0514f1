"""Bit-assembly transformer.

From a strategy that decides a predicate point by point (solving
"for all chosen y, p(y) or else not-p(y)"), builds a runner that
constructs the whole extension of the predicate below a size bound as
one constant: the machine probes y = c-1 down to 0 in one pass, one bit
per probe, strips the leading zeros so the result is canonical, and
makes a single move #d with Bit(y, d) true exactly where the premise
answered yes.  A premise fault stops the pass at the probe that met it.
"""

from __future__ import annotations

from itertools import count

from . import formula as fm
from .bounds import BoundExpr
from .game import constant_moves, opening
from .hpm import fuel_from_env


def comprehension_conclusion(p: fm.Formula, y: str,
                             bound: BoundExpr) -> fm.Formula:
    """The game the built runner plays: pick d, sized within the bound,
    whose bits below the bound agree with p everywhere.  d is the first
    of d, d1, d2, ... that is not y and occurs free in neither p nor the
    bound, so no free variable of p is captured."""
    taken = {y, *fm.free_vars(p), *bound.variables()}
    d = next(name for name in ("d" + (str(i) if i else "") for i in count())
             if name not in taken)
    bit = fm.Atom("Bit", (fm.TVar(y), fm.TVar(d)))
    agree = fm.And(fm.Implies(bit, p), fm.Implies(p, bit))
    body = fm.BlindAll(y, bound, agree)
    return fm.ChoiceEx(d, bound, body, kind="size")


class SimulationFault(Exception):
    pass


def _one_verdict(premise, values, fuel):
    """Run the premise, given the constants values, until its first move."""
    st = premise.feed(premise.initial(), constant_moves(values))
    made = premise.stretch(st, fuel)[3]
    if not made:
        raise SimulationFault(f"no verdict within {fuel} steps")
    mv = made[0][1]
    if mv.startswith("0."):
        return True
    if mv.startswith("1."):
        return False
    raise SimulationFault(f"verdict move {mv!r} picks no disjunct")


class ComprehensionRunner:
    """Play-harness runner for the bit-assembly routine.

    Waits for one constant per free variable of `conclusion`, the game it
    plays, in the order `free_vars` lists them, then performs the whole
    probe loop and answers with the single move #d.  Faults in the
    premise are recorded, not raised; a faulted runner stays silent.
    A stretch is of one cycle, whatever its limit and budget, and the
    constants are read off the ⊥ moves handed so far.
    """

    def __init__(self, premise, p: fm.Formula, y: str, bound: BoundExpr):
        self.premise = premise
        self.y = y
        self.bound = bound
        self.conclusion = comprehension_conclusion(p, y, bound)
        self.var_order = fm.free_vars(self.conclusion)
        self.fuel = fuel_from_env()
        self.faults = []
        self.done = False
        self._bots = ()

    def stretch(self, incoming, limit, budget=1):
        if self.done:
            return 1, 0, []
        self._bots += incoming
        opened = opening(self.var_order, self._bots)
        if opened is None:
            return 1, 0, []
        self.done = True
        env = opened[0]
        c = self.bound.evaluate(env)
        # y is free in the conclusion when the bound mentions it
        values = [val for v, val in env.items() if v != self.y]
        try:
            bits = "".join(
                "1" if _one_verdict(self.premise, values + [j], self.fuel)
                else "0" for j in range(c - 1, -1, -1))
        except SimulationFault as exc:
            self.faults.append(str(exc))
            return 1, 0, []
        return 1, 0, [(1, "#" + bits.lstrip("0"))]
