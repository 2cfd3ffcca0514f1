"""Command-line harness: validate artifacts, run matches, apply the
transformers, and run brute-force oracle suites.

Exit codes: 0 success, 1 file or input problem, 2 usage error,
3 oracle property violation (printing the first counterexample).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import comprehension as cp
from . import formula as fm
from . import game, hpm, induction, oracles, wrappers
from .bounds import parse_bound


class FileProblem(Exception):
    pass


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileProblem(f"{path}: {exc.strerror or exc}") from exc


def _load_formula(path):
    try:
        return fm.parse_formula(_read(path))
    except (ValueError, SyntaxError) as exc:
        raise FileProblem(f"{path}: {exc}") from exc


def _load_machine(path):
    try:
        return hpm.parse_hpm(_read(path))
    except (ValueError, SyntaxError) as exc:
        raise FileProblem(f"{path}: {exc}") from exc


def _fuel(args):
    return hpm.fuel_from_env() if args.fuel is None else args.fuel


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parse_consts(text):
    env = {}
    if not text:
        return env
    for part in text.split(","):
        name, _, val = part.partition("=")
        if not _ or not name.strip():
            raise FileProblem(f"bad assignment {part!r}, want name=value")
        try:
            env[name.strip()] = int(val)
        except ValueError:
            raise FileProblem(
                f"bad value in {part!r}, want a decimal integer") from None
    return env


def _make_env(spec_text):
    """Environment callable from an env spec.

    "repl" prompts on stdin; "x=5,k=3" plays the constants #<numer> in
    order; anything else is a script file whose lines are moves, each
    optionally prefixed "@t " to wait until t ⊤-moves are visible.
    """
    if spec_text is None:
        return lambda run: None
    if spec_text == "repl":
        def env_repl(run):
            try:
                line = input("B> ").strip()
            except EOFError:
                return None
            return line or None
        return env_repl
    if "=" in spec_text and not os.path.exists(spec_text):
        consts = _parse_consts(spec_text)
        moves = ["#" + game.int_to_numer(v) for v in consts.values()]
        return _script_env([(0, m) for m in moves])
    lines = []
    for raw in _read(spec_text).splitlines():
        line = raw.strip()
        if not line or line.startswith("#!"):
            continue
        after = 0
        if line.startswith("@"):
            head, _, line = line.partition(" ")
            after = int(head[1:])
            line = line.strip()
        lines.append((after, line))
    return _script_env(lines)


def _script_env(entries):
    """Environment callable playing each (after, move) entry once at least
    `after` T-moves are visible.  The run it is called with only extends,
    so T-moves are counted over the new entries alone."""
    pending = list(entries)
    nxt = seen = tops = 0

    def env(run):
        nonlocal nxt, seen, tops
        for label, _ in run[seen:]:
            if label == "T":
                tops += 1
        seen = len(run)
        if nxt < len(pending) and pending[nxt][0] <= tops:
            nxt += 1
            return pending[nxt - 1][1]
        return None

    return env


def _winner(f, run):
    free = fm.free_vars(f)
    consts = game.leading_constants(run, len(free))
    if consts is None:
        return "T (environment never instantiated the game)"
    c_env = dict(zip(free, consts))
    tail = []
    skipped = 0
    for label, move in run:
        if label == "B" and skipped < len(free):
            skipped += 1
            continue
        tail.append((label, move))
    tail = tuple(tail)
    bad = game.first_illegal_index(f, c_env, tail)
    if bad is not None:
        label = tail[bad][0]
        return f"{'B' if label == 'T' else 'T'} (first illegal move by {label})"
    return game.wins(f, c_env, tail)


def _play_and_report(runner, f, env, fuel, trace_path=None, trace_rows=None):
    out = hpm.play(runner, env, fuel)
    print(game.format_run(out["run"]), end="")
    try:
        print("winner:", _winner(f, out["run"]))
    except KeyError as exc:
        print(f"winner: undecided ({exc.args[0]})")
    print("meter:", json.dumps(hpm.meter_report(out["meter"])))
    if getattr(runner, "faults", None):
        print("faults:", *runner.faults, sep="\n  ")
    if trace_path and trace_rows is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            for row in trace_rows():
                fh.write(json.dumps(row) + "\n")
        print(f"trace written to {trace_path}")
    return out


# ---------------------------------------------------------------------------
# subcommands (the oracle suites live in oracles.py)

def cmd_fmt(args):
    f = _load_formula(args.file)
    census = fm.choice_census(f)
    agg = fm.aggregate_bounds(f)
    print("formula:", fm.to_text(f))
    print("free variables:", " ".join(fm.free_vars(f)) or "(none)")
    for key in ("e_top", "e_bot", "e", "D", "h", "v"):
        print(f"{key}: {census[key]}")
    samples = list(range(0, 9))
    print("subaggregate f:", " ".join(f"{z}->{agg['f'](z)}" for z in samples))
    print("superaggregate G:", " ".join(f"{z}->{agg['G'](z)}" for z in samples))
    identity = all(agg["G"](z) == z for z in samples)
    print("G is identity on 0..8:", "yes" if identity else "no")
    return 0


def cmd_play(args):
    spec = _load_machine(args.machine)
    f = _load_formula(args.formula)
    runner = hpm.StrategyRunner(hpm.HPMStrategy(spec))
    env = _make_env(args.env)
    _play_and_report(runner, f, env, _fuel(args))
    return 0


def cmd_transform(args):
    fuel = _fuel(args)
    if args.kind == "reason":
        spec = _load_machine(args.machine)
        f = _load_formula(args.formula)
        try:
            runner = wrappers.build_reason_wrapper(spec, f)
        except ValueError as exc:
            raise FileProblem(f"{args.formula}: {exc}") from exc
        print(f"reason wrapper built over {args.machine}")
        if args.play:
            _play_and_report(runner, f, _make_env(args.env), fuel)
        return 0
    if args.kind == "vasa":
        spec = _load_machine(args.machine)
        f = _load_formula(args.formula)
        c_env = _parse_consts(args.consts)
        try:
            runner = wrappers.build_unconditional_wrapper(spec, f, c_env)
        except KeyError as exc:
            raise FileProblem(f"--consts: {exc.args[0]}") from exc
        except ValueError as exc:
            raise FileProblem(f"{args.formula}: {exc}") from exc
        print(f"unconditional wrapper built over {args.machine}")
        if args.play:
            _play_and_report(runner, f, _make_env(args.env), fuel)
        return 0
    if args.kind == "compr":
        premise = hpm.HPMStrategy(_load_machine(args.premise))
        p = _load_formula(args.p)
        try:
            bound = parse_bound(args.bound)
        except SyntaxError as exc:
            raise FileProblem(f"--bound: {exc}") from exc
        runner = cp.build_comprehension_solver(premise, p, args.y, bound)
        conclusion = cp.comprehension_conclusion(p, args.y, bound)
        print("conclusion:", fm.to_text(conclusion))
        if args.play:
            _play_and_report(runner, conclusion, _make_env(args.env), fuel)
        return 0
    if args.kind == "induct":
        n_spec, k_spec = _load_machine(args.n), _load_machine(args.k)
        f = _load_formula(args.formula)
        n_census, k_census = n_spec.census(), k_spec.census()
        census = {key: max(n_census[key], k_census[key]) for key in n_census}
        try:
            runner = induction.build_induction_solver(
                hpm.HPMStrategy(n_spec), hpm.HPMStrategy(k_spec), f,
                machine_census=census)
        except ValueError as exc:
            raise FileProblem(f"{args.formula}: {exc}") from exc
        print("induction synchronizer built")
        if args.play:
            def rows():
                diag = induction.diagnostics(runner)
                for i, rec in enumerate(runner.trace):
                    yield {
                        "iteration": i,
                        "classification": rec["classification"],
                        "entries": [[idx, len(body)]
                                    for idx, body in rec["entries"]],
                        "master_scale": rec["master_scale"],
                        "U": rec["U"],
                        "validity": rec["validity"],
                        "rank": diag["ranks"][i],
                        "rank_base": diag["rank_base"],
                    }
            _play_and_report(runner, f, _make_env(args.env), fuel,
                             args.trace, rows)
        return 0
    raise AssertionError(args.kind)


def cmd_meter(args):
    try:
        run = game.parse_run(_read(args.trace))
    except ValueError as exc:
        raise FileProblem(f"{args.trace}: {exc}") from exc
    meter = hpm.Meter()
    seen = []
    for cycle, (label, move) in enumerate(run):
        seen.append((label, move))
        made = [move] if label == "T" else []
        meter.record_cycle(cycle, seen, 0, made, label == "B")
    for key, value in hpm.meter_report(meter).items():
        print(f"{key}: {json.dumps(value)}")
    return 0


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# each trace row key, with a check of its value and what the check wants
_DIAG_KEYS = {
    "iteration": (_is_int, "an integer"),
    "rank": (_is_int, "an integer"),
    "master_scale": (_is_int, "an integer"),
    "U": (_is_int, "an integer"),
    "classification": (lambda x: isinstance(x, str), "a string"),
    "entries": (lambda x: isinstance(x, list) and all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
        for e in x), "a list of [int, int] pairs"),
}


def cmd_diag(args):
    rows = []
    for lineno, line in enumerate(_read(args.trace).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            raise FileProblem(f"{args.trace}: line {lineno} is not JSON") from None
        missing = ([key for key in _DIAG_KEYS if key not in row]
                   if isinstance(row, dict) else _DIAG_KEYS)
        if missing:
            raise FileProblem(f"{args.trace}: line {lineno} lacks "
                              f"{', '.join(missing)}")
        for key, (ok, wanted) in _DIAG_KEYS.items():
            if not ok(row[key]):
                raise FileProblem(f"{args.trace}: line {lineno}: "
                                  f"{key} is not {wanted}")
        rows.append(row)
    if not rows:
        print("empty trace")
        return 0
    print(f"{'it':>4} {'rank':>12} {'scale':>7} {'U':>4} classification")
    for row in rows:
        print(f"{row['iteration']:>4} {row['rank']:>12} "
              f"{row['master_scale']:>7} {row['U']:>4} {row['classification']}")
    increasing = all(a["rank"] < b["rank"] for a, b in zip(rows, rows[1:]))
    print("rank strictly increasing:", "yes" if increasing else "NO")
    birth = {}
    for row in rows:
        for idx, _ in row["entries"]:
            birth.setdefault(idx, row["iteration"])
    print("birthtimes:", json.dumps(birth, sort_keys=True))
    return 0


def cmd_oracle(args):
    if args.suite not in oracles.SUITES:
        print(f"unknown suite {args.suite!r}; have "
              f"{', '.join(sorted(oracles.SUITES))}", file=sys.stderr)
        return 2
    fn, default_cases = oracles.SUITES[args.suite]
    rng = random.Random(args.seed)
    counterexample = fn(rng, args.cases or default_cases)
    if counterexample:
        print("FAIL:", counterexample)
        return 3
    print(f"oracle suite {args.suite}: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser():
    """The argparse tree, built once per process (parsing leaves it as is)."""
    ap = argparse.ArgumentParser(prog="clarith")
    sub = ap.add_subparsers(dest="command", required=True)

    fmt = sub.add_parser("fmt", help="formula tools")
    fmt_sub = fmt.add_subparsers(dest="fmt_command", required=True)
    chk = fmt_sub.add_parser("check", help="parse and report census/bounds")
    chk.add_argument("file")
    chk.set_defaults(fn=cmd_fmt)

    pl = sub.add_parser("play", help="run a match")
    pl.add_argument("machine")
    pl.add_argument("formula")
    pl.add_argument("--env", default=None)
    pl.add_argument("--fuel", type=_positive_int, default=None)
    pl.set_defaults(fn=cmd_play)

    tr = sub.add_parser("transform", help="apply a strategy transformer")
    tr_sub = tr.add_subparsers(dest="kind", required=True)

    def common(p):
        p.add_argument("--play", action="store_true")
        p.add_argument("--env", default=None)
        p.add_argument("--fuel", type=_positive_int, default=None)
        p.set_defaults(fn=cmd_transform)

    reason = tr_sub.add_parser("reason")
    reason.add_argument("--machine", required=True)
    reason.add_argument("--f", dest="formula", required=True)
    common(reason)

    vasa = tr_sub.add_parser("vasa")
    vasa.add_argument("--machine", required=True)
    vasa.add_argument("--f", dest="formula", required=True)
    vasa.add_argument("--consts", default="")
    common(vasa)

    compr = tr_sub.add_parser("compr")
    compr.add_argument("--premise", required=True)
    compr.add_argument("--p", required=True)
    compr.add_argument("--y", required=True)
    compr.add_argument("--bound", required=True)
    common(compr)

    induct = tr_sub.add_parser("induct")
    induct.add_argument("--n", required=True)
    induct.add_argument("--k", required=True)
    induct.add_argument("--f", dest="formula", required=True)
    induct.add_argument("--trace", default=None)
    common(induct)

    mt = sub.add_parser("meter", help="resource report for a run file")
    mt.add_argument("trace")
    mt.set_defaults(fn=cmd_meter)

    dg = sub.add_parser("diag", help="diagnostics tables")
    dg_sub = dg.add_subparsers(dest="diag_kind", required=True)
    di = dg_sub.add_parser("induct")
    di.add_argument("trace")
    di.set_defaults(fn=cmd_diag)

    orc = sub.add_parser("oracle", help="run a brute-force oracle suite")
    orc.add_argument("suite")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--cases", type=_positive_int, default=None)
    orc.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (FileProblem, hpm.BadFuelSetting) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
