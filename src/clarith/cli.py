"""Command-line harness: validate artifacts, run matches, apply the
transformers, and run brute-force oracle suites.

Exit codes: 0 success, 1 file or input problem, 2 usage error,
3 oracle property violation (printing the first counterexample).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from . import comprehension as cp
from . import formula as fm
from . import game, hpm, induction, oracles, wrappers
from .bounds import parse_bound


class FileProblem(Exception):
    pass


def _load(path, parse=str):
    """parse(the file's text); a file that cannot be read, is not UTF-8
    or does not parse is a FileProblem naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise FileProblem(f"{path}: {exc.strerror or exc}") from exc
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


def _parse_consts(text, option):
    """The (name, value) pairs of "x=5,k=3", in order; an error names
    the option the text came from."""
    pairs = []
    if not text:
        return pairs
    for part in text.split(","):
        name, _, val = part.partition("=")
        if not _ or not name.strip():
            raise FileProblem(f"{option}: bad assignment {part!r}, "
                              "want name=value")
        try:
            value = int(val)
        except ValueError:
            raise FileProblem(f"{option}: bad value in {part!r}, "
                              "want a decimal integer") from None
        if value < 0:
            raise FileProblem(f"{option}: bad value in {part!r}, "
                              "want a natural number")
        pairs.append((name.strip(), value))
    return pairs


def _vasa_consts(text, f):
    """--consts as a dict, rejecting names given twice or not free in f."""
    consts, free = {}, fm.free_vars(f)
    for name, value in _parse_consts(text, "--consts"):
        if name not in free:
            raise FileProblem(f"--consts: {name!r} is not among the formula's "
                              f"free variables: {' '.join(free) or '(none)'}")
        if name in consts:
            raise FileProblem(f"--consts: {name!r} is given more than once")
        consts[name] = value
    return consts


def _make_env(spec_text):
    """Environment callable from an env spec, as `hpm.play` calls it.

    "repl" prompts on stdin until its input ends; "x=5,k=3" plays the
    constants #<numer> in order; anything else is a script file whose
    lines are moves, each optionally prefixed "@t " to wait until t
    ⊤-moves are visible; no spec is the script of no lines.  Every env
    but "repl" is a script env, with a horizon; "repl" reads a line each
    cycle, so it promises nothing.
    """
    if spec_text is None:
        return _script_env([])
    if spec_text == "repl":
        def lines():
            try:
                while True:
                    yield input("B> ").strip()
            except EOFError:
                return
        replies = lines()
        return lambda run: (next(replies, None) or None, 0)
    if "=" in spec_text and not os.path.exists(spec_text):
        consts = [value for _, value in _parse_consts(spec_text, "--env")]
        return _script_env([(0, m) for _, m in game.constant_moves(consts)])
    return _script_env(_load(spec_text, _parse_env_script))


def _parse_env_script(text):
    """The (after, move) entries of an env script; ValueError names the
    line of a malformed "@t" prefix."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#!"):
            continue
        after = 0
        if line.startswith("@"):
            head, _, line = line.partition(" ")
            try:
                after = int(head[1:])
            except ValueError:
                raise ValueError(f"line {lineno}: bad delay {head!r}, "
                                 "want @ and an integer") from None
            line = line.strip()
        entries.append((after, line))
    return entries


def _script_env(entries):
    """Environment callable playing each (after, move) entry once at least
    `after` T-moves are visible.  Each call, moving or not, also gives its
    horizon: the next entry's `after` minus the T-moves visible, 0 for one
    already due (an `after` may fall or be negative), unbounded once all
    are played.  The run it is called with only extends, so T-moves are
    counted over the new entries alone, by index, and only when the run
    has grown; once every entry is played, not at all."""
    pending = [*entries, (math.inf, None)]
    last = len(entries)
    nxt = seen = tops = 0

    def env(run):
        nonlocal nxt, seen, tops
        if nxt == last:
            return None, math.inf
        n = len(run)
        if n > seen:
            for i in range(seen, n):
                if run[i][0] == "T":
                    tops += 1
            seen = n
        after, move = pending[nxt]
        if after > tops:
            return None, after - tops
        nxt += 1
        return move, max(pending[nxt][0] - tops, 0)

    return env


def _winner(f, run):
    opened = game.opening(fm.free_vars(f), run)
    if opened is None:
        return "T (environment never instantiated the game)"
    c_env, tail = opened
    try:
        return game.wins(f, c_env, tail)
    except game.IllegalMove as exc:
        label = tail[exc.index][0]
        return f"{'B' if label == 'T' else 'T'} (first illegal move by {label})"


def _play_and_report(runner, f, env, fuel, trace_path):
    out = hpm.play(runner, env, fuel)
    print(game.format_run(out["run"]), end="")
    try:
        print("winner:", _winner(f, out["run"]))
    except KeyError as exc:
        print(f"winner: undecided ({exc.args[0]})")
    print("meter:", json.dumps(hpm.meter_report(out["meter"])))
    if getattr(runner, "faults", None):
        print("faults:", *runner.faults, sep="\n  ")
    if trace_path:
        try:
            ranks = induction.diagnostics(runner)["ranks"]
            with open(trace_path, "w", encoding="utf-8") as fh:
                for i, (rec, rank) in enumerate(zip(runner.trace, ranks)):
                    fh.write(json.dumps({
                        "iteration": i,
                        "classification": rec["classification"],
                        "entries": [[idx, len(body)]
                                    for idx, body in rec["entries"]],
                        "master_scale": rec["master_scale"],
                        "U": rec["U"],
                        "validity": rec["validity"],
                        "rank": rank,
                        "rank_base": runner.rank_base,
                    }) + "\n")
        except OSError as exc:
            raise FileProblem(f"{trace_path}: {exc.strerror or exc}") from exc
        print(f"trace written to {trace_path}")


# ---------------------------------------------------------------------------
# subcommands (the oracle suites live in oracles.py)

def cmd_fmt(args):
    f = _load(args.file, fm.parse_formula)
    census = fm.choice_census(f)
    agg = fm.aggregate_bounds(f)
    print("formula:", fm.to_text(f))
    print("free variables:", " ".join(fm.free_vars(f)) or "(none)")
    for key in ("e_top", "e_bot", "e", "D", "h", "v"):
        print(f"{key}: {census[key]}")
    samples = list(range(0, 9))
    g_values = [agg["G"](z) for z in samples]
    print("subaggregate f:", " ".join(f"{z}->{agg['f'](z)}" for z in samples))
    print("superaggregate G:", " ".join(f"{z}->{g}" for z, g in zip(samples, g_values)))
    print("G is identity on 0..8:", "yes" if g_values == samples else "no")
    return 0


def _build(args):
    """(banner, runner, game) for `play` or a transform: the line printed
    before any play (None for `play`), the runner built over the loaded
    files, and the game it plays (for `compr`, the runner's conclusion).
    A formula the runner rejects is a FileProblem naming the formula
    file, and vasa constants that miss a free variable one naming
    --consts."""
    if args.kind == "induct":
        n_spec, k_spec = _load(args.n, hpm.parse_hpm), _load(args.k, hpm.parse_hpm)
    else:
        spec = _load(args.machine, hpm.parse_hpm)
    f = _load(args.formula, fm.parse_formula)
    if args.kind == "compr":
        try:
            bound = parse_bound(args.bound)
        except (SyntaxError, ValueError) as exc:
            raise FileProblem(f"--bound: {exc}") from exc
        runner = cp.ComprehensionRunner(hpm.HPMStrategy(spec), f, args.y, bound)
        text = fm.to_text(runner.conclusion)
        # a --y that is no variable name prints a conclusion that does not
        # parse back to itself
        try:
            reparsed = fm.to_text(fm.parse_formula(text))
        except (SyntaxError, ValueError):
            reparsed = None
        if reparsed != text:
            raise FileProblem(f"--y: {args.y!r} is not a usable variable name")
        return f"conclusion: {text}", runner, runner.conclusion
    try:
        if args.kind == "play":
            return None, hpm.StrategyRunner(hpm.HPMStrategy(spec)), f
        if args.kind == "reason":
            return (f"reason wrapper built over {args.machine}",
                    wrappers.ReasonRunner(spec, f), f)
        if args.kind == "vasa":
            return (f"unconditional wrapper built over {args.machine}",
                    wrappers.VasaRunner(spec, f, _vasa_consts(args.consts, f)), f)
        return ("induction synchronizer built", induction.build_induction_solver(
            hpm.HPMStrategy(n_spec), hpm.HPMStrategy(k_spec), f), f)
    except KeyError as exc:
        raise FileProblem(f"--consts: {exc.args[0]}") from exc
    except ValueError as exc:
        raise FileProblem(f"{args.formula}: {exc}") from exc


def cmd_run(args):
    if getattr(args, "trace", None) and not args.play:
        print("error: --trace records a play and needs --play",
              file=sys.stderr)
        return 2
    fuel = _fuel(args)
    banner, runner, f = _build(args)
    env = _make_env(args.env) if args.play else None
    if banner is not None:
        print(banner)
    if args.play:
        _play_and_report(runner, f, env, fuel, getattr(args, "trace", None))
    return 0


def cmd_meter(args):
    meter = hpm.Meter()
    for cycle, (label, move) in enumerate(_load(args.trace, game.parse_run)):
        meter.record_cycle(cycle, move if label == "B" else None, 0,
                           [(1, move)] if label == "T" else [])
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
    for lineno, line in enumerate(_load(args.trace).splitlines(), 1):
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
    pl.set_defaults(fn=cmd_run, kind="play", play=True)

    tr = sub.add_parser("transform", help="apply a strategy transformer")
    tr_sub = tr.add_subparsers(dest="kind", required=True)

    def common(p):
        p.add_argument("--play", action="store_true")
        p.add_argument("--env", default=None)
        p.add_argument("--fuel", type=_positive_int, default=None)
        p.set_defaults(fn=cmd_run)

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
    compr.add_argument("--premise", dest="machine", metavar="PREMISE",
                       required=True)
    compr.add_argument("--p", dest="formula", metavar="P", required=True)
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
        rc = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return rc
    except (FileProblem, hpm.BadFuelSetting) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    except OSError as exc:
        # input files fail as FileProblems, so this is standard output (a
        # reader gone, a disk full): send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: standard output: {exc.strerror or exc}",
                  file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
