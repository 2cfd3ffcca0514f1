"""The CLI on mutated input files: whatever the files hold, a command
exits 0, 1, 2 or 3 and raises nothing else, and a formula that `fmt`
prints reads back as the same text.

Each example takes one command's fixture files, mutates one of them
(byte flips, non-UTF-8 bytes included; dropped, duplicated or random
lines; `@t` prefixes) and runs `cli.main` in-process.  Played commands
get `--fuel 20`: the reason wrapper's resimulation is exponential in
its moves, so a mutated machine that moves often must stay cheap.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clarith.formula as fm
from clarith.cli import main

from conftest import TWO_DISJUNCT_TEXT, read_fixture

CONCLUSION = "ada x [val 100] ade v [1] (v = 0)\n"
TRACE = ('{"iteration": 0, "classification": "restarting(new-move)", '
         '"entries": [[2, 1]], "master_scale": 1, "U": 0, "validity": "ok", '
         '"rank": 9, "rank_base": 4}\n'
         '{"iteration": 1, "classification": "locking(2.1.2)", '
         '"entries": [[1, 1], [2, 1]], "master_scale": 1, "U": 0, '
         '"validity": "ok", "rank": 12, "rank_base": 4}\n')
PLAY_ENV = "#! the constant, then two game moves\n#1001\n0.#10\n@1 1.#1\n"

# command -> (its argv, {file placeholder: the file's fixture text})
COMMANDS = {
    "fmt": (["fmt", "check", "{f}"],
            {"f": TWO_DISJUNCT_TEXT + " & x'' = |x|'\n"}),
    "play": (["play", "{m}", "{f}", "--env", "{e}", "--fuel", "20"],
             {"m": read_fixture("bigmove.hpm"), "f": TWO_DISJUNCT_TEXT + "\n",
              "e": PLAY_ENV}),
    "meter": (["meter", "{r}"],
              {"r": "B #1001\nT 0.1.#11\nB 1.#1\nT 1.1.#0\n"}),
    "diag": (["diag", "induct", "{t}"], {"t": TRACE}),
    "reason": (["transform", "reason", "--machine", "{m}", "--f", "{f}",
                "--play", "--env", "{e}", "--fuel", "20"],
               {"m": read_fixture("bigmove.hpm"),
                "f": TWO_DISJUNCT_TEXT + "\n", "e": PLAY_ENV}),
    "vasa": (["transform", "vasa", "--machine", "{m}", "--f", "{f}",
              "--consts", "x=9", "--play", "--env", "{e}", "--fuel", "20"],
             {"m": read_fixture("legal.hpm"), "f": TWO_DISJUNCT_TEXT + "\n",
              "e": "0.#10\n@1 1.#1\n"}),
    "compr": (["transform", "compr", "--premise", "{m}", "--p", "{p}",
               "--y", "y", "--bound", "3", "--play", "--env", "{e}",
               "--fuel", "20"],
              {"m": read_fixture("always_yes.hpm"), "p": "p(y)\n",
               "e": "#11\n"}),
    "induct": (["transform", "induct", "--n", "{n}", "--k", "{k}",
                "--f", "{f}", "--play", "--env", "{e}", "--fuel", "20",
                "--trace", "{out}"],
               {"n": read_fixture("n_const.hpm"),
                "k": read_fixture("k_const.hpm"), "f": CONCLUSION,
                "e": "#10\n"}),
}

# lines in the grammars of the files, for the random-line mutation
FRAGMENTS = [
    "delta: a0, _, _ -> halt, _, S, S", 'delta: a0, B -> go, S, append "#1"',
    "delta: a0, T, 1 -> a0, 0, R, L", "states: a0 halt", "start: halt",
    "movestates: a0", "worktapes: 2", "alphabet: 0 1 # .", "#1", "0.#",
    "1.#1", "@1 0.#10", "B #1", "T 0.1.#11", "X #1", "ada x [val 3] p(x)",
    "ade z [|x|] (z = 0)", '{"iteration": 0}', "[]", "null",
]
ALPHABET = "01#.,:_@ BTxyz()[]|v=<>'\"{}-\t\\é"

lines = st.one_of(st.sampled_from(FRAGMENTS),
                  st.text(alphabet=ALPHABET, max_size=24))
delays = st.one_of(st.integers(-2, 5).map(str),
                   st.text(alphabet="x1@#- ", max_size=3))
mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**4), st.integers(1, 255)),
    st.tuples(st.just("drop"), st.integers(0, 100)),
    st.tuples(st.just("dup"), st.integers(0, 100)),
    st.tuples(st.just("insert"), st.integers(0, 100),
              lines.map(lambda s: s.encode())),
    st.tuples(st.just("delay"), st.integers(0, 100),
              delays.map(lambda s: s.encode())),
)


def mutate(data, mutation):
    kind, at, *arg = mutation
    if kind == "flip":
        if not data:
            return bytes([arg[0]])
        i = at % len(data)
        return data[:i] + bytes([data[i] ^ arg[0]]) + data[i + 1:]
    rows = data.split(b"\n")
    i = at % len(rows)
    if kind == "drop":
        del rows[i]
    elif kind == "dup":
        rows.insert(i, rows[i])
    elif kind == "insert":
        rows.insert(i, arg[0])
    else:
        rows[i] = b"@" + arg[0] + b" " + rows[i]
    return b"\n".join(rows)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_files_exit_cleanly(workdir, command, data):
    argv, texts = COMMANDS[command]
    target = data.draw(st.sampled_from(sorted(texts)), label="file")
    contents = {key: text.encode() for key, text in texts.items()}
    for mutation in data.draw(st.lists(mutations, min_size=1, max_size=4),
                              label="mutations"):
        contents[target] = mutate(contents[target], mutation)
    paths = {"out": str(workdir / "trace.jsonl")}
    for key, raw in contents.items():
        paths[key] = str(workdir / f"{command}.{key}")
        with open(paths[key], "wb") as fh:
            fh.write(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([arg.format(**paths) for arg in argv])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3), err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
    if command == "fmt" and rc == 0:
        (text,) = [ln[len("formula: "):] for ln in out.getvalue().splitlines()
                   if ln.startswith("formula: ")]
        assert fm.to_text(fm.parse_formula(text)) == text
