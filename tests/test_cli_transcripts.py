"""Whole CLI transcripts that no benchmark digest reads: `transform compr
--play`, `transform induct --play --trace` with its trace file, `play`
with inline constants, and `transform reason|vasa` without `--play`.

Each case pins every line of standard output, an empty standard error,
exit code 0 and, for `induct`, the JSONL trace, with the fixture
directory written as <fixtures> and the test's own directory as <tmp>.
"""

import pytest

from clarith.cli import main

from conftest import CLI_FILES, FIXTURES

METER_COMPR = ('{"amplitude": {"1": 3}, "max_spacecost": 0, '
               '"spacecost_by_background": {"1": 0}, "max_timecost": 0}')
METER_INDUCT = ('{"amplitude": {"2": 0}, "max_spacecost": 0, '
                '"spacecost_by_background": {"2": 0}, "max_timecost": 5}')
METER_PLAY = ('{"amplitude": {"4": 2}, "max_spacecost": 2, '
              '"spacecost_by_background": {"4": 2}, "max_timecost": 1}')

# (argv, standard output, induct trace file or None)
CASES = {
    "compr-play": (
        ["transform", "compr", "--premise", "<fixtures>/always_yes.hpm",
         "--p", "<tmp>/p.clf", "--y", "y", "--bound", "3", "--play",
         "--fuel", "50"],
        "conclusion: ade d [3] cla y < 3 : "
        "((Bit(y, d) -> p(y)) & (p(y) -> Bit(y, d)))\n"
        "T #111\n"
        "winner: undecided (no evaluator for atom 'p')\n"
        f"meter: {METER_COMPR}\n",
        None),
    "induct-play-trace": (
        ["transform", "induct", "--n", "<fixtures>/n_const.hpm",
         "--k", "<fixtures>/k_const.hpm", "--f", "<tmp>/concl.clf",
         "--env", "k=2", "--trace", "<tmp>/trace.jsonl", "--play",
         "--fuel", "20"],
        "induction synchronizer built\n"
        "B #10\n"
        "T 1.#\n"
        "winner: T\n"
        f"meter: {METER_INDUCT}\n"
        "trace written to <tmp>/trace.jsonl\n",
        '{"iteration": 0, "classification": "repeating(2.2.1)", '
        '"entries": [[2, 1]], "master_scale": 1, "U": 0, "validity": "ok", '
        '"rank": 1061624211002, "rank_base": 101}\n'
        '{"iteration": 1, "classification": "repeating(2.2.1)", '
        '"entries": [[1, 1], [2, 1]], "master_scale": 1, "U": 0, '
        '"validity": "ok", "rank": 1061624211103, "rank_base": 101}\n'
        '{"iteration": 2, "classification": "restarting(2.2.2.1)", '
        '"entries": [[0, 1], [2, 1]], "master_scale": 1, "U": 0, '
        '"validity": "ok", "rank": 1061624211204, "rank_base": 101}\n'
        '{"iteration": 3, "classification": "locking(2.1.2)", '
        '"entries": [[2, 1]], "master_scale": 2, "U": 0, "validity": "ok", '
        '"rank": 1061728271403, "rank_base": 101}\n'
        '{"iteration": 4, "classification": "repeating(2.2.1)", '
        '"entries": [[2, 3]], "master_scale": 2, "U": 0, "validity": "ok", '
        '"rank": 3184768572605, "rank_base": 101}\n'
        '{"iteration": 5, "classification": "repeating(2.1.1)", '
        '"entries": [[1, 1], [2, 3]], "master_scale": 2, "U": 0, '
        '"validity": "ok", "rank": 3184768572706, "rank_base": 101}\n'
        '{"iteration": 6, "classification": "repeating(2.2.1)", '
        '"entries": [[1, 2], [2, 3]], "master_scale": 2, "U": 0, '
        '"validity": "ok", "rank": 3184768593007, "rank_base": 101}\n'),
    "play-inline-env": (
        ["play", "<fixtures>/legal.hpm", "<tmp>/game.clf", "--env", "x=9",
         "--fuel", "60"],
        "B #1001\n"
        "T 0.1.#11\n"
        "winner: B (first illegal move by T)\n"
        f"meter: {METER_PLAY}\n",
        None),
    "reason-no-play": (
        ["transform", "reason", "--machine", "<fixtures>/bigmove.hpm",
         "--f", "<tmp>/game.clf"],
        "reason wrapper built over <fixtures>/bigmove.hpm\n",
        None),
    "vasa-no-play": (
        ["transform", "vasa", "--machine", "<fixtures>/legal.hpm",
         "--f", "<tmp>/game.clf", "--consts", "x=9"],
        "unconditional wrapper built over <fixtures>/legal.hpm\n",
        None),
}


@pytest.mark.parametrize("name", list(CASES))
def test_transcript(name, tmp_path, capsys):
    for file_name, text in CLI_FILES.items():
        (tmp_path / file_name).write_text(text + "\n")
    argv, want_out, want_trace = CASES[name]
    paths = (("<fixtures>", FIXTURES), ("<tmp>", str(tmp_path)))

    def real(text):
        for mark, path in paths:
            text = text.replace(mark, path)
        return text

    def marked(text):
        for mark, path in paths:
            text = text.replace(path, mark)
        return text

    rc = main([real(arg) for arg in argv])
    out, err = capsys.readouterr()
    assert (rc, marked(out), err) == (0, want_out, "")
    trace = tmp_path / "trace.jsonl"
    if want_trace is None:
        assert not trace.exists()
    else:
        assert trace.read_text(encoding="utf-8") == want_trace
