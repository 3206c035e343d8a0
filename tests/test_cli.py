"""Command-line contract: subcommands, exit codes, JSON stability."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cograss import cli, conormal, detvar
from cograss.cli import main
from cograss.cominuscule import CominusculeContext, build_context
from cograss.rootsys import InvariantError

REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_finite_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "D", "--rank", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["highest_root"] == [1, 2, 1, 1]
    assert len(payload["positive_roots"]) == 12
    assert payload["cominuscule_nodes"] == [1, 3, 4]


def test_roots_affine_text(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A", "--rank", "1", "--affine")
    assert code == 0
    assert "delta marks: 1 1" in out


def test_roots_invalid_rank_exits_2(capsys):
    code, _, err = run(capsys, "roots", "--type", "D", "--rank", "3")
    assert code == 2
    assert "rank >= 4" in err


def test_broken_invariant_exits_1_and_usage_error_exits_2(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantError("carried length is wrong")

    monkeypatch.setattr(cli.conormal, "closure_is_schubert", broken)
    code, out, err = run(capsys, "conormal", "--type", "A", "--rank", "3",
                         "--comin", "2", "--w", "2", "--json")
    assert (code, out) == (1, "")
    assert err == "invariant violated: carried length is wrong\n"
    code, out, err = run(capsys, "roots", "--type", "D", "--rank", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "rank >= 4" in err
    code, out, err = run(capsys, "conormal", "--type", "A", "--rank", "3",
                         "--comin", "2", "--w", "1,2", "--json")
    assert (code, out) == (2, "")
    assert err == ("error: word must look like '0 2 1' (node numbers separated by spaces),"
                   " got '1,2'\n")


def test_derived_twisted_dual_outside_w_d0_exits_1(capsys, monkeypatch):
    """v = iota(w0 w w_levi) is derived, not given, so v outside W_d^0 is a
    broken invariant (exit 1); a user's u outside W_d^0 stays a usage error."""
    monkeypatch.setattr(cli, "build_context", build_context.__wrapped__)
    monkeypatch.setattr(CominusculeContext, "iota_elem", lambda self, w: w)
    code, out, err = run(capsys, "conormal", "--type", "A", "--rank", "3",
                         "--comin", "2", "--w", "2", "--json")
    assert (code, out) == (1, "")
    assert err == ("invariant violated: twisted dual: element is not in the affine "
                   "Levi parabolic\n")
    code, out, err = run(capsys, "smooth", "--type", "A", "--rank", "3",
                         "--comin", "2", "--u", "2", "--json")
    assert (code, out) == (2, "")
    assert err == "error: element is not in the affine Levi parabolic\n"


def test_fibre_rank_on_a_broken_theorem_exits_1(capsys, monkeypatch):
    """The paper's theorem makes each rank stratum's conormal closure Schubert,
    so a failing c3 in fibre_rank is a broken invariant, not a usage error."""
    monkeypatch.setattr(detvar, "build_context", build_context.__wrapped__)
    monkeypatch.setattr(conormal, "demazure", lambda u, w: u * w)  # c3 fails for u != e
    code, out, err = run(capsys, "detvar", "--n", "6", "--r", "2")
    assert (code, out) == (1, "")
    assert err.startswith("invariant violated: rank-2 stratum of n=6: conormal closure "
                          "is not a Schubert variety")
    code, out, err = run(capsys, "detvar", "--n", "6", "--r", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_smooth_identity(capsys):
    code, out, _ = run(capsys, "smooth", "--type", "D", "--rank", "4",
                       "--comin", "4", "--u", "", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["smooth"] is True and payload["L"] == []


def test_smooth_rejects_bad_element(capsys):
    code, _, err = run(capsys, "smooth", "--type", "D", "--rank", "4",
                       "--comin", "4", "--u", "4")
    assert code == 2
    assert "affine Levi" in err


def test_conormal_with_fibre(capsys):
    code, out, _ = run(capsys, "conormal", "--type", "A", "--rank", "3",
                       "--comin", "2", "--w", "", "--fibre", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closure_is_schubert"] is True
    assert payload["fibre_max"] == ["0 3 1 0"]


def test_conormal_refuses_fibre_when_not_schubert(capsys):
    code, out, _ = run(capsys, "conormal", "--type", "A", "--rank", "3",
                       "--comin", "2", "--w", "2", "--fibre", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closure_is_schubert"] is False
    assert payload["fibre_refused"] is True
    assert "fibre_max" not in payload
    assert payload["v_word"] and payload["wv_word"]


def test_conormal_accepts_signed_permutation_for_type_d(capsys):
    code, out, _ = run(capsys, "conormal", "--type", "D", "--rank", "4",
                       "--comin", "4", "--w", "[3,4,7,8]", "--fibre", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closure_is_schubert"] is True
    assert len(payload["fibre_max"]) == 1
    # the bracketed form is ambiguous away from the type-D fork
    code, _, err = run(capsys, "conormal", "--type", "A", "--rank", "3",
                       "--comin", "2", "--w", "[1,2,3]")
    assert code == 2 and "type D" in err
    # an empty entry is refused, not skipped
    code, out, err = run(capsys, "conormal", "--type", "D", "--rank", "4",
                         "--comin", "4", "--w", "[3,4,,7,8]", "--json")
    assert (code, out) == (2, "")
    assert err == "error: signed permutation [3,4,,7,8] has an empty entry\n"


def test_conormal_refuses_a_permutation_of_the_wrong_rank(capsys):
    code, out, err = run(capsys, "conormal", "--type", "D", "--rank", "4",
                         "--comin", "4", "--w", "[1,2,3]")
    assert code == 2 and out == ""
    assert "has 3 values, the context has rank 4" in err
    assert "fork node" not in err


def test_conormal_full_fibre_flag(capsys):
    code, out, _ = run(capsys, "conormal", "--type", "A", "--rank", "3",
                       "--comin", "2", "--w", "", "--full-fibre", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["fibre_all"]) == 6
    assert payload["fibre_max"] == ["0 3 1 0"]


def test_detvar_subcommand(capsys):
    code, out, _ = run(capsys, "detvar", "--n", "4", "--r", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fibre_rank"] == 2
    assert payload["witness"] == "[3,4,7,8]"


def test_detvar_odd_rank_exits_2(capsys):
    code, _, err = run(capsys, "detvar", "--n", "4", "--r", "3")
    assert code == 2
    assert "even" in err


def test_verify_small_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-rank", "3")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_empty_sweep_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "fibre-det", "--max-rank", "3")
    assert code == 2 and out == ""
    assert "fibre-det" in err and "max_rank=3" in err


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", "A", "--rank", "2", "--bogus"])
    assert exc.value.code == 2


def test_json_output_is_stable(capsys):
    args = ("verify", "--suite", "result-q", "--max-rank", "3", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["pass"] is True
    assert all("elapsed" not in c for c in payload["checks"])


def test_verify_timing_flag_adds_elapsed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "wsontheta",
                       "--max-rank", "2", "--timing", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all("elapsed" in c for c in payload["checks"])


# -- one parser per process ------------------------------------------------------------


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    """20 main() calls over all five subcommands build one top-level parser and
    its five subparsers, and every call still answers."""
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    calls = [["roots", "--type", "A", "--rank", "2", "--json"],
             ["smooth", "--type", "A", "--rank", "3", "--comin", "2", "--u", "", "--json"],
             ["conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "", "--json"],
             ["detvar", "--n", "4", "--r", "2", "--json"],
             ["verify", "--suite", "wsontheta", "--max-rank", "2", "--json"]]
    for argv in calls * 4:
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)
    assert len(built) == 1 + 5


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own exits: usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MAIN = """
import sys
from cograss import cli
raise SystemExit(cli.main(sys.argv[1:]))
"""

def _broken(*args, **kwargs):
    raise InvariantError("carried length is wrong")


BREACH = """
import sys
from cograss import cli
from cograss.rootsys import InvariantError

def broken(*args, **kwargs):
    raise InvariantError("carried length is wrong")

cli.conormal.closure_is_schubert = broken
raise SystemExit(cli.main(sys.argv[1:]))
"""


def _alone(script, argv):
    """The invocation run by itself in a fresh interpreter, on this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"})
    return run.returncode, run.stdout, run.stderr


def test_shared_parser_answers_each_call_as_a_fresh_process(capsys, monkeypatch):
    """A usage error, --help, a broken invariant and a valid query, interleaved in
    one process, each give the exit code, stdout and stderr of the same call run
    alone: the cached parser carries nothing from one call to the next."""
    monkeypatch.setenv("COLUMNS", "80")
    usage = ["verify", "--suite", "bogus"]
    helped = ["conormal", "--help"]
    query = ["conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "", "--fibre",
             "--json"]
    breach = ["conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "2", "--json"]
    seen = [_in_process(capsys, usage), _in_process(capsys, helped)]
    with monkeypatch.context() as patched:
        patched.setattr(cli.conormal, "closure_is_schubert", _broken)
        seen.append(_in_process(capsys, breach))
    seen.append(_in_process(capsys, query))
    alone = [_alone(MAIN, usage), _alone(MAIN, helped), _alone(BREACH, breach),
             _alone(MAIN, query)]
    assert [code for code, _, _ in seen] == [2, 0, 1, 0]
    assert seen == alone


# -- the query-mix outputs, in one process ---------------------------------------------

GOLDEN_QUERIES = json.loads((REPO / "perfbench" / "golden" / "query-mix.json").read_text())


def test_query_mix_sample_matches_golden_digests_in_one_process(capsys):
    """200 seeded (context, w) entries of the benchmark's golden universe, one
    from each of its 68 contexts and the rest drawn uniformly, run through main
    in one interpreter in shuffled order as a query-mix job runs them: each
    stdout's sha256 equals the recorded digest."""
    contexts = GOLDEN_QUERIES["contexts"]
    assert len(contexts) == 68
    rng = random.Random("query-mix golden sample")
    per_context = [[(tuple(e["context"]), word, digest)
                    for word, digest in zip(e["words"], e["sha256"])] for e in contexts]
    sample = [rng.choice(entries) for entries in per_context]
    rest = sorted({entry for entries in per_context for entry in entries} - set(sample))
    sample += rng.sample(rest, 200 - len(sample))
    rng.shuffle(sample)
    for (series, rank, d), word, digest in sample:
        code = main(["conormal", "--type", series, "--rank", str(rank), "--comin", str(d),
                     "--w", word, "--fibre", "--json"])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), (
            series, rank, d, word)


# -- the bytes of every subcommand, pinned ---------------------------------------------

PINNED = {  # argv -> (exit code, sha256 of stdout, first 16 hex digits); help at COLUMNS=80
    ("--help",): (0, "a37d84733d9e3542"),
    ("roots", "--help"): (0, "b6f7d23c949565d9"),
    ("smooth", "--help"): (0, "2d116d5e58967d1c"),
    ("conormal", "--help"): (0, "3a3947f2a5d69c6a"),
    ("detvar", "--help"): (0, "244ec5d39995540c"),
    ("verify", "--help"): (0, "9517fc1bf162a8eb"),
    ("roots", "--type", "D", "--rank", "4"): (0, "46ac92ac2210db9d"),
    ("roots", "--type", "D", "--rank", "4", "--json"): (0, "7225d10a5884bc9b"),
    ("roots", "--type", "B", "--rank", "3", "--affine"): (0, "669a78ef50f380f6"),
    ("roots", "--type", "B", "--rank", "3", "--affine", "--json"): (0, "ad1e48e95d3965c5"),
    ("smooth", "--type", "A", "--rank", "3", "--comin", "2", "--u", "1 3 0"):
        (0, "a6b7ed8dd44cdf37"),
    ("smooth", "--type", "A", "--rank", "3", "--comin", "2", "--u", "1 3 0", "--json"):
        (0, "5e8b34fdd7424c3c"),
    ("conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "", "--full-fibre"):
        (0, "a3b3f63ed29fa263"),
    ("conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "", "--full-fibre",
     "--json"): (0, "323bb58bf5a55ac8"),
    ("conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "2", "--fibre"):
        (0, "49f5f624b573f32e"),
    ("conormal", "--type", "A", "--rank", "3", "--comin", "2", "--w", "2", "--fibre",
     "--json"): (0, "1893badfcab77022"),
    ("detvar", "--n", "6", "--r", "2"): (0, "77293c6f5d450b76"),
    ("detvar", "--n", "6", "--r", "2", "--json"): (0, "f7f1e9c2c44f239d"),
    ("verify", "--suite", "result-q", "--max-rank", "3"): (0, "dd9ebe083ea2f0fb"),
    ("verify", "--suite", "result-q", "--max-rank", "3", "--json"): (0, "2eff315ea59a774c"),
}


def test_every_subcommand_prints_its_pinned_bytes(capsys, monkeypatch):
    """The help texts and the text and --json outputs of each subcommand, a
    non-smooth element, a full fibre and a refused fibre among them, keep their
    exit codes and the sha256 of their whole stdout."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = {}
    for argv in PINNED:
        code, out, _ = _in_process(capsys, list(argv))
        seen[argv] = (code, hashlib.sha256(out.encode()).hexdigest()[:16])
    assert seen == PINNED
