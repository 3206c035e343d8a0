"""Command-line contract: subcommands, exit codes, JSON stability."""

import json

import pytest

from cograss import cli, conormal, detvar
from cograss.cli import main
from cograss.cominuscule import CominusculeContext, build_context
from cograss.rootsys import InvariantError


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
