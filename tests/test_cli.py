"""End-to-end tests for the command line interface.

Every test drives ldpput.cli.main(argv) directly and checks the exit
code plus the emitted JSON or CSV.  Values asserted here are frozen
from the library-level suites.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from ldpput import channels, ldp_geometry
from ldpput.applications import ht_problem
from ldpput.channels import Channel
from ldpput.cli import (
    EXIT_AUDIT,
    EXIT_CAP,
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_PARSE,
    METHODS,
    main,
)
from ldpput.serialize import channel_to_json
from oracles import problem_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


@pytest.fixture
def rr_channel_file(tmp_path):
    rows = ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
    channel = Channel.build((0, 1), (1, 2), rows)
    path = tmp_path / "rr.json"
    path.write_text(json.dumps(channel_to_json(channel)))
    return str(path)


@pytest.fixture
def uniform_channel_file(tmp_path):
    half = Fraction(1, 2)
    channel = Channel.build((0, 1), ("a", "b"), ((half, half), (half, half)))
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(channel_to_json(channel)))
    return str(path)


def guessing_problem_file(tmp_path, with_prior):
    problem, prior = ht_problem(3, Fraction(1))
    data = problem_to_json(problem, prior if with_prior else None)
    path = tmp_path / ("prior.json" if with_prior else "noprior.json")
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------- check-channel


def test_check_channel_maximal(capsys, rr_channel_file):
    report = run_json(capsys, "check-channel", rr_channel_file, "--t", "2")
    assert report["ldp"] is True
    assert report["verdict"] is True
    assert report["canonical_weights"] == {"m": 2, "t": "2", "support": [1, 2],
                                           "weights": ["1/3", "1/3"]}
    assert len(report["channel_hash"]) == 64


def test_check_channel_not_maximal(capsys, uniform_channel_file):
    report = run_json(capsys, "check-channel", uniform_channel_file, "--t", "2")
    assert report["ldp"] is True
    assert report["verdict"] is False
    assert report["failing_row"] == 0
    assert "canonical_weights" not in report


def test_check_channel_not_ldp(capsys, rr_channel_file):
    # ratio 2 within a row breaks the 3/2 bound
    report = run_json(capsys, "check-channel", rr_channel_file, "--t", "3/2")
    assert report["ldp"] is False
    assert report["verdict"] is False


def test_check_channel_checks_privacy_and_scans_rows_once(capsys, monkeypatch,
                                                         rr_channel_file):
    calls = {"is_ldp": 0, "is_extreme_direction": 0}
    for module, name in ((channels, "is_ldp"), (ldp_geometry, "is_extreme_direction")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    report = run_json(capsys, "check-channel", rr_channel_file, "--t", "2")
    assert report["verdict"] is True and "canonical_weights" in report
    assert calls == {"is_ldp": 1, "is_extreme_direction": 2}


def test_check_channel_csv(capsys, rr_channel_file):
    code, out, err = run(capsys, "check-channel", rr_channel_file,
                         "--t", "2", "--format", "csv")
    assert code == EXIT_OK
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["verdict"] == "True"
    assert rows["t"] == "2"


def test_check_channel_missing_file(capsys):
    code, out, err = run(capsys, "check-channel", "/does/not/exist.json", "--t", "2")
    assert code == EXIT_PARSE
    assert "error:" in err


def test_check_channel_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "check-channel", str(path), "--t", "2")
    assert code == EXIT_PARSE


def test_level_is_required(capsys, rr_channel_file):
    code, out, err = run(capsys, "check-channel", rr_channel_file)
    assert code == EXIT_PARSE
    assert "privacy level" in err


def test_level_t_and_epsilon_conflict(capsys, rr_channel_file):
    code, out, err = run(capsys, "check-channel", rr_channel_file,
                         "--t", "2", "--epsilon", "1")
    assert code == EXIT_PARSE


# ------------------------------------------------------------------- enumerate


def test_enumerate_m2(capsys):
    data = run_json(capsys, "enumerate", "--m", "2", "--t", "2")
    assert data["count"] == 1
    assert data["vertices"] == [{"m": 2, "t": "2", "support": [1, 2],
                                 "weights": ["1/3", "1/3"]}]


M3_T2_VERTICES = {
    ((3, 5, 6), ("1/5", "1/5", "1/5")),
    ((3, 4), ("1/3", "1/3")),
    ((2, 5), ("1/3", "1/3")),
    ((1, 2, 4), ("1/4", "1/4", "1/4")),
    ((1, 6), ("1/3", "1/3")),
}


def test_enumerate_m3(capsys):
    data = run_json(capsys, "enumerate", "--m", "3", "--t", "2")
    assert data["count"] == 5
    got = {(tuple(v["support"]), tuple(v["weights"])) for v in data["vertices"]}
    assert got == M3_T2_VERTICES


def test_enumerate_symmetric_group(capsys):
    data = run_json(capsys, "enumerate", "--m", "3", "--t", "2", "--group", "sym")
    assert data["count"] == 2
    assert data["group"] == "sym"
    orbits = sorted((v["orbits"][0]["subset_size"], v["orbits"][0]["weight"])
                    for v in data["vertices"] if len(v["orbits"]) == 1)
    assert orbits == [(1, "1/4"), (2, "1/5")]


def test_enumerate_group_from_file(capsys, tmp_path):
    # a file holding the rotation generator must match --group cyclic
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"alphabet": [0, 1, 2, 3],
                                "generators": [[1, 2, 3, 0]]}))
    from_file = run_json(capsys, "enumerate", "--m", "4", "--t", "2",
                         "--group", f"file:{path}")
    builtin = run_json(capsys, "enumerate", "--m", "4", "--t", "2",
                       "--group", "cyclic")
    assert from_file["count"] == builtin["count"] == 4
    assert from_file["vertices"] == builtin["vertices"]
    weights = {o["weight"] for v in builtin["vertices"] for o in v["orbits"]}
    assert weights == {"1/5", "1/6", "1/3", "1/7"}


def test_enumerate_bad_group(capsys):
    code, out, err = run(capsys, "enumerate", "--m", "3", "--t", "2",
                         "--group", "dihedral")
    assert code == EXIT_PARSE


def test_enumerate_cap(capsys):
    code, out, err = run(capsys, "enumerate", "--m", "9", "--t", "2")
    assert code == EXIT_CAP
    assert "cap exceeded" in err


def test_enumerate_cap_env_lower(capsys, monkeypatch):
    monkeypatch.setenv("LDPPUT_CAP_M", "2")
    code, out, err = run(capsys, "enumerate", "--m", "3", "--t", "2")
    assert code == EXIT_CAP
    assert "m <= 2" in err


def test_enumerate_cap_env_allows(capsys, monkeypatch):
    monkeypatch.setenv("LDPPUT_CAP_M", "3")
    data = run_json(capsys, "enumerate", "--m", "3", "--t", "2")
    assert data["count"] == 5


def test_enumerate_cap_env_garbage(capsys, monkeypatch):
    monkeypatch.setenv("LDPPUT_CAP_M", "three")
    with pytest.raises(SystemExit):
        main(["enumerate", "--m", "3", "--t", "2"])


def test_enumerate_cap_env_garbage_exits_parse(capsys, monkeypatch):
    monkeypatch.setenv("LDPPUT_CAP_M", "x")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--m", "3", "--t", "2"])
    assert exc.value.code == EXIT_PARSE
    assert "LDPPUT_CAP_M" in capsys.readouterr().err


def test_enumerate_group_closure_cap_exits_cap(capsys):
    # S_9 has 362,880 elements, past the group closure cap.
    code, out, err = run(capsys, "enumerate", "--m", "9", "--t", "2", "--group", "sym")
    assert code == EXIT_CAP
    assert "cap exceeded" in err



@pytest.mark.parametrize("argv", [("enumerate", "--m", "7"),
                                  ("put", "--task", "ht", "--m", "7", "--method", "vertex")])
def test_grouped_support_enumeration_cap_exits_cap(capsys, tmp_path, argv):
    # A 3-cycle on 7 letters leaves 62 subset orbits and 5 letter orbits:
    # C(62, 5) candidate supports, past the grouped enumeration cap.
    path = tmp_path / "three_cycle.json"
    path.write_text(json.dumps({"alphabet": list(range(7)),
                                "generators": [[1, 2, 0, 3, 4, 5, 6]]}))
    code, out, err = run(capsys, *argv, "--t", "2", "--group", f"file:{path}")
    assert code == EXIT_CAP
    assert "cap exceeded: support enumeration too large: C(62,5)" in err
@pytest.mark.parametrize("epsilon", ["1000", "inf"])
def test_epsilon_overflow_exits_parse(capsys, epsilon):
    code, out, err = run(capsys, "enumerate", "--m", "2", "--epsilon", epsilon)
    assert code == EXIT_PARSE
    assert "Traceback" not in err


def test_enumerate_csv(capsys):
    code, out, err = run(capsys, "enumerate", "--m", "3", "--t", "2",
                         "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "index,support,weights"
    assert len(lines) == 6


def test_enumerate_grouped_csv(capsys):
    code, out, err = run(capsys, "enumerate", "--m", "4", "--t", "2",
                         "--group", "cyclic", "--format", "csv")
    assert code == EXIT_OK, err
    assert out.splitlines() == ["index,representatives,sizes,weights",
                                "0,7,4,1/7", "1,5,2,1/3", "2,3,4,1/6", "3,1,4,1/5"]


# ------------------------------------------------------------------------- put


def test_put_ht_all_methods(capsys):
    data = run_json(capsys, "put", "--task", "ht", "--m", "3",
                    "--gamma", "1", "--t", "2")
    assert data["agreement"] is True
    assert data["task"] == "ht"
    methods = [r["method"] for r in data["results"]]
    assert methods == ["closed_form", "transitive_closed_form",
                       "vertex_enumeration_grouped", "vertex_enumeration", "lp"]
    assert all(r["value"] == "1/2" for r in data["results"])
    assert all(r["certificate"] == "exact" for r in data["results"])
    assert data["results"][0]["winner"] == "k=1"


def test_put_ht_closed_needs_no_default_group(capsys):
    # S_8 would exceed the group closure cap; the closed form never needs it.
    data = run_json(capsys, "put", "--task", "ht", "--m", "8", "--method", "closed",
                    "--t", "2")
    assert [row["method"] for row in data["results"]] == ["closed_form"]
    assert data["results"][0]["value"] == "7/9"


def test_put_ht_method_subset(capsys):
    data = run_json(capsys, "put", "--task", "ht", "--m", "3",
                    "--gamma", "1", "--t", "2", "--method", "closed,lp")
    methods = [r["method"] for r in data["results"]]
    assert methods == ["closed_form", "lp"]
    assert all(r["value"] == "1/2" for r in data["results"])


def test_put_ht_winner_support(capsys):
    data = run_json(capsys, "put", "--task", "ht", "--m", "3",
                    "--gamma", "1", "--t", "2", "--method", "vertex_full")
    assert data["results"][0]["winner"] == "support(1,2,4)"


def test_put_cardioid(capsys):
    data = run_json(capsys, "put", "--task", "cardioid", "--m", "4",
                    "--gamma", "1", "--t", "3")
    methods = [r["method"] for r in data["results"]]
    assert methods == ["closed_form", "transitive_closed_form"]
    assert all(r["value"] == "0.8232233047033631" for r in data["results"])
    assert data["results"][0]["winner"] == "k=2"
    assert data["results"][1]["winner"] == "orbit(rep=3,k=2)"


def test_put_epsilon_reports_approximation(capsys):
    data = run_json(capsys, "put", "--task", "ht", "--m", "2", "--gamma", "1",
                    "--epsilon", "0.6931471805599453")
    note = data["level_note"]
    assert note["t"] == "2"
    assert 0 <= note["approximation_bound"] < 1e-9
    assert all(r["value"] == "1/3" for r in data["results"])


def test_put_custom_problem_bayes(capsys, tmp_path):
    path = guessing_problem_file(tmp_path, with_prior=True)
    data = run_json(capsys, "put", "--problem", path, "--t", "2")
    assert data["task"] == "custom"
    assert data["risk"] == "bayes"
    methods = [r["method"] for r in data["results"]]
    assert methods == ["vertex_enumeration", "lp"]
    assert all(r["value"] == "1/2" for r in data["results"])
    assert all(r["certificate"] == "exact" for r in data["results"])


def test_put_custom_problem_minimax(capsys, tmp_path):
    # without a prior only the vertex bound runs, and it is a bound
    path = guessing_problem_file(tmp_path, with_prior=False)
    data = run_json(capsys, "put", "--problem", path, "--t", "2")
    assert data["risk"] == "minimax"
    assert len(data["results"]) == 1
    assert data["results"][0]["value"] == "1/2"
    assert data["results"][0]["certificate"] == "bound_only"


# A problem with no symmetry: its optimum 181/143 is not reached by any
# S_3-invariant channel, whose best is 189/143.
ASYMMETRIC_PROBLEM = {
    "parameters": [0, 1, 2], "inputs": [0, 1, 2], "actions": [0, 1, 2],
    "model": [["6/13", "1/5", "1/8"], ["2/13", "3/5", "1/8"], ["5/13", "1/5", "3/4"]],
    "loss": [["4", "0", "3"], ["1", "3", "0"], ["4", "1", "3"]],
    "prior": ["4/11", "5/11", "2/11"],
}


def test_put_custom_problem_rejects_group_it_lacks(capsys, tmp_path, monkeypatch):
    import ldpput.cli

    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(ASYMMETRIC_PROBLEM))
    with monkeypatch.context() as patch:
        # The group is checked before any solver runs.
        for name in ("put_by_vertex_enumeration", "put_by_lp"):
            patch.setattr(ldpput.cli, name, lambda *a, **k: pytest.fail("a solver ran"))
        code, out, err = run(capsys, "put", "--problem", str(path), "--t", "3",
                             "--group", "sym")
    assert code == EXIT_PARSE
    assert "not invariant under --group" in err
    data = run_json(capsys, "put", "--problem", str(path), "--t", "3")
    assert [r["value"] for r in data["results"]] == ["181/143", "181/143"]


def test_put_custom_problem_cap_exits_before_linear_form(capsys, tmp_path, monkeypatch):
    import ldpput.cli

    def refuse(*args):
        raise AssertionError("the 2^m - 2 coefficients were built past the cap")

    monkeypatch.setattr(ldpput.cli, "bayes_linear_coefficients", refuse)
    problem, prior = ht_problem(7, Fraction(1))
    path = tmp_path / "m7.json"
    path.write_text(json.dumps(problem_to_json(problem, prior)))
    code, out, err = run(capsys, "put", "--problem", str(path), "--t", "2")
    assert code == EXIT_CAP
    assert "cap exceeded" in err


@pytest.mark.parametrize("argv", [
    ("put", "--task", "ht", "--m", "14", "--t", "2", "--method", "lp"),
    ("audit", "--task", "ht", "--m", "14", "--t", "2", "--samples", "1"),
])
def test_ht_cap_exits_before_linear_form(capsys, monkeypatch, argv):
    import ldpput.cli

    def refuse(*args):
        raise AssertionError("the 2^m - 2 coefficients were built past the cap")

    monkeypatch.setattr(ldpput.cli, "bayes_linear_coefficients", refuse)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CAP
    assert "cap exceeded: vertex enumeration capped at m <= 5, got m = 14" in err


def test_put_custom_problem_runs_its_methods(capsys, tmp_path):
    path = guessing_problem_file(tmp_path, with_prior=True)
    data = run_json(capsys, "put", "--problem", path, "--t", "2", "--method", "lp")
    assert [(r["method"], r["value"]) for r in data["results"]] == [("lp", "1/2")]
    code, out, err = run(capsys, "put", "--problem", path, "--t", "2", "--method", "closed")
    assert code == EXIT_PARSE
    assert out == ""
    assert "--problem runs only the methods ('vertex', 'lp'), got 'closed'" in err


def test_put_ht_lp_honours_group(capsys):
    data = run_json(capsys, "put", "--task", "ht", "--m", "4", "--t", "2",
                    "--group", "cyclic", "--method", "closed,lp")
    assert [r["method"] for r in data["results"]] == ["closed_form", "lp_grouped"]
    assert data["results"][0]["value"] == data["results"][1]["value"] == "3/5"
    assert data["results"][1]["certificate"] == "exact"


@pytest.mark.parametrize("letters", [[0, 1, 2], [0, 1, 2, 3, 4]])
@pytest.mark.parametrize("task", ["ht", "problem"])
def test_put_rejects_group_on_other_letters(capsys, tmp_path, monkeypatch, letters, task):
    import ldpput.cli

    # A 3-cycle on the first three letters of a 3- or 5-letter alphabet,
    # against a 4-letter task: its orbits say nothing of the task's subsets.
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"alphabet": letters,
                                "generators": [[1, 2, 0] + letters[3:]]}))
    if task == "ht":
        argv = ("--task", "ht", "--m", "4")
    else:
        problem, prior = ht_problem(4, Fraction(1))
        problem_path = tmp_path / "m4.json"
        problem_path.write_text(json.dumps(problem_to_json(problem, prior)))
        argv = ("--problem", str(problem_path))
    with monkeypatch.context() as patch:
        for name in ("put_by_vertex_enumeration", "put_by_lp"):
            patch.setattr(ldpput.cli, name, lambda *a, **k: pytest.fail("a solver ran"))
        code, out, err = run(capsys, "put", *argv, "--t", "2", "--method", "lp",
                             "--group", f"file:{path}")
    assert code == EXIT_PARSE
    assert out == ""
    assert f"error: --group acts on {tuple(letters)}, not (0, 1, 2, 3)" in err
    if task == "ht":
        code, out, err = run(capsys, "put", *argv, "--t", "2", "--method", "closed",
                             "--group", f"file:{path}")
        assert code == EXIT_PARSE
        assert "Traceback" not in err


def test_put_ht_closed_builds_no_values(capsys, monkeypatch):
    import ldpput.cli

    # Only `transitive` reads ht's per-mask values; a --group alone does not.
    monkeypatch.setattr(ldpput.cli, "all_subset_masks",
                        lambda *a: pytest.fail("the per-mask values were built"))
    data = run_json(capsys, "put", "--task", "ht", "--m", "4", "--t", "2",
                    "--group", "cyclic", "--method", "closed,lp")
    assert [r["value"] for r in data["results"]] == ["3/5", "3/5"]


def test_put_cardioid_rejects_group_it_lacks(capsys):
    # An S_6 orbit of 2-subsets mixes adjacent and distant pairs.
    code, out, err = run(capsys, "put", "--task", "cardioid", "--m", "6",
                         "--gamma", "1", "--t", "3", "--group", "sym")
    assert code == EXIT_PARSE
    assert "not invariant under --group" in err
    data = run_json(capsys, "put", "--task", "cardioid", "--m", "6", "--gamma", "1",
                    "--t", "3", "--group", "cyclic")
    assert data["agreement"] is True


def test_put_method_disagreement_exit(capsys, monkeypatch):
    import ldpput.applications

    monkeypatch.setattr(ldpput.applications, "ht_put_closed_form",
                        lambda m, gamma, level: Fraction(9, 10))
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3",
                         "--gamma", "1", "--t", "2", "--method", "closed,lp")
    assert code == EXIT_DISAGREE
    assert "method disagreement" in err


def test_put_missing_m(capsys):
    code, out, err = run(capsys, "put", "--task", "ht", "--t", "2")
    assert code == EXIT_PARSE
    assert "--m" in err


def test_put_no_task_no_problem(capsys):
    code, out, err = run(capsys, "put", "--t", "2")
    assert code == EXIT_PARSE


def test_put_bad_gamma(capsys):
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3",
                         "--gamma", "abc", "--t", "2")
    assert code == EXIT_PARSE


def test_put_gamma_out_of_range(capsys):
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3",
                         "--gamma", "0", "--t", "2")
    assert code == EXIT_PARSE


def test_put_bad_method(capsys):
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3",
                         "--t", "2", "--method", "magic")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("task,method", [("cardioid", "lp"), ("cardioid", "vertex"),
                                         ("ht", ",")])
def test_put_method_list_the_task_cannot_run(capsys, task, method):
    code, out, err = run(capsys, "put", "--task", task, "--m", "4", "--t", "2",
                         "--method", method)
    assert code == EXIT_PARSE
    assert out == ""
    supported = ("closed", "transitive") if task == "cardioid" else METHODS
    assert f"--task {task} runs only the methods {supported}, got {method!r}" in err


def test_put_out_file(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3",
                         "--gamma", "1", "--t", "2", "--out", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(out_path.read_text())
    assert data["task"] == "ht"
    assert data["results"][0]["value"] == "1/2"


def test_put_csv(capsys):
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3",
                         "--gamma", "1", "--t", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "task,m,gamma,t,method,value,winner,certificate"
    assert len(lines) == 6
    assert lines[1].startswith("ht,3,1,2,closed_form,1/2,")


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------- audit


def test_audit_ht_passes(capsys):
    data = run_json(capsys, "audit", "--task", "ht", "--m", "3", "--t", "2",
                    "--samples", "8", "--seed", "1")
    assert data["passed"] is True
    assert data["min_gap"] == "1/33"


def test_audit_deterministic(capsys):
    argv = ["audit", "--task", "ht", "--m", "3", "--t", "2",
            "--samples", "6", "--seed", "42"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert first == second


def test_audit_seed_changes_report(capsys):
    one = run_json(capsys, "audit", "--task", "ht", "--m", "3", "--t", "2",
                   "--samples", "6", "--seed", "1")
    two = run_json(capsys, "audit", "--task", "ht", "--m", "3", "--t", "2",
                   "--samples", "6", "--seed", "2")
    assert one["min_gap"] != two["min_gap"]


def test_audit_cardioid_passes(capsys):
    data = run_json(capsys, "audit", "--task", "cardioid", "--m", "4",
                    "--t", "3", "--samples", "5", "--seed", "2")
    assert data["passed"] is True


def test_audit_violation_exit(capsys, monkeypatch):
    # an inflated baseline makes every sampled channel a counterexample
    import ldpput.cli as cli_mod

    solve = cli_mod.put_by_lp
    monkeypatch.setattr(cli_mod, "put_by_lp",
                        lambda *a, **k: dataclasses.replace(solve(*a, **k), value=Fraction(1)))
    code, out, err = run(capsys, "audit", "--task", "ht", "--m", "3",
                         "--t", "2", "--samples", "3", "--seed", "0")
    assert code == EXIT_AUDIT
    data = json.loads(out)
    assert data["passed"] is False
    assert Fraction(data["gap"]) < 0
    assert "rows" in data["channel"]


def test_audit_negative_samples_exits_parse(capsys):
    code, out, err = run(capsys, "audit", "--task", "ht", "--m", "3", "--t", "2",
                         "--samples", "-5")
    assert code == EXIT_PARSE
    assert out == ""
