"""End-to-end tests for the command line interface.

Every test drives ldpput.cli.main(argv) directly and checks the exit
code plus the emitted JSON or CSV.  Values asserted here are frozen
from the library-level suites.
"""

import csv
import dataclasses
import io
import json
from fractions import Fraction

import pytest

from ldpput import channels, ldp_geometry, serialize
from ldpput.applications import ht_problem
from ldpput.channels import Channel
from ldpput.cli import (
    EXIT_AUDIT,
    EXIT_CAP,
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_PARSE,
    METHODS,
    build_parser,
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
    calls = {"is_ldp": 0, "ray_subsets": 0}
    for module, name in ((channels, "is_ldp"), (serialize, "ray_subsets")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    report = run_json(capsys, "check-channel", rr_channel_file, "--t", "2")
    assert report["verdict"] is True and "canonical_weights" in report
    assert calls == {"is_ldp": 1, "ray_subsets": 1}


@pytest.mark.parametrize("t", ["1", "2"])
def test_check_channel_one_input_letter_exits_parse(capsys, tmp_path, t):
    """One input letter has no nonempty proper subset: at t = 1 this once
    raised IndexError through main, and at t = 2 it reported a verdict."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"input": [0], "output": ["a"], "rows": [["1"]]}))
    code, out, err = run(capsys, "check-channel", str(path), "--t", t)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "error: maximality needs at least two input letters\n"


def test_check_channel_csv(capsys, rr_channel_file):
    code, out, err = run(capsys, "check-channel", rr_channel_file,
                         "--t", "2", "--format", "csv")
    assert code == EXIT_OK
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["verdict"] == "True"
    assert rows["t"] == "2"


@pytest.mark.parametrize("argv, field, violate", [
    (("check-channel", "{rr}", "--t", "2"), "canonical_weights", False),
    (("check-channel", "{rr}", "--epsilon", "0.7"), "level_note", False),
    (("audit", "--task", "ht", "--m", "3", "--epsilon", "0.7", "--samples", "2"),
     "level_note", False),
    (("audit", "--task", "ht", "--m", "3", "--t", "2", "--samples", "2"), "channel", True),
], ids=["canonical-weights", "check-level-note", "audit-level-note", "audit-channel"])
def test_key_value_csv_cells_are_json(capsys, monkeypatch, rr_channel_file, argv, field,
                                      violate):
    """The key/value CSV wrote object cells as Python reprs ("{'m': 2,
    't': '2', ...}"); each now reads back with json.loads as the JSON
    output's value, and a scalar cell keeps its text ("True")."""
    import ldpput.cli as cli_mod

    if violate:  # an inflated baseline makes every sampled channel a counterexample
        solve = cli_mod.put_by_lp
        monkeypatch.setattr(cli_mod, "put_by_lp",
                            lambda *a, **k: dataclasses.replace(solve(*a, **k), value=Fraction(1)))
    argv = [rr_channel_file if a == "{rr}" else a for a in argv]
    json_code, json_out, _ = run(capsys, *argv)
    csv_code, csv_out, _ = run(capsys, *argv, "--format", "csv")
    assert csv_code == json_code == (EXIT_AUDIT if violate else EXIT_OK)
    expected = json.loads(json_out)
    cells = dict(csv.reader(io.StringIO(csv_out)))
    assert json.loads(cells[field]) == expected[field]
    verdict = "verdict" if argv[0] == "check-channel" else "passed"
    assert cells[verdict] == str(expected[verdict])


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
    # One letter past the grouped cap: 2^17 - 2 subsets to split into orbits.
    m = ldp_geometry.GROUPED_CAP_M + 1
    code, out, err = run(capsys, "enumerate", "--m", str(m), "--t", "2", "--group", "sym")
    assert code == EXIT_CAP
    assert "cap exceeded" in err


@pytest.mark.parametrize("argv", [
    ("put", "--task", "ht", "--method", "closed,transitive"),
    ("put", "--task", "ht", "--method", "closed", "--group", "sym"),
    ("put", "--task", "cardioid"),
    ("enumerate", "--group", "cyclic"),
])
def test_grouped_cap_exits_before_subset_lists(capsys, monkeypatch, argv):
    """One letter past the grouped cap exits 3 before any subset orbit or
    per-subset list is built, and LDPPUT_CAP_M does not raise that cap."""
    from ldpput import cli, groups

    def refuse(*args):
        raise AssertionError("a 2^m - 2 list was built past the grouped cap")

    monkeypatch.setattr(cli, "all_subset_masks", refuse)
    monkeypatch.setattr(groups, "all_subset_masks", refuse)
    monkeypatch.setenv("LDPPUT_CAP_M", "40")
    m = ldp_geometry.GROUPED_CAP_M + 1
    code, out, err = run(capsys, *argv, "--m", str(m), "--t", "2")
    assert code == EXIT_CAP
    assert f"cap exceeded: grouped paths capped at m <= {m - 1}, got m = {m}" in err


def test_closed_form_runs_past_grouped_cap(capsys):
    data = run_json(capsys, "put", "--task", "ht", "--m", "30", "--t", "2",
                    "--method", "closed")
    assert data["results"][0]["value"] == "29/31"


@pytest.mark.parametrize("m", range(8, 15))
def test_enumerate_sym_one_vertex_per_subset_size(capsys, m):
    # Past the old closure cap (S_8 has 40,320 elements): S_m leaves one
    # letter orbit, so each subset size is a vertex on its own.
    data = run_json(capsys, "enumerate", "--m", str(m), "--t", "2", "--group", "sym")
    assert data["count"] == m - 1
    assert sorted(v["orbits"][0]["subset_size"] for v in data["vertices"]) == list(range(1, m))


@pytest.mark.parametrize("m", range(8, 13))
def test_put_ht_grouped_methods_agree_past_closure_cap(capsys, m):
    data = run_json(capsys, "put", "--task", "ht", "--m", str(m), "--t", "3/2",
                    "--gamma", "1/2", "--method", "closed,transitive,vertex")
    assert data["agreement"] is True
    assert [r["method"] for r in data["results"]] == [
        "closed_form", "transitive_closed_form", "vertex_enumeration_grouped"]
    assert len({r["value"] for r in data["results"]}) == 1
    assert all(r["certificate"] == "exact" for r in data["results"])


@pytest.mark.parametrize("argv", [
    ("put", "--task", "cardioid", "--m", "10", "--gamma", "1/2"),
    ("put", "--task", "ht", "--m", "7", "--method", "closed,transitive,vertex"),
    ("put", "--task", "ht", "--m", "7", "--group", "cyclic", "--method", "transitive,vertex"),
    ("put", "--task", "ht", "--m", "7", "--group", "sym", "--method", "lp"),
    ("enumerate", "--m", "7", "--group", "sym"),
    ("enumerate", "--m", "7", "--group", "cyclic"),
])
def test_grouped_commands_close_no_group(capsys, monkeypatch, argv):
    """Grouped commands read generators and orbits only: with the element
    list (and so the order) unreadable, each still answers."""
    from ldpput.groups import PermGroup

    def closed(group):
        raise AssertionError("a group was closed into its elements")

    monkeypatch.setattr(PermGroup, "elements", property(closed))
    run_json(capsys, *argv, "--t", "2")


def test_grouped_put_builds_subset_orbits_once(capsys, monkeypatch):
    """The --group check, the closed form and the grouped sweep share one
    subset-orbit partition."""
    from ldpput import groups

    original = groups.orbits
    carriers = []

    def counting_orbits(action):
        carriers.append(len(action.carrier))
        return original(action)

    monkeypatch.setattr(groups, "orbits", counting_orbits)
    monkeypatch.setattr(ldp_geometry, "orbits", counting_orbits)
    run_json(capsys, "put", "--task", "ht", "--m", "7", "--t", "2", "--group", "cyclic",
             "--method", "transitive,vertex")
    assert carriers.count((1 << 7) - 2) == 1


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


def test_nan_epsilon_exits_parse(capsys):
    """NaN is refused by name before any Fraction conversion, as one
    error line."""
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3", "--epsilon", "nan")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "error: epsilon must be a number, got nan\n"


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



@pytest.mark.parametrize("argv, header", [
    (("put", "--task", "ht", "--m", "3", "--method", "closed,lp"),
     "task,m,gamma,t,method,value,winner,certificate"),
    (("enumerate", "--m", "3"), "index,support,weights"),
    (("enumerate", "--m", "4", "--group", "cyclic"), "index,representatives,sizes,weights"),
], ids=["results", "vertices", "grouped-vertices"])
def test_csv_layouts_end_with_the_level_note(capsys, argv, header):
    """With --epsilon, the results and vertex layouts wrote no level note;
    each now ends with one level_note row whose cell is the JSON output's
    note, sorted keys, as the key/value layout writes it.  With --t there
    is no note and no such row."""
    json_code, json_out, _ = run(capsys, *argv, "--epsilon", "0.7")
    code, out, err = run(capsys, *argv, "--epsilon", "0.7", "--format", "csv")
    assert code == json_code == EXIT_OK, err
    rows = list(csv.reader(io.StringIO(out)))
    assert ",".join(rows[0]) == header
    assert [row[0] for row in rows].count("level_note") == 1
    assert rows[-1] == ["level_note",
                        json.dumps(json.loads(json_out)["level_note"], sort_keys=True)]
    code, out, err = run(capsys, *argv, "--t", "2", "--format", "csv")
    assert code == EXIT_OK, err
    assert out.splitlines()[0] == header and "level_note" not in out


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
    # The closed form reads no group and no per-subset list.
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


def test_put_lp_at_t_1_wins_at_mask_1(capsys):
    """At t = 1 the LP keeps one row and starts at the orbit of mask 1,
    which is optimal: every channel is then uninformative."""
    data = run_json(capsys, "put", "--task", "ht", "--m", "3", "--t", "1", "--method", "lp")
    assert [(r["method"], r["value"], r["winner"]) for r in data["results"]] == \
        [("lp", "2/3", "support(1)")]


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


def test_put_custom_problem_minimax_negative_losses(capsys, tmp_path):
    # Every action-0 loss is negative, so each minimax LP starts on s-.
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({
        "parameters": [0, 1], "inputs": [0, 1], "actions": [0, 1],
        "model": [["3/4", "1/4"], ["1/4", "3/4"]], "loss": [["-1", "-2"], ["-3", "-1"]]}))
    data = run_json(capsys, "put", "--problem", str(path), "--t", "2")
    assert [(r["value"], r["winner"]) for r in data["results"]] == [("-33/19", "support(1,2)")]


@pytest.mark.parametrize("problem, message", [
    ({"parameters": [], "inputs": [0, 1], "actions": [0, 1], "model": [[], []], "loss": []},
     "at least one parameter"),
    ({"parameters": [0, 1], "inputs": [0, 1], "actions": [],
      "model": [["3/4", "1/4"], ["1/4", "3/4"]], "loss": [[], []]},
     "at least one action"),
    ({"parameters": [0, 1], "inputs": [0, 1], "actions": [],
      "model": [["3/4", "1/4"], ["1/4", "3/4"]], "loss": [[], []], "prior": ["1/2", "1/2"]},
     "at least one action"),
], ids=["no-parameters", "no-actions", "no-actions-with-prior"])
def test_put_custom_problem_refuses_empty_lists(capsys, tmp_path, problem, message):
    # These once reached the solvers and failed with an LP artefact
    # ("objective unbounded below", "no feasible point") or a bare
    # "min() arg is an empty sequence".
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(problem))
    code, out, err = run(capsys, "put", "--problem", str(path), "--t", "2")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: a decision problem needs {message}\n"


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


def test_put_group_checks_ht_values_no_method_reads(capsys, monkeypatch):
    import ldpput.cli

    # A --group is checked against the task's per-mask values even when no
    # chosen method reads them; ht's depend on |S| alone, so it passes.
    built = []
    all_subset_masks = ldpput.cli.all_subset_masks
    monkeypatch.setattr(ldpput.cli, "all_subset_masks",
                        lambda m: built.append(m) or all_subset_masks(m))
    data = run_json(capsys, "put", "--task", "ht", "--m", "4", "--t", "2",
                    "--group", "cyclic", "--method", "closed,lp")
    assert [r["value"] for r in data["results"]] == ["3/5", "3/5"]
    assert built == [4]


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


@pytest.mark.parametrize("task,method", [("cardioid", "lp"), ("cardioid", "vertex")])
def test_put_method_list_the_task_cannot_run(capsys, task, method):
    code, out, err = run(capsys, "put", "--task", task, "--m", "4", "--t", "2",
                         "--method", method)
    assert code == EXIT_PARSE
    assert out == ""
    supported = ("closed", "transitive") if task == "cardioid" else METHODS
    assert f"--task {task} runs only the methods {supported}, got {method!r}" in err


@pytest.mark.parametrize("method", ["", ",", ",,"], ids=["empty", ",", ",,"])
def test_put_method_naming_no_method(capsys, method):
    """An empty --method once ran every method, and a list of commas was
    reported as methods the task cannot run."""
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3", "--t", "2",
                         "--method", method)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: --method names no method, got {method!r}\n"


@pytest.mark.parametrize("method", ["all,lp", "closed,all"])
def test_put_method_all_must_stand_alone(capsys, method):
    """`all` in a list was once refused by a message that listed it as
    allowed."""
    code, out, err = run(capsys, "put", "--task", "ht", "--m", "3", "--t", "2",
                         "--method", method)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: --method all must stand alone, got {method!r}\n"


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


def test_parser_is_built_once(capsys):
    """main reuses one parser, and two calls in a row give the same bytes."""
    assert build_parser() is build_parser()
    argv = ("put", "--task", "ht", "--m", "3", "--t", "2", "--method", "closed,lp")
    first = run(capsys, *argv)
    assert first[0] == EXIT_OK
    assert run(capsys, *argv) == first


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


@pytest.mark.parametrize("argv", [
    ("put", "--task", "ht", "--m", "3", "--t", "2/0"),
    ("put", "--task", "ht", "--m", "3", "--t", "2", "--gamma", "1/0"),
    ("audit", "--task", "ht", "--m", "3", "--t", "2/0", "--samples", "2"),
    ("enumerate", "--m", "3", "--t", "2/0"),
    ("put", "--problem", "{problem}", "--t", "2"),
    ("check-channel", "{channel}", "--t", "2"),
    ("put", "--task", "ht", "--m", "0", "--t", "2"),
    ("audit", "--task", "ht", "--m", "0", "--t", "2", "--samples", "2"),
], ids=["put-t", "put-gamma", "audit-t", "enumerate-t", "problem-file", "channel-file",
        "put-m0", "audit-m0"])
def test_zero_denominator_and_empty_alphabet_exit_parse(capsys, tmp_path, argv):
    """A zero denominator and `--task ht --m 0` once raised ZeroDivisionError
    through main; each is now one error line."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "parameters": [0, 1], "inputs": [0, 1], "actions": [0, 1],
        "model": [["1/0", "1/4"], ["1/4", "3/4"]], "loss": [["0", "1"], ["1", "0"]]}))
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps({"input": [0, 1], "output": [0, 1],
                                   "rows": [["1/0", "1/2"], ["1/2", "1/2"]]}))
    code, out, err = run(capsys, *(arg.format(problem=problem, channel=channel)
                                   for arg in argv))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_BOOL_PROBLEM = {"parameters": [0, 1], "inputs": [0, 1], "actions": [0, 1],
                 "model": [["3/4", "1/4"], ["1/4", "3/4"]],
                 "loss": [["0", "1"], ["1", "0"]], "prior": ["1/2", "1/2"]}


@pytest.mark.parametrize("field, row, value", [("loss", 0, True), ("model", 1, False)],
                         ids=["true-in-loss", "false-in-model"])
def test_put_problem_refuses_bool_entries(capsys, tmp_path, field, row, value):
    """A JSON true once read as 1 (a loss entry true printed "9/19" and
    exited 0); a bool is not a number, so the file exits 2 naming it."""
    data = json.loads(json.dumps(_BOOL_PROBLEM))
    data[field][row][0] = value
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "put", "--problem", str(path), "--t", "2")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: cannot interpret {value!r} as an exact rational\n"


_CHANNEL_KEYS = '"input", "output", "rows"'
_PROBLEM_KEYS = '"parameters", "inputs", "model", "actions", "loss"'


@pytest.mark.parametrize("command, data, message", [
    ("check-channel", {},
     f'a channel file must hold a JSON object with keys {_CHANNEL_KEYS}; "input" is missing'),
    ("check-channel", [1, 2],
     f"a channel file must hold a JSON object with keys {_CHANNEL_KEYS}; got an array"),
    ("check-channel", {"input": [0, 1], "output": [0, 1]},
     f'a channel file must hold a JSON object with keys {_CHANNEL_KEYS}; "rows" is missing'),
    ("problem", [1, 2],
     f"a problem file must hold a JSON object with keys {_PROBLEM_KEYS}; got an array"),
    ("problem", {k: v for k, v in _BOOL_PROBLEM.items() if k != "model"},
     f'a problem file must hold a JSON object with keys {_PROBLEM_KEYS}; "model" is missing'),
    ("problem", "loss",
     f"a problem file must hold a JSON object with keys {_PROBLEM_KEYS}; got a string"),
    ("group", {"alphabet": [0, 1, 2]},
     'a group file must hold a JSON object with keys "alphabet", "generators"; '
     '"generators" is missing'),
    ("group", None,
     'a group file must hold a JSON object with keys "alphabet", "generators"; got null'),
], ids=["channel-empty", "channel-array", "channel-no-rows", "problem-array",
        "problem-no-model", "problem-string", "group-no-generators", "group-null"])
def test_file_of_wrong_shape_names_what_it_expects(capsys, tmp_path, command, data, message):
    """A channel, problem or group file of the wrong shape once exited 2
    with the bare Python error ("error: 'input'", "error: list indices
    must be integers or slices, not str")."""
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    argv = {"check-channel": ("check-channel", str(path), "--t", "2"),
            "problem": ("put", "--problem", str(path), "--t", "2"),
            "group": ("enumerate", "--m", "3", "--t", "2", "--group", f"file:{path}")}[command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: {message}\n"


_CHANNEL = {"input": [0, 1], "output": ["a", "b"], "rows": [[1, 0], [0, 1]]}
_GROUP = {"alphabet": [0, 1, 2], "generators": [[1, 2, 0]]}
_LETTERS = "{} must hold letters (integers, strings or arrays of them); item {}"


@pytest.mark.parametrize("command, fields, message", [
    ("check-channel", {"rows": ["11"]},
     '"rows" must be an array of arrays; row 0 is a string, "11"'),
    ("check-channel", {"input": 3}, '"input" must be an array; got a number, 3'),
    ("check-channel", {"output": "ab"}, '"output" must be an array; got a string, "ab"'),
    ("problem", {"model": ["11", "00"], "loss": ["01", "10"], "prior": "10"},
     '"model" must be an array of arrays; row 0 is a string, "11"'),
    ("problem", {"model": 5}, '"model" must be an array of arrays; got a number, 5'),
    ("problem", {"loss": [["0", "1"], "10"]},
     '"loss" must be an array of arrays; row 1 is a string, "10"'),
    ("problem", {"prior": "10"}, '"prior" must be an array; got a string, "10"'),
    ("problem", {"parameters": "01"}, '"parameters" must be an array; got a string, "01"'),
    ("problem", {"inputs": {"0": 1}}, '"inputs" must be an array; got an object, {"0": 1}'),
    ("problem", {"actions": None}, '"actions" must be an array; got null, null'),
    ("group", {"alphabet": "012"}, '"alphabet" must be an array; got a string, "012"'),
    ("group", {"generators": [[1, 2, 0], 7]},
     '"generators" must be an array of arrays; row 1 is a number, 7'),
    ("group", {"generators": [[True, 0, 2]]},
     '"generators" must hold integer images; generator 0 holds true'),
    ("group", {"generators": [[1, 2, 0], [1.0, 0, 2]]},
     '"generators" must hold integer images; generator 1 holds 1.0'),
    ("group", {"generators": [["a", 1, 2]]},
     '"generators" must hold integer images; generator 0 holds "a"'),
    ("check-channel", {"input": [{"a": 1}, 0]}, _LETTERS.format(
        '"input"', '0 holds an object, {"a": 1}')),
    ("check-channel", {"input": [[{"a": 1}], 0]}, _LETTERS.format(
        '"input"', '0 holds an object, [{"a": 1}]')),
    ("group", {"alphabet": [0, 1, {"a": 1}]}, _LETTERS.format(
        '"alphabet"', '2 holds an object, {"a": 1}')),
    ("problem", {"parameters": [0, {"a": 1}]}, _LETTERS.format(
        '"parameters"', '1 holds an object, {"a": 1}')),
    ("problem", {"actions": [[0, [{}]], 1]}, _LETTERS.format(
        '"actions"', '0 holds an object, [0, [{}]]')),
], ids=["channel-row-string", "channel-input-int", "channel-output-string",
        "problem-strings", "problem-model-int", "problem-loss-row-string",
        "problem-prior-string", "problem-parameters-string", "problem-inputs-object",
        "problem-actions-null", "group-alphabet-string", "group-generator-int",
        "group-image-true", "group-image-float", "group-image-string",
        "channel-input-letter-object", "channel-input-nested-object",
        "group-alphabet-letter-object", "problem-parameter-object",
        "problem-action-nested-object"])
def test_file_field_that_is_not_an_array_names_it(capsys, tmp_path, command, fields, message):
    """A string where an array belongs was read character by character:
    rows ["11"] passed check-channel as the row [1, 1], and a problem
    with model ["11", "00"], loss ["01", "10"] and prior "10" exited 0
    with value 0; a number there printed only "'int' object is not
    iterable".  Inside the arrays, a generator image true was read as
    the image 1 (exit 0), 1.0 or "a" printed only a Python error, and a
    JSON object where a letter belongs printed "unhashable type: 'dict'"
    (or, as a problem's parameter or action, was never hashed and exited
    0).  Each now exits 2 naming the first such field read and what it
    held."""
    base = {"check-channel": _CHANNEL, "problem": _BOOL_PROBLEM, "group": _GROUP}[command]
    path = tmp_path / "field.json"
    path.write_text(json.dumps({**base, **fields}))
    argv = {"check-channel": ("check-channel", str(path), "--t", "2"),
            "problem": ("put", "--problem", str(path), "--t", "2"),
            "group": ("enumerate", "--m", "3", "--t", "2", "--group", f"file:{path}")}[command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    what = {"check-channel": "channel"}.get(command, command)
    assert err == f"error: a {what} file's {message}\n"


@pytest.mark.parametrize("command", [
    ("put", "--task", "ht", "--m", "3", "--t", "2"),
    ("audit", "--task", "ht", "--m", "3", "--t", "2", "--samples", "2"),
    ("audit", "--task", "cardioid", "--m", "3", "--t", "2", "--samples", "2"),
])
@pytest.mark.parametrize("tolerance", ["-1", "-1e-9", "nan", "inf", "-inf", "1e400",
                                       "1/0", "abc"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, command, tolerance):
    """A negative tolerance made put report a disagreement and audit a
    violation; nan or inf passed every check unread.  Both commands now
    refuse them, before any work, with one message."""
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--tolerance={tolerance}"])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --tolerance: must be a finite nonnegative number" in captured.err


def test_tolerance_is_read_exactly_by_both_commands(capsys, monkeypatch):
    """A ratio is a valid tolerance: it forgives a spread or a gap within it."""
    import ldpput.applications
    import ldpput.cli as cli_mod

    monkeypatch.setattr(ldpput.applications, "ht_put_closed_form",
                        lambda m, gamma, level: Fraction(9, 10))
    argv = ("put", "--task", "ht", "--m", "3", "--gamma", "1", "--t", "2",
            "--method", "closed,lp")
    assert run(capsys, *argv)[0] == EXIT_DISAGREE
    assert run_json(capsys, *argv, "--tolerance", "1/2")["agreement"] is True
    solve = cli_mod.put_by_lp
    monkeypatch.setattr(cli_mod, "put_by_lp",
                        lambda *a, **k: dataclasses.replace(solve(*a, **k), value=Fraction(1)))
    argv = ("audit", "--task", "ht", "--m", "3", "--t", "2", "--samples", "3")
    assert run(capsys, *argv)[0] == EXIT_AUDIT
    assert run_json(capsys, *argv, "--tolerance", "1/1")["passed"] is True
