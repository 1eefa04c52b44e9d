import csv
import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest

import pel
from pel.cli import SCHEMA, emit, main, run_spec, validate_spec
from pel.errors import HeraldImpossibleError, TruncationError, ValidationError


def test_efficiency_document_schema():
    spec = {"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}]}
    document, code = run_spec(spec, seed=1)
    assert code == 0
    assert list(document) == [
        "spec_echo", "value", "bracket", "attained", "cutoff_used", "seed", "version",
    ]
    assert abs(document["value"] - 0.7) <= 1e-6 + 1e-12
    assert document["attained"] is True
    assert document["seed"] == 1
    assert document["version"] == pel.__version__


def test_efficiency_coherent_unattained():
    spec = {
        "command": "efficiency",
        "sources": [{"kind": "coherent", "alpha": 0.8}],
    }
    document, _ = run_spec(spec)
    assert document["attained"] is False
    assert document["value"] <= 1e-3 + 1e-6


def test_simulate_requires_sources():
    with pytest.raises(ValidationError, match="sources"):
        run_spec({"command": "simulate", "sources": []})


def test_unknown_field_rejected():
    with pytest.raises(ValidationError, match="cutof"):
        validate_spec({"command": "simulate", "cutof": 3})


def test_bad_source_rejected():
    with pytest.raises(ValidationError, match="sources"):
        validate_spec(
            {"command": "simulate", "sources": [{"kind": "isps", "p": 1.5}]}
        )


@pytest.mark.parametrize(
    "spec",
    [
        {"command": "simulate", "cutof": 3},
        {"command": "simulate", "sources": [{"kind": "isps", "p": 1.5}]},
        {"command": "nogo-search", "search": {"budget": 0, "cutoff": "8"}},
        {"command": "teleport"},
        {"seed": -1},
        {"command": "simulate", "interferometer": {"mesh": [0.0], "haar": {"seed": 1}}},
    ],
)
def test_validation_error_is_the_one_jsonschema_validate_picks(spec):
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(spec, SCHEMA)
    path = ".".join(str(p) for p in reference.value.absolute_path) or "(top level)"
    with pytest.raises(ValidationError) as raised:
        validate_spec(spec)
    assert str(raised.value) == f"spec field {path}: {reference.value.message}"


def test_simulate_hom():
    spec = {
        "command": "simulate",
        "sources": [{"kind": "fock", "n": 1}, {"kind": "fock", "n": 1}],
        "interferometer": {"mesh": [math.pi / 4, 0.0, 0.0, 0.0]},
        "measurement": {"detect": {"1": 0}},
        "cutoff": 2,
    }
    document, code = run_spec(spec)
    assert code == 0
    assert document["herald_probability"] == pytest.approx(0.5, abs=1e-12)
    assert document["single_photon_probability"] == pytest.approx(0.0, abs=1e-12)
    assert document["multiphoton_weight"] == pytest.approx(1.0, abs=1e-12)
    assert document["survivor_diagonal"][2] == pytest.approx(1.0, abs=1e-12)


def test_simulate_without_measurement_reports_marginals():
    spec = {
        "command": "simulate",
        "sources": [{"kind": "isps", "p": 0.7}, {"kind": "coherent", "alpha": 0.0}],
        "cutoff": 4,
    }
    document, code = run_spec(spec)
    assert code == 0
    assert document["per_mode"][0]["single_photon_probability"] == pytest.approx(0.7)


def test_simulate_without_measurement_csv_has_one_row_per_mode():
    spec = {
        "command": "simulate",
        "sources": [{"kind": "isps", "p": 0.7}, {"kind": "fock", "n": 1},
                    {"kind": "isps", "p": 0.4}],
        "interferometer": {"haar": {"seed": 4}},
        "cutoff": 3,
    }
    document, _ = run_spec(spec)
    rows = list(csv.reader(io.StringIO(emit(document, "csv"))))
    assert rows[0] == ["mode", "single_photon_probability", "multiphoton_weight"]
    assert [[int(row[0]), float(row[1]), float(row[2])] for row in rows[1:]] == [
        [m["mode"], m["single_photon_probability"], m["multiphoton_weight"]]
        for m in json.loads(emit(document, "json"))["per_mode"]
    ]


def test_efficiency_csv_has_one_row_per_source():
    spec = {
        "command": "efficiency",
        "sources": [{"kind": "isps", "p": 0.7}, {"kind": "isps", "p": 0.4},
                    {"kind": "coherent", "alpha": 0.5}],
        "cutoff": 8,
    }
    document, _ = run_spec(spec)
    rows = list(csv.reader(io.StringIO(emit(document, "csv"))))
    assert rows[0] == ["value", "bracket_lo", "bracket_hi", "attained", "cutoff_used"]
    parsed = json.loads(emit(document, "json"))
    assert [
        [float(row[0]), float(row[1]), float(row[2]), row[3], int(row[4])]
        for row in rows[1:]
    ] == [
        [m["value"], m["bracket"][0], m["bracket"][1],
         "true" if m["attained"] else "false", parsed["cutoff_used"]]
        for m in parsed["per_mode"]
    ]
    assert [row[3] for row in rows[1:]] == ["true", "true", "false"]


def test_single_source_efficiency_csv_is_the_document_row():
    spec = {"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}]}
    document, _ = run_spec(spec)
    rows = list(csv.reader(io.StringIO(emit(document, "csv"))))
    assert len(rows) == 2
    assert [float(rows[1][0]), float(rows[1][1]), float(rows[1][2])] == [
        document["value"], *document["bracket"]
    ]
    assert rows[1][3:] == ["true", str(document["cutoff_used"])]


def test_verify_commutation_spec():
    spec = {
        "command": "verify",
        "verify": {"check": "commutation", "trials": 5},
    }
    document, code = run_spec(spec, seed=42)
    assert code == 0
    assert document["max_deviation"] < 1e-9
    assert document["unequal_loss_deviation"] > 1e-3
    assert document["passed"] is True


def test_verify_bernoulli_spec():
    document, code = run_spec(
        {"command": "verify", "verify": {"check": "bernoulli", "trials": 10}}, seed=3
    )
    assert code == 0
    assert document["all_passed"] is True


@pytest.mark.parametrize("check", ["commutation", "bernoulli"])
def test_verify_csv_is_the_document_row(check):
    document, _ = run_spec({"command": "verify", "verify": {"check": check, "trials": 3}},
                           seed=8)
    text = emit(document, "csv")
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    result = "max_deviation" if check == "commutation" else "all_passed"
    assert rows[0] == ["check", "trials", result, "passed"]
    parsed = json.loads(emit(document, "json"))
    passed = parsed["passed"] if "passed" in parsed else parsed["all_passed"]
    assert len(rows) == 2
    assert rows[1][:2] == [parsed["check"], str(parsed["trials"])]
    if check == "commutation":
        assert float(rows[1][2]) == parsed["max_deviation"]
    else:
        assert rows[1][2] == ("true" if parsed["all_passed"] else "false")
    assert rows[1][3] == ("true" if passed else "false")


def test_heralded_simulate_csv_is_the_document_row():
    document, _ = run_spec(_HERALDED)
    text = emit(document, "csv")
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    fields = ["herald_probability", "single_photon_probability", "multiphoton_weight"]
    assert rows[0] == fields
    parsed = json.loads(emit(document, "json"))
    assert len(rows) == 2
    assert [float(cell) for cell in rows[1]] == [parsed[k] for k in fields]


@pytest.mark.parametrize("source", ["command line", "spec"])
def test_main_verify_refuses_a_cutoff(tmp_path, capsys, monkeypatch, source):
    # verify's checks fix their own bases, so a cutoff would change nothing:
    # it fails validation, naming the field, before any check runs
    def no_check(*args, **kwargs):
        raise AssertionError("the check ran")

    monkeypatch.setattr(pel.cli, "verify_commutation", no_check)
    if source == "command line":
        argv = ["verify", "commutation", "--cutoff", "3"]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"command": "verify", "cutoff": 3,
                                    "verify": {"check": "commutation", "trials": 2}}))
        argv = ["verify", "--spec", str(path)]
    assert main(argv) == 2
    assert "cutoff" in capsys.readouterr().err


def test_nogo_search_exit_code_and_csv():
    spec = {
        "command": "nogo-search",
        "search": {
            "p_max_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            "num_sources": 2,
            "num_coherent": 1,
            "budget": 300,
            "cutoff": 8,
        },
    }
    document, code = run_spec(spec, seed=5, threads=1)
    assert code == 0
    assert len(document["reports"]) == 9
    assert all(not r["violated"] for r in document["reports"])
    csv_text = emit(document, "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "p_max,constraint,best_X,bound,herald_prob,multiphoton_weight,violated"
    assert len(lines) == 10
    assert "\r" not in csv_text


def test_json_floats_round_trip():
    spec = {"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}]}
    document, _ = run_spec(spec, seed=0)
    payload = emit(document, "json")
    parsed = json.loads(payload)
    assert parsed["value"] == document["value"]
    assert parsed["bracket"][0] == document["bracket"][0]


def test_json_determinism_across_runs_and_threads():
    spec = {
        "command": "nogo-search",
        "search": {
            "source_efficiencies": [0.6, 0.4],
            "num_coherent": 1,
            "budget": 400,
            "cutoff": 8,
        },
    }
    payloads = {
        emit(run_spec(spec, seed=9, threads=t)[0], "json")
        for t in (1, 4, 1, 4)
    }
    assert len(payloads) == 1


def test_main_verify_without_spec(capsys):
    code = main(["verify", "commutation", "--trials", "3", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == 0
    document = json.loads(out)
    assert document["check"] == "commutation"
    assert document["trials"] == 3


def test_main_requires_spec_for_other_commands(capsys):
    code = main(["efficiency"])
    assert code == 2
    assert "--spec" in capsys.readouterr().err


def test_main_rejects_command_mismatch(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "efficiency", "sources": []}))
    code = main(["simulate", "--spec", str(path)])
    assert code == 2
    assert "command" in capsys.readouterr().err


def test_main_empty_sources_exit_code(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "simulate", "sources": []}))
    code = main(["simulate", "--spec", str(path)])
    assert code == 2
    assert "sources" in capsys.readouterr().err


def test_main_bad_json(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    code = main(["simulate", "--spec", str(path)])
    assert code == 2


@pytest.mark.parametrize("alpha", [31.6, 1e200])
def test_main_coherent_tail_beyond_cutoff_exit_code(tmp_path, capsys, alpha):
    # at 1e200, |alpha|^2 is past the float range: the tail is all the mass
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "command": "efficiency",
                "cutoff": 10,
                "sources": [{"kind": "coherent", "alpha": alpha}],
            }
        )
    )
    code = main(["efficiency", "--spec", str(path)])
    assert code == 3
    assert "tail" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("amplitude_cap", math.inf),
        ("amplitude_cap", math.nan),
        ("min_herald", math.nan),
        ("constraint", math.nan),
    ],
)
def test_main_bad_search_space_exit_code(tmp_path, capsys, monkeypatch, field, value):
    # JSON admits NaN and Infinity, which pass the schema's bounds; the
    # search space must reject them before any search runs
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(pel.cli, "maximize_X", no_search)
    path = tmp_path / "spec.json"
    search = {"source_efficiencies": [0.5, 0.5], "budget": 50, "cutoff": 6}
    path.write_text(json.dumps({"command": "nogo-search", "search": {**search, field: value}}))
    code = main(["nogo-search", "--spec", str(path)])
    assert code == 2
    assert field in capsys.readouterr().err


def test_main_max_patterns_is_an_unknown_search_field(tmp_path, capsys):
    # min_herald is the one eligibility rule; a ranking cap is not a field
    path = tmp_path / "spec.json"
    search = {"source_efficiencies": [0.5, 0.5], "budget": 50, "max_patterns": 3}
    path.write_text(json.dumps({"command": "nogo-search", "search": search}))
    assert main(["nogo-search", "--spec", str(path)]) == 2
    assert "'max_patterns' was unexpected" in capsys.readouterr().err


#: a two-source simulate whose heralding outcome has probability 0.24
_HERALDED = {
    "command": "simulate",
    "sources": [{"kind": "isps", "p": 0.6}, {"kind": "isps", "p": 0.6}],
    "interferometer": {"mesh": [0.7853981633974483, 0, 0, 0]},
    "measurement": {"detect": {"1": 1}},
    "cutoff": 2,
}
_EVERY_TOLERANCE = {"herald_floor": 0.5, "tail": 1e-3, "feasibility": 0.1}


@pytest.mark.parametrize(
    "spec,tolerances,field",
    [
        ({"command": "nogo-search",
          "search": {"source_efficiencies": [0.5, 0.5], "budget": 50, "cutoff": 6}},
         _EVERY_TOLERANCE, "tolerances"),
        ({"command": "verify", "verify": {"check": "commutation", "trials": 2}},
         _EVERY_TOLERANCE, "tolerances"),
        ({"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7},
                                               {"kind": "isps", "p": 0.5}]},
         {"herald_floor": 0.5}, "tolerances.herald_floor"),
        (_HERALDED, {"feasibility": 0.5}, "tolerances.feasibility"),
    ],
    ids=["nogo-search", "verify", "efficiency-herald_floor", "simulate-feasibility"],
)
def test_main_tolerances_block_rejected_where_nothing_reads_it(
    tmp_path, capsys, monkeypatch, spec, tolerances, field
):
    # the search and the checks read no tolerance, efficiency no herald
    # floor and simulate no feasibility slack, so a field that would change
    # nothing fails validation, naming it, instead of being echoed
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(pel.cli, "_RUNNERS", dict.fromkeys(pel.cli._RUNNERS, no_run))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "tolerances": tolerances}))
    assert main([spec["command"], "--spec", str(path)]) == 2
    assert f"spec field {field}:" in capsys.readouterr().err


def test_spec_feasibility_tolerance_takes_effect():
    # the exact value sits where the preimage's smallest eigenvalue is minus
    # half the slack: for an ISPS of weight p, at p / (1 + slack / 2)
    spec = {"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}]}
    default, _ = run_spec(spec)
    loose, _ = run_spec({**spec, "tolerances": {"feasibility": 1e-3}})
    assert default["value"] == pytest.approx(0.7 / (1 + 5e-10), rel=1e-12, abs=0)
    assert loose["value"] == pytest.approx(0.7 / (1 + 5e-4), rel=1e-12, abs=0)


@pytest.mark.parametrize("command,sources", [
    ("efficiency", [{"kind": "coherent", "alpha": 1.5}]),
    ("simulate", [{"kind": "coherent", "alpha": 1.5}, {"kind": "isps", "p": 0.5}]),
])
def test_spec_tail_tolerance_takes_effect(command, sources):
    # |alpha| = 1.5 leaves 5.5e-4 of its weight above cutoff 8
    spec = {"command": command, "sources": sources, "cutoff": 8}
    with pytest.raises(TruncationError, match="tolerance 1.0e-10"):
        run_spec(spec)
    _, code = run_spec({**spec, "tolerances": {"tail": 1e-2}})
    assert code == 0


def test_spec_herald_floor_takes_effect():
    document, code = run_spec(_HERALDED)
    assert code == 0
    assert document["herald_probability"] == pytest.approx(0.24, rel=1e-12)
    with pytest.raises(HeraldImpossibleError, match="herald floor 9.0e-01"):
        run_spec({**_HERALDED, "tolerances": {"herald_floor": 0.9}})


def test_main_psd_is_an_unknown_tolerance(tmp_path, capsys):
    # nothing reads a PSD slack, so a spec naming one fails like any
    # unknown field
    path = tmp_path / "spec.json"
    spec = {"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}],
            "tolerances": {"psd": 0.5}}
    path.write_text(json.dumps(spec))
    assert main(["efficiency", "--spec", str(path)]) == 2
    assert "'psd' was unexpected" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [38.0, 1e200])
def test_main_amplitude_cap_past_the_float_range_exit_code(tmp_path, capsys, cap):
    # the schema admits any positive cap; the engine refuses one whose
    # displacement tables would underflow, as a numerical guard, and one
    # whose cap^2 is past the float range itself
    path = tmp_path / "spec.json"
    search = {"source_efficiencies": [0.5], "num_coherent": 1,
              "amplitude_cap": cap, "budget": 10}
    path.write_text(json.dumps({"command": "nogo-search", "search": search}))
    assert main(["nogo-search", "--spec", str(path)]) == 3
    assert "amplitude_cap" in capsys.readouterr().err


def test_main_partial_qubit_coherence_past_the_float_range_exit_code(tmp_path, capsys):
    # |q|^2 overflows a float; the positivity guard refuses it all the same
    path = tmp_path / "spec.json"
    spec = {"command": "efficiency",
            "sources": [{"kind": "partial_qubit", "p": 0.5, "q": [1e200, 0.0]}]}
    path.write_text(json.dumps(spec))
    assert main(["efficiency", "--spec", str(path)]) == 3
    assert "coherence" in capsys.readouterr().err


def test_main_zero_threads_exit_code(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(pel.cli, "maximize_X", no_search)
    path = tmp_path / "spec.json"
    search = {"source_efficiencies": [0.5, 0.5], "budget": 50, "cutoff": 6}
    path.write_text(json.dumps({"command": "nogo-search", "search": search}))
    assert main(["nogo-search", "--spec", str(path), "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


_ONE_ISPS = {"sources": [{"kind": "isps", "p": 0.5}]}
_SEARCH = {"search": {"source_efficiencies": [0.5, 0.5], "budget": 50, "cutoff": 6}}


@pytest.mark.parametrize(
    "spec,argv,field",
    [
        ({"command": "efficiency", **_ONE_ISPS}, ["--cutoff", "-1"], "cutoff"),
        ({"command": "simulate", **_ONE_ISPS}, ["--cutoff", "-1"], "cutoff"),
        ({"command": "efficiency", **_ONE_ISPS}, ["--seed", "-5"], "seed"),
        ({"command": "nogo-search", **_SEARCH}, ["--seed", "-1"], "seed"),
        (None, ["commutation", "--seed", "-3"], "seed"),
        (None, ["bernoulli", "--trials", "0"], "trials"),
    ],
    ids=["efficiency-cutoff", "simulate-cutoff", "efficiency-seed",
         "nogo-search-seed", "verify-seed", "verify-trials"],
)
def test_main_command_line_values_keep_the_spec_bounds(
    tmp_path, capsys, monkeypatch, spec, argv, field
):
    # a command-line override must meet the bound the schema sets on the
    # same field inside a spec, and fail validation before any command runs
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(pel.cli, "_RUNNERS", dict.fromkeys(pel.cli._RUNNERS, no_run))
    if spec is None:
        command = ["verify"]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        command = [spec["command"], "--spec", str(path)]
    assert main(command + argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec,field",
    [
        ({"command": "efficiency",
          "sources": [{"kind": "coherent", "alpha": math.inf}]}, "sources.0.alpha"),
        ({"command": "simulate",
          "sources": [{"kind": "isps", "p": 0.5}, {"kind": "isps", "p": 0.5}],
          "interferometer": {"mesh": [math.inf, 0.0, 0.0, 0.0]}},
         "interferometer.mesh.0"),
        ({"command": "efficiency",
          "sources": [{"kind": "partial_qubit", "p": 0.5, "q": [math.nan, 0.0]}]},
         "sources.0.q.0"),
        ({"command": "efficiency", "sources": [{"kind": "isps", "p": 0.5}],
          "tolerances": {"herald_floor": math.nan}}, "tolerances.herald_floor"),
    ],
    ids=["alpha", "mesh", "q", "herald_floor"],
)
def test_main_non_finite_spec_exit_code(tmp_path, capsys, monkeypatch, spec, field):
    # JSON admits NaN and Infinity; a spec carrying either must fail
    # validation, naming the field, before any command runs
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(pel.cli, "_RUNNERS", dict.fromkeys(pel.cli._RUNNERS, no_run))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main([spec["command"], "--spec", str(path)])
    assert code == 2
    assert f"spec field {field}: non-finite" in capsys.readouterr().err


def test_main_missing_file(capsys):
    code = main(["simulate", "--spec", "/nonexistent/spec.json"])
    assert code == 3


def test_main_unwritable_output(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"command": "efficiency", "sources": [{"kind": "isps", "p": 0.5}]})
    )
    code = main(
        ["efficiency", "--spec", str(path), "--out", "/nonexistent/dir/out.json"]
    )
    assert code == 3


def test_main_writes_output_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"command": "efficiency", "sources": [{"kind": "isps", "p": 0.5}]})
    )
    out = tmp_path / "result.json"
    code = main(["efficiency", "--spec", str(path), "--out", str(out), "--seed", "1"])
    assert code == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(0.5, abs=2e-6)


def test_console_script_end_to_end(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}]})
    )
    # the subprocess imports the same pel as this test, whether or not it
    # is installed or on PYTHONPATH
    src = os.path.dirname(os.path.dirname(os.path.abspath(pel.__file__)))
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run(
        [sys.executable, "-m", "pel.cli", "efficiency", "--spec", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.7, abs=2e-6)


def test_search_patterns_field_accepted():
    spec = {
        "command": "nogo-search",
        "search": {
            "source_efficiencies": [0.7, 0.7],
            "num_coherent": 0,
            "budget": 50,
            "patterns": [[0]],
        },
    }
    document, code = run_spec(spec, seed=1, threads=1)
    assert code == 0
    assert document["reports"][0]["best_pattern"] == [0]
