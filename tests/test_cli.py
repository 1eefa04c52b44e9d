import copy
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import pel
from pel.cli import SCHEMA, emit, main, run_spec, validate_spec
from pel.errors import (
    ContractViolation,
    HeraldImpossibleError,
    TruncationError,
    ValidationError,
)


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
    document, code = run_spec(spec, seed=5)
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


def test_main_names_an_unknown_verify_subject(capsys):
    assert main(["verify", "foo"]) == 2
    assert capsys.readouterr().err == (
        "error: subject foo: verify checks are commutation, bernoulli\n"
    )


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
    # every command runs in the calling thread: there is no --threads flag
    for value in ("0", "2"):
        with pytest.raises(SystemExit) as exit_:
            main(["nogo-search", "--spec", str(path), "--threads", value])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: --threads {value}" in capsys.readouterr().err


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
    document, code = run_spec(spec, seed=1)
    assert code == 0
    assert document["reports"][0]["best_pattern"] == [0]


# --- the compiled schema against jsonschema -----------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the criterion-9 spec (tests/test_acceptance.py)
_CRITERION_9 = {
    "command": "nogo-search",
    "search": {
        "source_efficiencies": [0.6, 0.4],
        "num_coherent": 1,
        "budget": 400,
        "cutoff": 9,
        "min_herald": 1e-3,
    },
}


class _Taken(Exception):
    pass


def _bench_and_criteria_specs(monkeypatch) -> list:
    """Every spec that perfbench's workloads hand ``run_spec`` (the search
    cells at two seeds, two rounds of the dense stream) and the criterion-9
    spec."""
    path = ROOT / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    cells = workloads.SEARCH_3M + workloads.SEARCH_4M + (workloads.DENSE_SEARCH,)
    specs = [cell.spec(seed) for cell in cells for seed in (1, 2)]

    def take(spec, **kwargs):
        specs.append(spec)
        raise _Taken

    monkeypatch.setattr(pel.cli, "run_spec", take)
    stream = workloads.dense_stream(5)
    for _ in range(2 * len(workloads.DENSE_ROUND)):
        job = next(stream)
        if job.kind in ("efficiency", "simulate", "verify", "search"):
            with pytest.raises(_Taken):
                job(1)
    return specs + [_CRITERION_9]


#: values a mutation puts in place of another: bools, integral floats, NaN
#: and infinities, out-of-bound numbers, strings and containers
_ODD_VALUES = [
    True, False, None, 0, 1, -1, 3, 0.0, 1.0, 2.0, -0.0, 0.5, -0.5, 1.5, 1e-300,
    math.nan, math.inf, -math.inf, "", "isps", "coherent", "verify", "commutation",
    "json", "3", [], {}, [0.5, 0.5], [0.5], [1, 2, 3], [[0.5, 0.5]], {"seed": 1},
    {"kind": "isps", "p": 0.5},
]

#: keys a mutation adds: fields of SCHEMA at other places, detector modes and
#: strangers
_KEYS = [
    "command", "seed", "cutoff", "threads", "sources", "interferometer",
    "measurement", "tolerances", "search", "verify", "output", "kind", "p", "q",
    "n", "alpha", "mesh", "haar", "matrix", "detect", "tail", "check", "trials",
    "budget", "patterns", "constraint", "format", "path", "0", "17", "1a", "x",
]


def _odd(rng):
    # a copy, so that no later edit reaches the table or another spec
    return copy.deepcopy(rng.choice(_ODD_VALUES))


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, (list, tuple)):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


def _edited(rng, value):
    """``value`` with one edit of a kind that suits it."""
    if isinstance(value, dict):
        choice = rng.randrange(3)
        if choice == 0 and value:
            dropped = rng.choice(list(value))
            return {k: v for k, v in value.items() if k != dropped}
        if choice == 1:
            return {**value, rng.choice(_KEYS): _odd(rng)}
    elif isinstance(value, list):
        choice = rng.randrange(4)
        if choice == 0:
            return tuple(value)
        if choice == 1 and value:
            return value[:-1]
        if choice == 2:
            return value + [copy.deepcopy(rng.choice(value)) if value else _odd(rng)]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        choice = rng.randrange(4)
        if choice == 0 and math.isfinite(value):
            # an integral float, or the int of a float
            return float(value) if isinstance(value, int) else int(value)
        if choice == 1:
            return bool(value)
        if choice == 2:
            return rng.choice([math.nan, math.inf, -math.inf, -value, value + 1.0])
    elif isinstance(value, str) and rng.randrange(2):
        return rng.choice(["simulate", "efficiency", "nogo-search", "verify", "fock",
                           "partial_qubit", "bernoulli", "csv", value.upper()])
    return _odd(rng)


def _mutated(rng, spec):
    """A deep copy of ``spec`` with one or two random edits."""
    spec = copy.deepcopy(spec)
    for _ in range(rng.randint(1, 2)):
        path, value = rng.choice(list(_nodes(spec)))
        if not path:
            spec = _edited(rng, spec)
            continue
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, tuple):
            continue
        parent[path[-1]] = _edited(rng, value)
    return spec


def test_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_compiled_schema_decides_as_jsonschema(monkeypatch):
    # the compiled check must accept and refuse exactly what jsonschema does,
    # on every spec perfbench and the criteria run and on mutations of them:
    # bools for numbers, integral floats, NaN and infinities, tuples for
    # lists, extra, missing and retyped fields
    oracle = jsonschema.Draft202012Validator(SCHEMA)
    bases = _bench_and_criteria_specs(monkeypatch)
    assert len(bases) >= 60
    rng = random.Random(20261019)
    specs = bases + [_mutated(rng, rng.choice(bases)) for _ in range(6000)]
    decided = [(pel.cli._spec_is_valid(spec), oracle.is_valid(spec)) for spec in specs]
    disagree = [spec for spec, (ours, theirs) in zip(specs, decided) if ours != theirs]
    assert disagree == []
    accepted = sum(ours for ours, _ in decided)
    assert all(ours for ours, _ in decided[: len(bases)])
    refused = len(specs) - accepted
    assert accepted > 1000 and refused > 2000, (accepted, refused)


@pytest.mark.parametrize("schema", [
    {"enum": [1, "a", None]},
    {"const": 1.0},
    {"const": False},
    {"oneOf": [{"type": "number"}, {"type": "integer"}]},
    {"oneOf": [{"type": "number", "minimum": 0}, {"type": "number", "maximum": 1}]},
    {"type": "object", "additionalProperties": False, "patternProperties": {}},
    {"type": "object", "additionalProperties": False,
     "patternProperties": {"a": {"type": "integer"}, "b$": {"type": "null"}}},
])
def test_compiled_keywords_decide_as_jsonschema_where_schema_cannot_tell(schema):
    # SCHEMA's enums are strings and its oneOf branches exclude each other,
    # so jsonschema's equality (True != 1, 1 == 1.0) and its "exactly one"
    # are checked here
    oracle = jsonschema.Draft202012Validator(schema)
    check = pel.cli._compile(schema)
    values = [True, False, 1, 1.0, 0, 0.0, 2, -0.5, 1.5, math.nan, None, "a", [1], (1,),
              {}, {"a": 1}, {"xab": 1.0}, {"b": None}, {"b": 0}, {"c": 1}, {"ab": None}]
    for value in values:
        assert check(value) == oracle.is_valid(value), value


@pytest.mark.parametrize("schema", [
    {"type": "number", "multipleOf": 2},
    {"type": "object", "properties": {"a": {"type": "string", "format": "date"}}},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "array", "prefixItems": [{"type": "number"}]},
])
def test_compile_refuses_what_it_cannot_decide(schema):
    # jsonschema would apply or ignore these; the compiled check must not
    # silently do otherwise
    with pytest.raises(ValueError):
        pel.cli._compile(schema)


def test_a_refusal_jsonschema_does_not_share_is_loud(monkeypatch):
    monkeypatch.setattr(pel.cli, "_spec_is_valid", lambda spec: False)
    with pytest.raises(RuntimeError, match="jsonschema accepts"):
        validate_spec({"command": "verify", "verify": {"check": "bernoulli"}})


@pytest.mark.parametrize("text,key", [
    ('{"command": "efficiency", "sources": [{"kind": "isps", "p": 0.5}], '
     '"sources": [{"kind": "isps", "p": 0.9}]}', "sources"),
    ('{"command": "efficiency", "sources": [{"kind": "isps", "p": 0.5, "p": 0.9}]}',
     "p"),
])
def test_main_refuses_a_repeated_key(tmp_path, capsys, text, key):
    # json keeps the last of two equal keys, which would run p = 0.9 and echo
    # only that block
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["efficiency", "--spec", str(path)]) == 2
    assert f"repeats the key {key!r}" in capsys.readouterr().err


_SEARCH = {"source_efficiencies": [0.5, 0.5], "budget": 50, "cutoff": 6}
_SOURCES = [{"kind": "isps", "p": 0.7}]


@pytest.mark.parametrize(
    "spec,field",
    [
        ({"command": "efficiency", "sources": _SOURCES, "search": _SEARCH}, "search"),
        ({"command": "efficiency", "sources": _SOURCES,
          "verify": {"check": "commutation"}}, "verify"),
        ({"command": "efficiency", "sources": _SOURCES,
          "interferometer": {"mesh": [0.0]}}, "interferometer"),
        ({"command": "efficiency", "sources": _SOURCES,
          "measurement": {"detect": {}}}, "measurement"),
        ({**_HERALDED, "search": _SEARCH}, "search"),
        ({**_HERALDED, "verify": {"check": "bernoulli"}}, "verify"),
        ({"command": "nogo-search", "search": _SEARCH, "sources": _SOURCES}, "sources"),
        ({"command": "nogo-search", "search": _SEARCH,
          "interferometer": {"haar": {"seed": 1}}}, "interferometer"),
        ({"command": "nogo-search", "search": {**_SEARCH, "num_sources": 3}},
         "search.num_sources"),
        ({"command": "nogo-search", "search": {**_SEARCH, "p_max_grid": [0.3]}},
         "search.source_efficiencies"),
        ({"command": "verify", "verify": {"check": "commutation"}, "sources": _SOURCES},
         "sources"),
        ({"command": "verify", "verify": {"check": "commutation"}, "search": _SEARCH},
         "search"),
    ],
    ids=["efficiency-search", "efficiency-verify", "efficiency-interferometer",
         "efficiency-measurement", "simulate-search", "simulate-verify",
         "nogo-search-sources", "nogo-search-interferometer",
         "nogo-search-num_sources", "nogo-search-source_efficiencies",
         "verify-sources", "verify-search"],
)
def test_main_block_rejected_where_nothing_reads_it(
    tmp_path, capsys, monkeypatch, spec, field
):
    # a block or search field the command never reads fails validation,
    # naming it, instead of being echoed as if it had been applied
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    runners = dict.fromkeys(pel.cli._RUNNERS, no_run)
    # the search's runner refuses its unread fields before it searches
    runners["nogo-search"] = pel.cli._run_nogo
    monkeypatch.setattr(pel.cli, "_RUNNERS", runners)
    monkeypatch.setattr(pel.cli, "maximize_X", no_run)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([spec["command"], "--spec", str(path)]) == 2
    assert f"spec field {field}:" in capsys.readouterr().err


_VERIFY = {"verify": {"check": "commutation", "trials": 1}}


_UNREAD_SEED = "spec field seed:"
_NO_THREADS = "spec field (top level): Additional properties are not allowed ('threads' was"


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"command": "efficiency", "sources": _SOURCES, "seed": 3}, _UNREAD_SEED),
        ({**_HERALDED, "seed": 3}, _UNREAD_SEED),
        ({"command": "efficiency", "sources": _SOURCES, "threads": 2}, _NO_THREADS),
        ({**_HERALDED, "threads": 2}, _NO_THREADS),
        ({"command": "verify", **_VERIFY, "threads": 2}, _NO_THREADS),
        ({"command": "nogo-search", "search": _SEARCH, "threads": 2}, _NO_THREADS),
    ],
    ids=["efficiency-seed", "simulate-seed", "efficiency-threads", "simulate-threads",
         "verify-threads", "nogo-search-threads"],
)
def test_main_seed_and_threads_rejected_where_nothing_reads_them(
    tmp_path, capsys, monkeypatch, spec, message
):
    # efficiency and simulate draw nothing at random (a haar block carries
    # its own seed), so their seed is refused, naming it, instead of being
    # echoed as if it had been applied; every command runs in the calling
    # thread, so no spec has a threads field
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(pel.cli, "_RUNNERS", dict.fromkeys(pel.cli._RUNNERS, no_run))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([spec["command"], "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"command": "nogo-search", "search": _SEARCH, "seed": 3},
    {"command": "verify", **_VERIFY, "seed": 3},
], ids=["nogo-search", "verify"])
def test_seed_reaches_the_commands_that_read_it(monkeypatch, spec):
    calls = []

    def record(spec, seed, cutoff):
        calls.append(seed)

    monkeypatch.setattr(pel.cli, "_RUNNERS", dict.fromkeys(pel.cli._RUNNERS, record))
    run_spec(spec)
    assert calls == [3]


_FRESH_PROCESS = """
import sys
from pel.cli import main, run_spec
specs = [
    {"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}]},
    {"command": "simulate", "sources": [{"kind": "fock", "n": 1}, {"kind": "isps", "p": 0.6}],
     "interferometer": {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
     "measurement": {"detect": {"1": 1}}, "cutoff": 2},
    {"command": "nogo-search",
     "search": {"source_efficiencies": [0.5, 0.5], "budget": 1, "cutoff": 4}},
    {"command": "verify", "verify": {"check": "commutation", "trials": 1}},
]
for spec in specs:
    document, code = run_spec(spec)
    assert code == 0, spec
print("jsonschema" in sys.modules)
sys.exit(main(["simulate", "--spec", sys.argv[1]]))
"""


def test_a_fresh_process_imports_jsonschema_only_to_word_a_refusal(tmp_path):
    # the valid spec of each command is checked without jsonschema, and a
    # refused one is worded with the error jsonschema.validate would raise
    refused = {"command": "simulate", "sources": [{"kind": "isps", "p": 1.5}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(refused))
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(refused, SCHEMA)
    field = ".".join(str(p) for p in reference.value.absolute_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pel.__file__)))
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stdout == "False\n", proc.stderr
    assert proc.returncode == 2
    assert proc.stderr == f"error: spec field {field}: {reference.value.message}\n"


# --- simulate against the full composition -----------------------------------------

_ISPS = {"kind": "isps", "p": 0.6}
_QUBIT = {"kind": "partial_qubit", "p": 0.5, "q": [0.2, 0.1]}
_COHERENT = {"kind": "coherent", "alpha": [0.3, -0.2]}



def _permutation_with_phases(perm, phases):
    """A ``matrix`` block that sends input mode k to output mode perm[k] with
    the phase phases[k], as perfbench's heralded simulate jobs build it."""
    matrix = [[[0.0, 0.0] for _ in perm] for _ in perm]
    for k, (row, phase) in enumerate(zip(perm, phases)):
        matrix[row][k] = [math.cos(phase), math.sin(phase)]
    return matrix


#: (sources, interferometer, detect, cutoff) of simulate specs on 1-4 modes,
#: unheralded, heralded with one survivor, and heralded with two, with and
#: without ``null`` wildcards
_SIMULATE_CASES = [
    ([_ISPS], None, None, 5),
    ([_COHERENT, _ISPS], {"mesh": [0.7, -1.1, 0.3, 2.0]}, None, 7),
    ([_ISPS, _QUBIT, {"kind": "fock", "n": 1}], {"haar": {"seed": 3}}, None, 5),
    ([_ISPS, _ISPS, _COHERENT, {"kind": "fock", "n": 2}], {"haar": {"seed": 4}}, None, 6),
    ([_ISPS, _COHERENT], {"haar": {"seed": 5}}, {"1": 1}, 7),
    ([_ISPS, _QUBIT, _COHERENT], {"haar": {"seed": 6}}, {"1": 1, "2": None}, 6),
    ([_ISPS, _ISPS, _COHERENT, _QUBIT], {"haar": {"seed": 7}}, {"1": 0, "2": None, "3": 1}, 6),
    ([_ISPS, _QUBIT, {"kind": "fock", "n": 2}], {"haar": {"seed": 8}}, {"2": 1}, 5),
    ([_ISPS, _ISPS, _COHERENT, _QUBIT], {"haar": {"seed": 9}}, {"2": 2, "3": None}, 6),
    ([_ISPS, _COHERENT, _QUBIT],
     {"matrix": _permutation_with_phases((2, 0, 1), (0.3, -1.2, 2.5))},
     {"1": 1, "2": None}, 6),
    ([_COHERENT, _ISPS, _ISPS, _QUBIT], {"mesh": [0.4] * 16}, {"3": None, "2": 1}, 6),
]


def _composed_document(spec):
    """The simulate document's numbers by the full composition: the joint
    state, V rho V^dag, then ``condition`` and ``partial_trace``."""
    single = pel.make_basis(1, spec["cutoff"])
    tail = spec["tolerances"]["tail"]
    states = [pel.make_state(pel.cli._build_source(s), single, tail_tol=tail)
              for s in spec["sources"]]
    modes = len(states)
    rho = pel.tensor_all(states, pel.make_basis(modes, spec["cutoff"]), tail_tol=tail)
    block = spec.get("interferometer")
    if block is None:
        u = pel.from_mesh([0.0] * pel.mesh_param_count(modes), modes)
    elif "haar" in block:
        u = pel.haar_random(modes, block["haar"]["seed"])
    elif "matrix" in block:
        u = pel.ModeUnitary([[complex(*cell) for cell in row] for row in block["matrix"]])
    else:
        u = pel.from_mesh(block["mesh"], modes)
    # through their modules, where the guard test counts them
    rho = pel.interferometer.apply_interferometer(rho, u)

    def statistics(marginal):
        return {"single_photon_probability": pel.single_photon_probability(marginal),
                "multiphoton_weight": pel.multiphoton_weight(marginal)}

    if "measurement" in spec:
        pattern = pel.MeasurementPattern(
            {int(k): v for k, v in spec["measurement"]["detect"].items()})
        survivor, prob = pel.measurement.condition(rho, pattern)
        marginal = pel.fock.partial_trace(survivor, [0])
        return {"herald_probability": prob, **statistics(marginal),
                "survivor_diagonal": list(marginal.diagonal()),
                "truncation_weight": survivor.tail}
    return {"per_mode": [{"mode": m, **statistics(pel.fock.partial_trace(rho, [m]))}
                         for m in range(modes)],
            "total_photon_distribution": list(rho.total_photon_distribution()),
            "truncation_weight": rho.tail}


def _simulate_spec(sources, interferometer, detect, cutoff):
    spec = {"command": "simulate", "sources": sources, "cutoff": cutoff,
            "tolerances": {"tail": 1e-3}}
    if interferometer is not None:
        spec["interferometer"] = interferometer
    if detect is not None:
        spec["measurement"] = {"detect": detect}
    return spec


def _numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value]


@pytest.mark.parametrize("case", _SIMULATE_CASES)
def test_simulate_matches_the_full_composition(case):
    spec = _simulate_spec(*case)
    document, code = run_spec(spec)
    assert code == 0
    expected = _composed_document(spec)
    keys = ["spec_echo", *expected, "seed", "version"]
    assert list(document) == keys
    got = _numbers({k: document[k] for k in expected})
    want = _numbers(expected)
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_simulate_forms_no_full_output_state(monkeypatch):
    # every simulate field is read off the output diagonal; the counters
    # wrap the names in pel.cli too, where an import would bind them
    names = ("apply_interferometer", "condition", "partial_trace")
    homes = (pel.interferometer, pel.measurement, pel.fock)
    calls = dict.fromkeys(names, 0)
    for name, home in zip(names, homes):
        def counted(*args, _name=name, _original=getattr(home, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(home, name, counted)
        monkeypatch.setattr(pel.cli, name, counted, raising=False)
    for case in _SIMULATE_CASES:
        run_spec(_simulate_spec(*case))
    assert calls == dict.fromkeys(names, 0)
    # the counters do see the full composition
    _composed_document(_simulate_spec(*_SIMULATE_CASES[-1]))
    assert calls == {"apply_interferometer": 1, "condition": 1, "partial_trace": 1}


@pytest.mark.parametrize(
    "detect,error,message",
    [
        ({"1": 5}, HeraldImpossibleError,
         "outcome probability 0.000e+00 is below the herald floor 1.0e-12"),
        ({"0": None, "1": 0}, ContractViolation,
         "pattern must leave at least one surviving mode"),
        ({"2": 1}, ContractViolation, "pattern modes (2,) outside range 0..1"),
    ],
    ids=["count-beyond-cutoff", "no-survivor", "mode-outside"],
)
def test_heralded_simulate_refusals(tmp_path, capsys, detect, error, message):
    spec = {"command": "simulate", "sources": [_ISPS, {"kind": "fock", "n": 1}],
            "measurement": {"detect": detect}, "cutoff": 3}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_spec(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_heralded_simulate_reports_the_survivors_truncation_weight(tmp_path, capsys):
    # the joint tail is 7.46e-5, but heralding on 4 photons (probability
    # 0.0244) divides it by the outcome probability, past a 1e-3 tail
    # tolerance: the survivor's weight is held to the tolerance too
    spec = {"command": "simulate",
            "sources": [{"kind": "coherent", "alpha": 1.2}, {"kind": "isps", "p": 0.5}],
            "interferometer": {"mesh": [math.pi / 4, 0, 0, 0]},
            "measurement": {"detect": {"1": 4}}, "cutoff": 8,
            "tolerances": {"tail": 1e-3}}
    code, err = _refused(tmp_path, capsys, spec)
    assert (code, err) == (
        3, "error: heralded survivor's truncation weight 3.051e-03 exceeds the tail "
           "tolerance 1.0e-03; raise the cutoff or loosen tolerances.tail\n")
    spec["tolerances"] = {"tail": 1e-2}
    document, _ = run_spec(spec)
    expected = _composed_document(spec)
    assert document["herald_probability"] == pytest.approx(0.02444, abs=1e-5)
    assert document["truncation_weight"] == pytest.approx(3.05e-3, abs=1e-5)
    assert document["truncation_weight"] == pytest.approx(
        expected["truncation_weight"], rel=1e-12)
    # with no tail there is nothing to amplify
    exact, _ = run_spec({**spec, "sources": [{"kind": "fock", "n": 2}, _ISPS],
                         "measurement": {"detect": {"1": 1}}})
    assert exact["truncation_weight"] == 0.0


def _refused(tmp_path, capsys, spec, argv=()):
    """Exit code and standard error of ``pel`` on ``spec`` written to a file."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main([spec["command"], "--spec", str(path), *argv])
    return code, capsys.readouterr().err


_TWO_ISPS = [{"kind": "isps", "p": 0.5}, {"kind": "isps", "p": 0.5}]
_IDENTITY_3 = [[[1.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"command": "nogo-search", "search": {"budget": 50, "cutoff": 6}},
         "search: either source_efficiencies or p_max_grid is required"),
        ({"command": "nogo-search",
          "search": {"source_efficiencies": [0.5], "num_coherent": 0, "cutoff": 6}},
         "search: the scheme needs at least two modes (one surviving, one detected)"),
        ({"command": "verify"}, "verify: a verify block naming the check is required"),
        ({"command": "simulate", "sources": _TWO_ISPS,
          "interferometer": {"matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                        [[1.0, 0.0], [0.0, 0.0]]]}},
         "interferometer.matrix: matrix is not unitary: max |U^dag U - I| = 1.000e+00"),
        ({"command": "simulate", "sources": _TWO_ISPS,
          "interferometer": {"mesh": [0.1, 0.2]}},
         "interferometer.mesh: mesh for 2 modes needs 4 parameters "
         "(1 rotations + 2 phases), got 2"),
        ({"command": "simulate", "sources": _TWO_ISPS,
          "interferometer": {"matrix": _IDENTITY_3}},
         "interferometer.matrix: unitary has 3 modes, state has 2"),
    ],
    ids=["search-no-grid", "search-contract", "verify-no-block", "matrix-not-unitary",
         "mesh-wrong-size", "matrix-wrong-size"],
)
def test_main_spec_refusals_past_the_schema(tmp_path, capsys, monkeypatch, spec, message):
    # each passes the schema and is refused by its runner, naming the block,
    # before anything is computed
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("maximize_X", "verify_commutation", "verify_bernoulli_consequence",
                 "output_diagonal"):
        monkeypatch.setattr(pel.cli, name, no_run)
    code, err = _refused(tmp_path, capsys, spec)
    assert (code, err) == (2, f"error: {message}\n")


_SEARCH_CAP_3 = {"source_efficiencies": [0.5, 0.5], "budget": 50, "cutoff": 3}


@pytest.mark.parametrize(
    "spec,argv,message",
    [
        # the search's cap is search.cutoff: a top-level one would shadow it
        ({"command": "nogo-search", "cutoff": 3,
          "search": {**_SEARCH_CAP_3, "cutoff": 9}}, [],
         "spec field cutoff: nogo-search reads only search, seed"),
        ({"command": "nogo-search", "search": _SEARCH_CAP_3}, ["--cutoff", "9"],
         "spec field cutoff: nogo-search reads only search, seed"),
        ({"command": "verify", "verify": {"check": "bernoulli", "trials": 1}},
         ["--cutoff", "4"], "spec field cutoff: verify reads only verify, seed"),
        ({"command": "efficiency", "sources": _TWO_ISPS, "seed": 1},
         [], "spec field seed: efficiency reads only sources, cutoff, tolerances.tail, "
             "tolerances.feasibility"),
        ({"command": "simulate", "sources": _TWO_ISPS, "tolerances": {"feasibility": 0.1}},
         [], "spec field tolerances.feasibility: simulate reads only sources, "
             "interferometer, measurement, cutoff, tolerances.tail, tolerances.herald_floor"),
        ({"command": "nogo-search", "search": _SEARCH_CAP_3, "tolerances": {}},
         [], "spec field tolerances: nogo-search reads only search, seed"),
    ],
    ids=["nogo-search-spec-cutoff", "nogo-search-command-line-cutoff",
         "verify-command-line-cutoff", "efficiency-seed", "simulate-feasibility",
         "nogo-search-empty-tolerances"],
)
def test_main_refuses_what_the_command_does_not_read(
    tmp_path, capsys, monkeypatch, spec, argv, message
):
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(pel.cli, "_RUNNERS", dict.fromkeys(pel.cli._RUNNERS, no_run))
    code, err = _refused(tmp_path, capsys, spec, argv)
    assert (code, err) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,value",
    [
        (["verify", "bernoulli", "--spec", "SPEC", "--trials", "7"], "subject bernoulli"),
        (["verify", "--spec", "SPEC", "--trials", "7"], "--trials 7"),
        (["efficiency", "commutation", "--spec", "SPEC", "--trials", "3"],
         "subject commutation"),
        (["efficiency", "--spec", "SPEC", "--trials", "3"], "--trials 3"),
        (["nogo-search", "bernoulli"], "subject bernoulli"),
    ],
    ids=["verify-spec-subject", "verify-spec-trials", "efficiency-subject",
         "efficiency-trials", "nogo-search-subject"],
)
def test_main_refuses_command_line_values_nothing_reads(
    tmp_path, capsys, monkeypatch, argv, value
):
    # the subject and --trials make the spec of a verify run without one;
    # beside a spec, or for another command, they would change nothing
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(pel.cli, "_RUNNERS", dict.fromkeys(pel.cli._RUNNERS, no_run))
    path = tmp_path / "spec.json"
    command = argv[0]
    spec = {"command": command}
    if command == "verify":
        spec["verify"] = {"check": "commutation", "trials": 1}
    elif command == "efficiency":
        spec["sources"] = [{"kind": "isps", "p": 0.5}]
    path.write_text(json.dumps(spec))
    argv = [str(path) if arg == "SPEC" else arg for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {value}: only verify without --spec reads it\n"


@pytest.mark.parametrize("command,spec", [
    ("efficiency", {"sources": [{"kind": "isps", "p": 0.5}]}),
    ("simulate", {"sources": [{"kind": "fock", "n": 1}]}),
    ("verify", {"verify": {"check": "bernoulli", "trials": 1}}),
])
def test_main_seed_on_the_command_line_reaches_every_command(
    tmp_path, capsys, command, spec
):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": command, **spec}))
    assert main([command, "--spec", str(path), "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_the_fields_each_command_reads_are_schema_fields():
    # every spec field but command and output is read by some command, and
    # the table names no field the schema does not have
    properties = SCHEMA["properties"]
    tolerances = properties["tolerances"]["properties"]
    read = {field for fields in pel.cli._READS.values() for field in fields}
    assert set(pel.cli._READS) == set(properties["command"]["enum"])
    assert read == (
        (properties.keys() - {"command", "output", "tolerances"})
        | {f"tolerances.{key}" for key in tolerances}
    )


def test_search_block_passes_its_search_space_fields_through():
    search = {"source_efficiencies": [0.5, 0.4], "num_coherent": 2, "cutoff": 5,
              "amplitude_cap": 0.5, "constraint": 0.1, "min_herald": 1e-4,
              "patterns": [[1, 0, 0], [2, 0, 1]], "budget": 50}
    (space,) = pel.cli._search_spaces({"command": "nogo-search", "search": search})
    assert space == pel.SearchSpace(
        (0.5, 0.4), num_coherent=2, cutoff=5, amplitude_cap=0.5, constraint=0.1,
        min_herald=1e-4, patterns=((1, 0, 0), (2, 0, 1)),
    )
    (default,) = pel.cli._search_spaces(
        {"command": "nogo-search", "search": {"source_efficiencies": [0.5, 0.4]}})
    assert default == pel.SearchSpace((0.5, 0.4))


_ONE_DOCUMENT_PER_KIND = [
    {"command": "simulate", "sources": _TWO_ISPS, "cutoff": 2,
     "interferometer": {"mesh": [0.7853981633974483, 0, 0, 0]},
     "measurement": {"detect": {"1": 1}}},
    {"command": "simulate", "sources": [{"kind": "coherent", "alpha": [0.3, 0.1]},
                                        {"kind": "partial_qubit", "p": 0.5, "q": 0.2}],
     "interferometer": {"haar": {"seed": 3}}, "cutoff": 6, "tolerances": {"tail": 1e-3}},
    {"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7},
                                          {"kind": "fock", "n": 1}]},
    {"command": "verify", "verify": {"check": "commutation", "trials": 1}},
    {"command": "verify", "verify": {"check": "bernoulli", "trials": 1}},
    {"command": "nogo-search",
     "search": {"source_efficiencies": [0.5, 0.5], "budget": 1, "cutoff": 4}},
]


@pytest.mark.parametrize("spec", _ONE_DOCUMENT_PER_KIND,
                         ids=["simulate-heralded", "simulate", "efficiency",
                              "verify-commutation", "verify-bernoulli", "nogo-search"])
def test_documents_hold_only_json_values(spec):
    # emission serializes these types alone: a runner converts every number
    # it reports with float, int or bool
    document, _ = run_spec(spec)
    kinds = {type(value) for _, value in _nodes(document)}
    assert kinds <= {dict, list, str, int, float, bool, type(None)}, kinds
    assert json.loads(emit(document)) == document


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"command": "efficiency", "sources": [{"kind": "isps", "p": np.float32(0.5)}]},
         "spec field sources.0.p: float32 is not a JSON value"),
        ({"command": "simulate", "sources": _TWO_ISPS, "measurement": {"detect": {1: 1}}},
         "spec field measurement.detect: key 1 is not a string"),
        ({"command": "efficiency", "sources": ({"kind": "isps", "p": 0.5},)},
         "spec field sources: tuple is not a JSON value"),
    ],
    ids=["numpy-float32", "int-key", "tuple"],
)
def test_a_spec_holds_only_json_values(monkeypatch, spec, message):
    # a Python caller's spec can hold what no JSON file can; each is refused,
    # naming the field, before the schema or any command sees it
    def no_schema(spec):
        raise AssertionError("the schema saw the spec")

    monkeypatch.setattr(pel.cli, "_spec_is_valid", no_schema)
    with pytest.raises(ValidationError) as raised:
        run_spec(spec)
    assert str(raised.value) == message


def test_main_refuses_an_efficiency_spec_without_sources(tmp_path, capsys):
    code, err = _refused(tmp_path, capsys, {"command": "efficiency", "sources": []})
    assert (code, err) == (2, "error: sources: at least one source is required for efficiency\n")


def test_main_refuses_a_spec_that_is_no_object(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("[1, 2]")
    assert main(["efficiency", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == "error: spec must be a JSON object\n"


def test_emit_refuses_an_unknown_format_and_a_non_finite_value(tmp_path, capsys, monkeypatch):
    document, _ = run_spec({"command": "efficiency", "sources": [{"kind": "isps", "p": 0.7}]})
    # the command line and the schema offer json and csv alone
    with pytest.raises(ValidationError) as raised:
        emit(document, "xml")
    assert str(raised.value) == "unknown output format 'xml'"
    broken = {**document, "value": math.nan}
    monkeypatch.setattr(pel.cli, "_RUNNERS", {"efficiency": lambda *args: (broken, 0)})
    for fmt in ("json", "csv"):
        code, err = _refused(tmp_path, capsys, {"command": "efficiency"}, ["--format", fmt])
        assert (code, err) == (2, "error: non-finite value nan in result document\n")


#: one document of each kind, a single-source efficiency and a two-point
#: p_max grid: the CSV table must have an entry for each
_CSV_CASES = _ONE_DOCUMENT_PER_KIND + [
    {"command": "efficiency", "sources": [{"kind": "coherent", "alpha": 0.5}]},
    {"command": "nogo-search",
     "search": {"p_max_grid": [0.3, 0.6], "num_sources": 2, "budget": 1, "cutoff": 4}},
]


def _csv_rows_expected(spec) -> int:
    """One CSV row per report, per source of efficiency, per mode of an
    unheralded simulate, else one."""
    if spec["command"] == "nogo-search":
        return len(spec["search"].get("p_max_grid", [None]))
    if spec["command"] == "efficiency" or (
            spec["command"] == "simulate" and "measurement" not in spec):
        return len(spec["sources"])
    return 1


def _json_value(document, entry, column):
    """The JSON value a CSV column reports: an end of the bracket, the row
    entry's field or the document's; bernoulli's verdict is all_passed."""
    if column.startswith("bracket_"):
        return entry["bracket"][column == "bracket_hi"]
    for holder in (entry, document):
        if column in holder:
            return holder[column]
    assert column == "passed" and document["check"] == "bernoulli", column
    return document["all_passed"]


def test_every_command_and_check_has_a_csv_case():
    # a command or verify check added without a CSV entry fails the table test
    assert {spec["command"] for spec in _CSV_CASES} == set(pel.cli._RUNNERS)
    checks = {spec["verify"]["check"] for spec in _CSV_CASES if spec["command"] == "verify"}
    assert checks == set(SCHEMA["properties"]["verify"]["properties"]["check"]["enum"])


@pytest.mark.parametrize("spec", _CSV_CASES,
                         ids=["simulate-heralded", "simulate", "efficiency",
                              "verify-commutation", "verify-bernoulli", "nogo-search",
                              "efficiency-one-source", "nogo-search-grid"])
def test_csv_reports_the_json_documents_values(spec):
    document, _ = run_spec(spec)
    parsed = json.loads(emit(document))
    header, *rows = csv.reader(io.StringIO(emit(document, "csv")))
    entries = parsed.get("reports", parsed.get("per_mode", [parsed]))
    assert len(rows) == len(entries) == _csv_rows_expected(spec)
    for row, entry in zip(rows, entries):
        assert len(row) == len(header)
        assert row == [pel.cli._csv_cell(_json_value(parsed, entry, column))
                       for column in header]
