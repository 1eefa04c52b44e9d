"""Command-line front end.

``pel <command> --spec FILE [--seed N] [--cutoff N] [--threads N]
[--out PATH] [--format json|csv]`` with commands ``simulate``,
``efficiency``, ``nogo-search`` and ``verify``.  Specs are strict JSON:
unknown fields are rejected so a typo cannot silently change an experiment.

Exit codes: 0 success, 2 validation error, 3 numerical-guard or I/O error,
4 theorem-violation flag (never expected).

Result documents are deterministic: fixed key order, floats printed with 17
significant digits (round-trip exact), no timestamps, and search results are
independent of the thread count.  Identical spec + seed therefore gives
byte-identical output.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import lru_cache

import jsonschema

from . import __version__
from .config import DEFAULT, Tolerances
from .efficiency import generalized_efficiency
from .errors import PelError, ValidationError
from .errors import ContractViolation
from .fock import (
    Coherent,
    Fock,
    FockBasis,
    Isps,
    PartialQubit,
    make_state,
    partial_trace,
    tensor_all,
)
from .interferometer import ModeUnitary, from_mesh, haar_random, apply_interferometer
from .measurement import (
    MeasurementPattern,
    condition,
    multiphoton_weight,
    single_photon_probability,
)
from .nogo import (
    SearchSpace,
    maximize_X,
    unequal_loss_counterexample,
    verify_bernoulli_consequence,
    verify_commutation,
)

_NUMBER_OR_PAIR = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

_SOURCE = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "p"],
            "properties": {
                "kind": {"const": "isps"},
                "p": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "alpha"],
            "properties": {"kind": {"const": "coherent"}, "alpha": _NUMBER_OR_PAIR},
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n"],
            "properties": {
                "kind": {"const": "fock"},
                "n": {"type": "integer", "minimum": 0},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "p", "q"],
            "properties": {
                "kind": {"const": "partial_qubit"},
                "p": {"type": "number", "minimum": 0, "maximum": 1},
                "q": _NUMBER_OR_PAIR,
            },
        },
    ]
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {"enum": ["simulate", "efficiency", "nogo-search", "verify"]},
        "seed": {"type": "integer", "minimum": 0},
        "cutoff": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1},
        "sources": {"type": "array", "items": _SOURCE},
        "interferometer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mesh": {"type": "array", "items": {"type": "number"}},
                "haar": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["seed"],
                    "properties": {"seed": {"type": "integer", "minimum": 0}},
                },
                "matrix": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                },
            },
            "minProperties": 1,
            "maxProperties": 1,
        },
        "measurement": {
            "type": "object",
            "additionalProperties": False,
            "required": ["detect"],
            "properties": {
                "detect": {
                    "type": "object",
                    "patternProperties": {
                        "^[0-9]+$": {
                            "oneOf": [{"type": "integer", "minimum": 0}, {"type": "null"}]
                        }
                    },
                    "additionalProperties": False,
                }
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tail": {"type": "number", "exclusiveMinimum": 0},
                "herald_floor": {"type": "number", "exclusiveMinimum": 0},
                "feasibility": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "search": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "source_efficiencies": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                "p_max_grid": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                "num_sources": {"type": "integer", "minimum": 1},
                "num_coherent": {"type": "integer", "minimum": 0},
                "budget": {"type": "integer", "minimum": 1},
                "constraint": {
                    "oneOf": [{"type": "null"}, {"type": "number", "minimum": 0}]
                },
                "amplitude_cap": {"type": "number", "exclusiveMinimum": 0},
                "cutoff": {"type": "integer", "minimum": 1},
                "min_herald": {"type": "number", "exclusiveMinimum": 0},
                "patterns": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    },
                },
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "required": ["check"],
            "properties": {
                "check": {"enum": ["commutation", "bernoulli"]},
                "trials": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["json", "csv"]},
            },
        },
    },
}

_EXIT_VALIDATION = 2
_EXIT_GUARD = 3
_EXIT_VIOLATION = 4


@lru_cache(maxsize=1)
def _spec_validator():
    """The schema's validator, checked and built once; ``jsonschema.validate``
    would redo both on every call."""
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    return cls(SCHEMA)


def _require_finite(value, path=()):
    """Reject the first NaN or infinity in a JSON value: Python's json admits
    both, and they pass the schema's bounds."""
    if isinstance(value, float) and not math.isfinite(value):
        field = ".".join(str(p) for p in path)
        raise ValidationError(f"spec field {field}: non-finite number {value!r}")
    if isinstance(value, (dict, list)):
        children = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in children:
            _require_finite(child, path + (key,))


def validate_spec(spec: dict) -> None:
    # best_match picks the same error that jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_spec_validator().iter_errors(spec))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ValidationError(f"spec field {path}: {exc.message}")
    _require_finite(spec)


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def _build_source(entry: dict):
    kind = entry["kind"]
    if kind == "isps":
        return Isps(entry["p"])
    if kind == "coherent":
        return Coherent(_as_complex(entry["alpha"]))
    if kind == "fock":
        return Fock(entry["n"])
    return PartialQubit(entry["p"], _as_complex(entry["q"]))


def _build_unitary(block: dict | None, modes: int, seed: int) -> ModeUnitary:
    if block is None:
        return from_mesh([0.0] * (modes * (modes - 1) + modes), modes)
    if "mesh" in block:
        return from_mesh(block["mesh"], modes)
    if "haar" in block:
        return haar_random(modes, block["haar"]["seed"])
    matrix = [[_as_complex(cell) for cell in row] for row in block["matrix"]]
    try:
        return ModeUnitary(matrix)
    except ContractViolation as exc:
        raise ValidationError(f"interferometer.matrix: {exc}") from None


def _tolerances(spec: dict) -> Tolerances:
    if "tolerances" in spec and spec["command"] in ("nogo-search", "verify"):
        # the search and the checks run at the defaults; a block they would
        # ignore is refused rather than echoed as if it had been applied
        raise ValidationError(
            f"spec field tolerances: {spec['command']} reads no tolerance"
        )
    overrides = spec.get("tolerances", {})
    tol = DEFAULT
    for key, value in overrides.items():
        tol = type(tol)(**{**tol.__dict__, key: float(value)})
    return tol


def _run_efficiency(spec, seed, cutoff, threads, tol):
    sources = spec.get("sources") or []
    if not sources:
        raise ValidationError("sources: at least one source is required for efficiency")
    cutoff = cutoff if cutoff is not None else 12
    basis = FockBasis(1, cutoff)
    results = []
    for entry in sources:
        state = make_state(_build_source(entry), basis, tol=tol)
        results.append(generalized_efficiency(state, tol=tol))
    best = max(range(len(results)), key=lambda i: results[i].value)
    top = results[best]
    document = {
        "spec_echo": spec,
        "value": top.value,
        "bracket": [top.bracket[0], top.bracket[1]],
        "attained": top.attained,
        "cutoff_used": top.cutoff_used,
        "seed": seed,
        "version": __version__,
    }
    if len(results) > 1:
        document["per_mode"] = [
            {
                "value": r.value,
                "bracket": [r.bracket[0], r.bracket[1]],
                "attained": r.attained,
            }
            for r in results
        ]
    return document, 0


def _run_simulate(spec, seed, cutoff, threads, tol):
    sources = spec.get("sources") or []
    if not sources:
        raise ValidationError("sources: at least one source is required for simulate")
    cutoff = cutoff if cutoff is not None else 6
    modes = len(sources)
    single = FockBasis(1, cutoff)
    states = [make_state(_build_source(e), single, tol=tol) for e in sources]
    joint = FockBasis(modes, cutoff)
    rho = tensor_all(states, joint, tol=tol) if modes > 1 else states[0]
    unitary = _build_unitary(spec.get("interferometer"), modes, seed)
    rho = apply_interferometer(rho, unitary, tol=tol)
    measurement = spec.get("measurement")
    if measurement is not None:
        pattern = MeasurementPattern(
            {int(k): v for k, v in measurement["detect"].items()}
        )
        survivor, prob = condition(rho, pattern, tol=tol)
        if survivor.basis.modes > 1:
            marginal = partial_trace(survivor, [0], tol=tol)
        else:
            marginal = survivor
        document = {
            "spec_echo": spec,
            "herald_probability": prob,
            "single_photon_probability": single_photon_probability(marginal),
            "multiphoton_weight": multiphoton_weight(marginal),
            "survivor_diagonal": [float(x) for x in marginal.diagonal()],
            "truncation_weight": rho.tail,
            "seed": seed,
            "version": __version__,
        }
        return document, 0
    per_mode = []
    for m in range(modes):
        marginal = partial_trace(rho, [m], tol=tol) if modes > 1 else rho
        per_mode.append(
            {
                "mode": m,
                "single_photon_probability": single_photon_probability(marginal),
                "multiphoton_weight": multiphoton_weight(marginal),
            }
        )
    document = {
        "spec_echo": spec,
        "per_mode": per_mode,
        "total_photon_distribution": [
            float(x) for x in rho.total_photon_distribution()
        ],
        "truncation_weight": rho.tail,
        "seed": seed,
        "version": __version__,
    }
    return document, 0


def _search_spaces(spec, cutoff):
    block = spec.get("search") or {}
    common = {
        "num_coherent": block.get("num_coherent", 1),
        "constraint": block.get("constraint"),
    }
    for key in ("amplitude_cap", "min_herald"):
        if key in block:
            common[key] = block[key]
    if "patterns" in block:
        common["patterns"] = tuple(tuple(p) for p in block["patterns"])
    if cutoff is not None:
        common["cutoff"] = cutoff
    elif "cutoff" in block:
        common["cutoff"] = block["cutoff"]
    if "p_max_grid" in block:
        num_sources = block.get("num_sources", 2)
        grid = [tuple([p] * num_sources) for p in block["p_max_grid"]]
    elif "source_efficiencies" in block:
        grid = [tuple(block["source_efficiencies"])]
    else:
        raise ValidationError(
            "search: either source_efficiencies or p_max_grid is required"
        )
    try:
        return [SearchSpace(efficiencies, **common) for efficiencies in grid]
    except ContractViolation as exc:
        raise ValidationError(f"search: {exc}") from None


def _run_nogo(spec, seed, cutoff, threads, tol):
    spaces = _search_spaces(spec, cutoff)
    budget = (spec.get("search") or {}).get("budget", 20000)
    reports = []
    for space in spaces:
        report = maximize_X(space, budget, seed, threads=threads)
        reports.append(
            {
                "p_max": space.p_max,
                "constraint": space.constraint,
                "best_X": report.best_X,
                "bound": report.bound,
                "herald_prob": report.herald_probability,
                "multiphoton_weight": report.multiphoton_weight,
                "violated": report.violated,
                "best_pattern": list(report.best_pattern),
                "best_params": list(report.best_params),
                "evaluations": report.evaluations,
                "cutoff_used": report.cutoff_used,
                "truncation_weight": report.truncation_weight,
            }
        )
    document = {
        "spec_echo": spec,
        "reports": reports,
        "seed": seed,
        "version": __version__,
    }
    code = _EXIT_VIOLATION if any(r["violated"] for r in reports) else 0
    return document, code


def _run_verify(spec, seed, cutoff, threads, tol):
    block = spec.get("verify")
    if block is None:
        raise ValidationError("verify: a verify block naming the check is required")
    trials = block.get("trials", 100)
    check = block["check"]
    if check == "commutation":
        deviation = verify_commutation(seed, trials)
        counterexample = unequal_loss_counterexample()
        passed = deviation < 1e-9 and counterexample > 1e-3
        document = {
            "spec_echo": spec,
            "check": check,
            "trials": trials,
            "max_deviation": deviation,
            "unequal_loss_deviation": counterexample,
            "passed": passed,
            "seed": seed,
            "version": __version__,
        }
    else:
        passed = verify_bernoulli_consequence(seed, trials)
        document = {
            "spec_echo": spec,
            "check": check,
            "trials": trials,
            "all_passed": passed,
            "seed": seed,
            "version": __version__,
        }
    return document, 0 if passed else _EXIT_VIOLATION


_RUNNERS = {
    "efficiency": _run_efficiency,
    "simulate": _run_simulate,
    "nogo-search": _run_nogo,
    "verify": _run_verify,
}


def run_spec(spec: dict, *, seed=None, cutoff=None, threads=None):
    """Validate and execute a spec document; returns (document, exit_code)."""
    validate_spec(spec)
    seed = seed if seed is not None else spec.get("seed", 0)
    cutoff = cutoff if cutoff is not None else spec.get("cutoff")
    threads = threads if threads is not None else spec.get("threads", os.cpu_count() or 1)
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    tol = _tolerances(spec)
    runner = _RUNNERS[spec["command"]]
    return runner(spec, seed, cutoff, threads, tol)


# --- deterministic emission ---------------------------------------------------

def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {value!r} in result document")
    return format(value, ".17g")


def _emit_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, complex):
        return f"[{_format_float(obj.real)},{_format_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}:{_emit_json(v)}" for k, v in obj.items())
        return "{" + ",".join(parts) + "}"
    item = getattr(obj, "item", None)
    if item is not None:
        return _emit_json(item())
    raise ValidationError(f"cannot serialize {type(obj).__name__} in result document")


_CSV_HEADER = ["p_max", "constraint", "best_X", "bound", "herald_prob",
               "multiphoton_weight", "violated"]
_SIMULATE_CSV_HEADER = ["mode", "single_photon_probability", "multiphoton_weight"]


def _csv_cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def emit(document: dict, fmt: str = "json") -> str:
    """Serialize a result document; JSON is the canonical byte-stable form,
    CSV is the tabular form for sweeps and plotting."""
    if fmt == "json":
        return _emit_json(document) + "\n"
    if fmt != "csv":
        raise ValidationError(f"unknown output format {fmt!r}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if "reports" in document:
        writer.writerow(_CSV_HEADER)
        for report in document["reports"]:
            writer.writerow([_csv_cell(report[k]) for k in _CSV_HEADER])
    elif "value" in document:
        writer.writerow(["value", "bracket_lo", "bracket_hi", "attained", "cutoff_used"])
        # one row per source, in source order; a single source has no per_mode
        for result in document.get("per_mode", [document]):
            writer.writerow(
                [
                    _csv_cell(result["value"]),
                    _csv_cell(result["bracket"][0]),
                    _csv_cell(result["bracket"][1]),
                    _csv_cell(result["attained"]),
                    _csv_cell(document["cutoff_used"]),
                ]
            )
    elif "check" in document:
        result_key = "max_deviation" if "max_deviation" in document else "all_passed"
        writer.writerow(["check", "trials", result_key, "passed"])
        writer.writerow(
            [
                document["check"],
                document["trials"],
                _csv_cell(document[result_key]),
                _csv_cell(document.get("passed", document.get("all_passed"))),
            ]
        )
    elif "per_mode" in document:
        writer.writerow(_SIMULATE_CSV_HEADER)
        for marginal in document["per_mode"]:
            writer.writerow([_csv_cell(marginal[k]) for k in _SIMULATE_CSV_HEADER])
    else:
        writer.writerow(["herald_probability", "single_photon_probability",
                         "multiphoton_weight"])
        writer.writerow(
            [
                _csv_cell(document.get("herald_probability")),
                _csv_cell(document.get("single_photon_probability")),
                _csv_cell(document.get("multiphoton_weight")),
            ]
        )
    return buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pel",
        description="Linear-optical processing of imperfect single-photon sources",
    )
    parser.add_argument(
        "command", choices=["simulate", "efficiency", "nogo-search", "verify"]
    )
    parser.add_argument(
        "subject",
        nargs="?",
        help="for verify without --spec: the check to run (commutation|bernoulli)",
    )
    parser.add_argument("--spec", help="path to a JSON experiment spec")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--cutoff", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None,
                        help="trial count for spec-less verify")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
    args = parser.parse_args(argv)

    try:
        if args.spec is not None:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    spec = json.load(fh)
            except OSError as exc:
                print(f"error: cannot read spec: {exc}", file=sys.stderr)
                return _EXIT_GUARD
            except json.JSONDecodeError as exc:
                print(f"error: spec is not valid JSON: {exc}", file=sys.stderr)
                return _EXIT_VALIDATION
            if not isinstance(spec, dict):
                raise ValidationError("spec must be a JSON object")
            if spec.get("command") != args.command:
                raise ValidationError(
                    f"command: spec says {spec.get('command')!r} but the command "
                    f"line says {args.command!r}"
                )
        elif args.command == "verify" and args.subject in ("commutation", "bernoulli"):
            spec = {
                "command": "verify",
                "verify": {"check": args.subject, "trials": args.trials or 100},
            }
        else:
            raise ValidationError("--spec FILE is required")
        document, code = run_spec(
            spec,
            seed=args.seed,
            cutoff=args.cutoff,
            threads=args.threads,
        )
        fmt = args.fmt or (spec.get("output") or {}).get("format", "json")
        payload = emit(document, fmt)
        out_path = args.out or (spec.get("output") or {}).get("path")
        if out_path:
            try:
                with open(out_path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(payload)
            except OSError as exc:
                print(f"error: cannot write output: {exc}", file=sys.stderr)
                return _EXIT_GUARD
        else:
            sys.stdout.write(payload)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except PelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
