"""Command-line front end.

``pel <command> --spec FILE [--seed N] [--cutoff N] [--out PATH]
[--format json|csv]`` with commands ``simulate``, ``efficiency``,
``nogo-search`` and ``verify``; ``pel verify commutation|bernoulli
[--trials N]`` runs a check without a spec.  Specs are
strict JSON: unknown fields and repeated keys are refused, and so is every
field the command never reads (``_READS`` lists, per command, the fields it
reads), so a typo cannot silently change an experiment.  A command-line
``--cutoff`` is refused the same way where the command reads no cutoff:
``nogo-search`` caps its search at ``search.cutoff``, and ``verify``'s
checks fix their own bases.

A spec must hold JSON values alone: a Python caller's spec with a tuple, a
numpy scalar that is no Python float or int, a key that is no string, a NaN
or an infinity is refused before anything else.  It is then checked against
``SCHEMA``, compiled once at import into a plain predicate that decides as
jsonschema's Draft 2020-12 validator does.  jsonschema is imported only when
a spec is refused, to word the refusal.

Exit codes: 0 success, 2 validation error, 3 numerical-guard or I/O error,
4 theorem-violation flag (never expected).

Every result document is ``spec_echo``, the command's fields, ``seed`` and
``version``, in that order (``_document``).  Documents are deterministic:
fixed key order, floats printed with 17 significant digits (round-trip
exact), no timestamps, and a search runs its restarts in the calling
thread, each from its own (seed, restart)-keyed stream.  Identical spec +
seed therefore gives byte-identical output.  The CSV form is one table per
document kind, picked by the spec's command (``_csv_table``).
"""

import argparse
import csv
import io
import json
import math
import numbers
import operator
import re
import sys

from . import __version__
from .config import FEASIBILITY, HERALD_FLOOR, TAIL
from .efficiency import generalized_efficiency
from .errors import ArityError, ContractViolation, PelError, TruncationError, ValidationError
from .fock import (
    Coherent,
    Fock,
    FockBasis,
    Isps,
    PartialQubit,
    make_state,
    tensor_all,
)
from .interferometer import ModeUnitary, from_mesh, haar_random, output_diagonal
from .measurement import MeasurementPattern, heralded_distribution, mode_distribution
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
                        "^(0|[1-9][0-9]*)$": {
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


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Number)


def _is_integer(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    )


#: jsonschema's Draft 2020-12 types: a bool is no number, an integral float
#: is an integer and an array is a list
_TYPES = {
    "null": lambda value: value is None,
    "integer": _is_integer,
    "number": _is_number,
    "string": lambda value: isinstance(value, str),
    "array": lambda value: isinstance(value, list),
    "object": lambda value: isinstance(value, dict),
}


def _unbool(value):
    """jsonschema's equality on scalars: a bool equals only a bool, and
    1 == 1.0."""
    return (bool, value) if isinstance(value, bool) else value


def _enum(values, schema):
    keys = [_unbool(value) for value in values]
    return lambda value: _unbool(value) in keys


def _bound(refuses):
    # only a number is bounded, and NaN, which no comparison refuses, passes
    return lambda limit, schema: lambda value: not (
        _is_number(value) and refuses(value, limit)
    )


def _size(kind, fits):
    return lambda limit, schema: lambda value: (
        not isinstance(value, kind) or fits(len(value), limit)
    )


def _required(names, schema):
    return lambda value: not isinstance(value, dict) or all(n in value for n in names)


def _items(items, schema):
    check = _compile(items)
    return lambda value: not isinstance(value, list) or all(map(check, value))


def _properties(properties, schema):
    checks = [(name, _compile(sub)) for name, sub in properties.items()]
    return lambda value: not isinstance(value, dict) or all(
        check(value[name]) for name, check in checks if name in value
    )


def _pattern_properties(patterns, schema):
    checks = [(re.compile(pattern).search, _compile(sub)) for pattern, sub in patterns.items()]
    return lambda value: not isinstance(value, dict) or all(
        check(item) for search, check in checks for key, item in value.items()
        if search(key)
    )


def _no_additional_properties(allowed, schema):
    # jsonschema's find_additional_properties: a key neither named nor
    # matched by the patterns joined into one
    if allowed is not False:
        raise ValueError(f"additionalProperties {allowed!r}: only false is compiled")
    names = schema.get("properties", {})
    patterns = "|".join(schema.get("patternProperties", {}))
    matched = re.compile(patterns).search if patterns else lambda key: False
    return lambda value: not isinstance(value, dict) or all(
        key in names or matched(key) for key in value
    )


def _one_of(subschemas, schema):
    checks = [_compile(sub) for sub in subschemas]
    return lambda value: sum(1 for check in checks if check(value)) == 1


#: each keyword SCHEMA uses, as (its value, its schema) -> predicate
_KEYWORDS = {
    "type": lambda name, schema: _TYPES[name],
    "enum": _enum,
    "const": lambda value, schema: _enum([value], schema),
    "minimum": _bound(operator.lt),
    "maximum": _bound(operator.gt),
    "exclusiveMinimum": _bound(operator.le),
    "minItems": _size(list, operator.ge),
    "maxItems": _size(list, operator.le),
    "minProperties": _size(dict, operator.ge),
    "maxProperties": _size(dict, operator.le),
    "required": _required,
    "items": _items,
    "properties": _properties,
    "patternProperties": _pattern_properties,
    "additionalProperties": _no_additional_properties,
    "oneOf": _one_of,
}


def _compile(schema: dict):
    """A predicate on JSON values that decides as jsonschema's Draft 2020-12
    validator decides on ``schema``.  A keyword outside ``_KEYWORDS`` raises
    here, where jsonschema would ignore it, so the schema cannot outgrow the
    compiled check unnoticed."""
    unknown = schema.keys() - _KEYWORDS.keys()
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not compiled")
    checks = [_KEYWORDS[keyword](value, schema) for keyword, value in schema.items()]
    def check(value):
        for keyword_check in checks:
            if not keyword_check(value):
                return False
        return True

    return check


#: SCHEMA, compiled once when the module is imported
_spec_is_valid = _compile(SCHEMA)


def _integers(schema: dict):
    """A function that turns each value of a valid document at a place
    where ``schema`` says "integer" into an ``int``, or None where no such
    place lies below ``schema``.  The schema admits an integral float as an
    integer, as jsonschema does, but the runners index, repeat and seed
    with these values.  It builds a new list or dict wherever one changes
    below it, and leaves the document it is given as it is."""
    if schema.get("type") == "integer":
        return int
    if "items" in schema:
        item = _integers(schema["items"])
        return item and (lambda value: [item(v) for v in value])
    if "oneOf" in schema:
        # a valid value matches exactly one branch, and only a branch with
        # an integer place can change it
        branches = [(_compile(sub), convert) for sub in schema["oneOf"]
                    if (convert := _integers(sub))]
        if not branches:
            return None
        return lambda value: next(
            (convert(value) for check, convert in branches if check(value)), value
        )
    named = {name: convert for name, sub in schema.get("properties", {}).items()
             if (convert := _integers(sub))}
    patterned = [(re.compile(pattern).search, convert)
                 for pattern, sub in schema.get("patternProperties", {}).items()
                 if (convert := _integers(sub))]
    if not named and not patterned:
        return None

    def convert_object(value):
        converted = {}
        for key, item in value.items():
            convert = named.get(key) or next(
                (convert for search, convert in patterned if search(key)), None
            )
            converted[key] = item if convert is None else convert(item)
        return converted

    return convert_object


#: ``_integers`` of SCHEMA, built once when the module is imported
_spec_integers = _integers(SCHEMA)


def _refusal(path, message: str) -> ValidationError:
    field = ".".join(str(p) for p in path) or "(top level)"
    return ValidationError(f"spec field {field}: {message}")


def _require_json(value, path=()) -> None:
    """Refuse the first value that emission could not write back: a key that
    is no string, a NaN or infinity (Python's json admits both, and they pass
    the schema's bounds), or anything but None, bool, int, float, str, list
    and dict, such as a tuple or a numpy float32."""
    if isinstance(value, dict):
        for key, child in value.items():
            if not isinstance(key, str):
                raise _refusal(path, f"key {key!r} is not a string")
            _require_json(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            _require_json(child, path + (index,))
    elif isinstance(value, float) and not math.isfinite(value):
        raise _refusal(path, f"non-finite number {value!r}")
    elif not (value is None or isinstance(value, (int, float, str))):
        raise _refusal(path, f"{type(value).__name__} is not a JSON value")


def validate_spec(spec: dict) -> None:
    """Refuse, with ``ValidationError``, a spec that holds a value no JSON
    document holds (``_require_json``) or that ``SCHEMA`` refuses.  The
    check is ``SCHEMA`` compiled once into a predicate; only a refused spec
    imports jsonschema, to word the refusal with the error that
    ``jsonschema.validate`` would raise."""
    _require_json(spec)
    if not _spec_is_valid(spec):
        import jsonschema

        validator = jsonschema.Draft202012Validator(SCHEMA)
        exc = jsonschema.exceptions.best_match(validator.iter_errors(spec))
        if exc is None:
            raise RuntimeError(
                f"the compiled schema refuses a spec that jsonschema accepts: {spec!r}"
            )
        raise _refusal(exc.absolute_path, exc.message)


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


def _build_unitary(block: dict | None, modes: int) -> ModeUnitary:
    if block is None:
        return from_mesh([0.0] * (modes * (modes - 1) + modes), modes)
    if "haar" in block:
        return haar_random(modes, block["haar"]["seed"])
    field = "mesh" if "mesh" in block else "matrix"
    try:
        if field == "mesh":
            return from_mesh(block["mesh"], modes)
        unitary = ModeUnitary([[_as_complex(cell) for cell in row] for row in block["matrix"]])
    except (ArityError, ContractViolation) as exc:
        raise ValidationError(f"interferometer.{field}: {exc}") from None
    if unitary.modes != modes:
        raise ValidationError(
            f"interferometer.matrix: unitary has {unitary.modes} modes, state has {modes}"
        )
    return unitary


#: the spec fields each command reads besides ``command`` and ``output``,
#: which every command reads: its blocks, ``seed``, ``cutoff``
#: and each ``tolerances.<key>``, a keyword of the command's runner
_READS = {
    "efficiency": ("sources", "cutoff", "tolerances.tail", "tolerances.feasibility"),
    "simulate": ("sources", "interferometer", "measurement", "cutoff",
                 "tolerances.tail", "tolerances.herald_floor"),
    "nogo-search": ("search", "seed"),
    "verify": ("verify", "seed"),
}


def _refuse_unread(spec: dict, cutoff) -> None:
    """A spec field the command never reads, or a command-line ``cutoff``
    where it reads none, is refused rather than echoed as if it had been
    applied.  A ``tolerances`` block is named as a whole where the command
    reads no tolerance."""
    command = spec["command"]
    reads = _READS[command]
    paths = [field for field in spec if field not in ("command", "output", "tolerances")]
    if "tolerances" in spec:
        if any(field.startswith("tolerances.") for field in reads):
            paths += [f"tolerances.{key}" for key in spec["tolerances"]]
        else:
            paths.append("tolerances")
    if cutoff is not None:
        paths.append("cutoff")
    for path in paths:
        if path not in reads:
            raise ValidationError(
                f"spec field {path}: {command} reads only {', '.join(reads)}"
            )


def _document(spec, seed, **fields) -> dict:
    """A result document: the spec echoed first, then the command's fields,
    then the seed and the package version."""
    return {"spec_echo": spec, **fields, "seed": seed, "version": __version__}


def _efficiency_fields(result) -> dict:
    return {
        "value": result.value,
        "bracket": [result.bracket[0], result.bracket[1]],
        "attained": result.attained,
    }


def _run_efficiency(spec, seed, cutoff, *, tail=TAIL, feasibility=FEASIBILITY):
    sources = spec.get("sources") or []
    if not sources:
        raise ValidationError("sources: at least one source is required for efficiency")
    cutoff = cutoff if cutoff is not None else 12
    basis = FockBasis(1, cutoff)
    results = []
    for entry in sources:
        state = make_state(_build_source(entry), basis, tail_tol=tail)
        results.append(generalized_efficiency(state, feasibility=feasibility))
    top = max(results, key=lambda result: result.value)
    document = _document(
        spec,
        seed,
        **_efficiency_fields(top),
        cutoff_used=top.cutoff_used,
    )
    if len(results) > 1:
        document["per_mode"] = [_efficiency_fields(result) for result in results]
    return document, 0


def _photon_statistics(distribution) -> dict:
    """The single-photon probability and multiphoton weight of one mode's
    photon-number distribution."""
    single = float(distribution[1]) if distribution.size > 1 else 0.0
    return {
        "single_photon_probability": single,
        "multiphoton_weight": float(distribution[2:].sum()),
    }


def _run_simulate(spec, seed, cutoff, *, tail=TAIL, herald_floor=HERALD_FLOOR):
    """Every field is a photon-number statistic of V rho V^dag, so it is
    read off the output's diagonal (``output_diagonal``); the full output
    state is never formed."""
    sources = spec.get("sources") or []
    if not sources:
        raise ValidationError("sources: at least one source is required for simulate")
    cutoff = cutoff if cutoff is not None else 6
    modes = len(sources)
    single = FockBasis(1, cutoff)
    states = [make_state(_build_source(e), single, tail_tol=tail) for e in sources]
    joint = FockBasis(modes, cutoff)
    rho = tensor_all(states, joint, tail_tol=tail)
    diagonal = output_diagonal(rho, _build_unitary(spec.get("interferometer"), modes))
    measurement = spec.get("measurement")
    if measurement is not None:
        pattern = MeasurementPattern(
            {int(k): v for k, v in measurement["detect"].items()}
        )
        prob, marginal = heralded_distribution(joint, diagonal, pattern, herald_floor)
        # heralding divides the joint tail by the outcome probability
        weight = rho.tail / prob if rho.tail else 0.0
        if weight > tail:
            raise TruncationError(
                f"heralded survivor's truncation weight {weight:.3e} exceeds the "
                f"tail tolerance {tail:.1e}; raise the cutoff or loosen tolerances.tail"
            )
        return _document(
            spec,
            seed,
            herald_probability=prob,
            **_photon_statistics(marginal),
            survivor_diagonal=[float(x) for x in marginal],
            truncation_weight=weight,
        ), 0
    per_mode = [
        {"mode": m, **_photon_statistics(mode_distribution(joint, diagonal, m))}
        for m in range(modes)
    ]
    return _document(
        spec,
        seed,
        per_mode=per_mode,
        total_photon_distribution=[float(diagonal[sl].sum()) for sl in joint.block_slices],
        truncation_weight=rho.tail,
    ), 0


#: the fields of a spec's ``search`` block that are not ``SearchSpace`` fields
_GRID_FIELDS = ("source_efficiencies", "p_max_grid", "num_sources", "budget")


def _search_spaces(spec):
    """One ``SearchSpace`` per grid point; every other field of the search
    block passes through unchanged, so ``SearchSpace`` holds the defaults."""
    block = spec.get("search") or {}
    common = {key: value for key, value in block.items() if key not in _GRID_FIELDS}
    if "p_max_grid" in block:
        if "source_efficiencies" in block:
            raise ValidationError(
                "spec field search.source_efficiencies: nogo-search reads "
                "p_max_grid instead when both are given"
            )
        num_sources = block.get("num_sources", 2)
        grid = [tuple([p] * num_sources) for p in block["p_max_grid"]]
    elif "num_sources" in block:
        raise ValidationError(
            "spec field search.num_sources: nogo-search reads it only with p_max_grid"
        )
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


def _run_nogo(spec, seed, cutoff):
    spaces = _search_spaces(spec)
    budget = (spec.get("search") or {}).get("budget", 20000)
    reports = []
    for space in spaces:
        report = maximize_X(space, budget, seed)
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
    code = _EXIT_VIOLATION if any(r["violated"] for r in reports) else 0
    return _document(spec, seed, reports=reports), code


def _run_verify(spec, seed, cutoff):
    block = spec.get("verify")
    if block is None:
        raise ValidationError("verify: a verify block naming the check is required")
    trials = block.get("trials", 100)
    check = block["check"]
    if check == "commutation":
        deviation = verify_commutation(seed, trials)
        counterexample = unequal_loss_counterexample()
        passed = deviation < 1e-9 and counterexample > 1e-3
        result = {
            "max_deviation": deviation,
            "unequal_loss_deviation": counterexample,
            "passed": passed,
        }
    else:
        passed = verify_bernoulli_consequence(seed, trials)
        result = {"all_passed": passed}
    document = _document(
        spec,
        seed,
        check=check,
        trials=trials,
        **result,
    )
    return document, 0 if passed else _EXIT_VIOLATION


_RUNNERS = {
    "efficiency": _run_efficiency,
    "simulate": _run_simulate,
    "nogo-search": _run_nogo,
    "verify": _run_verify,
}


def run_spec(spec: dict, *, seed=None, cutoff=None, threads=None):
    """Validate and execute a spec document; returns (document, exit_code).
    An integral float where ``SCHEMA`` asks for an integer runs, and is
    echoed, as that integer (``_integers``).  ``threads`` is accepted and
    ignored: every command runs in the calling thread."""
    validate_spec(spec)
    spec = _spec_integers(spec)
    _refuse_unread(spec, cutoff)
    seed = seed if seed is not None else spec.get("seed", 0)
    cutoff = cutoff if cutoff is not None else spec.get("cutoff")
    # the schema bounds these in a spec; a command-line value overrides it
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if cutoff is not None and cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    tolerances = {key: float(value) for key, value in spec.get("tolerances", {}).items()}
    runner = _RUNNERS[spec["command"]]
    return runner(spec, seed, cutoff, **tolerances)


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
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, list):
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}:{_emit_json(v)}" for k, v in obj.items())
        return "{" + ",".join(parts) + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__} in result document")


def _csv_cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


_SEARCH_CSV = ["p_max", "constraint", "best_X", "bound", "herald_prob",
               "multiphoton_weight", "violated"]
_STATISTICS_CSV = ["single_photon_probability", "multiphoton_weight"]
#: each verify check's result and verdict columns
_VERIFY_CSV = {"commutation": ("max_deviation", "passed"),
               "bernoulli": ("all_passed", "all_passed")}


def _csv_table(document: dict) -> tuple:
    """A document's CSV header and rows of values.  The spec's command picks
    them, with the verify check or whether simulate heralds; which result
    keys the document holds never does."""
    spec = document["spec_echo"]
    command = spec["command"]
    if command == "nogo-search":
        return _SEARCH_CSV, [[r[k] for k in _SEARCH_CSV] for r in document["reports"]]
    if command == "simulate" and "measurement" in spec:
        header = ["herald_probability", *_STATISTICS_CSV]
        return header, [[document[k] for k in header]]
    if command == "simulate":
        header = ["mode", *_STATISTICS_CSV]
        return header, [[m[k] for k in header] for m in document["per_mode"]]
    if command == "efficiency":
        # one row per source, in source order; a single source has no per_mode
        results = document["per_mode"] if len(spec["sources"]) > 1 else [document]
        header = ["value", "bracket_lo", "bracket_hi", "attained", "cutoff_used"]
        return header, [
            [r["value"], *r["bracket"], r["attained"], document["cutoff_used"]]
            for r in results
        ]
    result, verdict = _VERIFY_CSV[spec["verify"]["check"]]
    header = ["check", "trials", result, "passed"]
    return header, [[document[k] for k in ("check", "trials", result, verdict)]]


def emit(document: dict, fmt: str = "json") -> str:
    """Serialize a result document; JSON is the canonical byte-stable form,
    CSV is the tabular form for sweeps and plotting (``_csv_table``)."""
    if fmt == "json":
        return _emit_json(document) + "\n"
    if fmt != "csv":
        raise ValidationError(f"unknown output format {fmt!r}")
    header, rows = _csv_table(document)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _unique_keys(pairs) -> dict:
    """A JSON object of the spec file, refused if it repeats a key: json
    would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"spec repeats the key {key!r}")
        obj[key] = value
    return obj


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals (an unknown flag, a value outside
    the choices or of the wrong type) raise ``ValidationError``, so that
    ``main`` returns 2 for them as for every other refusal instead of
    leaving through ``SystemExit``.  ``-h`` still prints the help and
    exits 0."""

    def error(self, message):
        raise ValidationError(message)


def main(argv=None) -> int:
    checks = SCHEMA["properties"]["verify"]["properties"]["check"]["enum"]
    parser = _Parser(
        prog="pel",
        description="Linear-optical processing of imperfect single-photon sources",
    )
    parser.add_argument(
        "command", choices=["simulate", "efficiency", "nogo-search", "verify"]
    )
    parser.add_argument(
        "subject",
        nargs="?",
        help=f"for verify without --spec: the check to run ({'|'.join(checks)})",
    )
    parser.add_argument("--spec", help="path to a JSON experiment spec")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--cutoff", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None,
                        help="trial count for spec-less verify")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)

    try:
        args = parser.parse_args(argv)
        # the subject and trial count make a spec for verify without --spec
        for option, value in (("subject", args.subject), ("--trials", args.trials)):
            if value is not None and (args.spec is not None or args.command != "verify"):
                raise ValidationError(
                    f"{option} {value}: only verify without --spec reads it"
                )
        if args.spec is not None:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    spec = json.load(fh, object_pairs_hook=_unique_keys)
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
        elif args.command == "verify" and args.subject is not None:
            if args.subject not in checks:
                raise ValidationError(
                    f"subject {args.subject}: verify checks are {', '.join(checks)}"
                )
            # an explicit 0 must reach the schema's minimum, not the default
            trials = 100 if args.trials is None else args.trials
            spec = {"command": "verify", "verify": {"check": args.subject, "trials": trials}}
        else:
            raise ValidationError("--spec FILE is required")
        document, code = run_spec(spec, seed=args.seed, cutoff=args.cutoff)
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
