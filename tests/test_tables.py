"""Every table a cached function of ``pel`` returns is shared by every later
call, and by the threads of ``maximize_X``: none of its arrays may be
writable."""

import importlib
import pkgutil

import numpy as np

import pel
from pel import FockBasis, SearchSpace
from pel.nogo import _SchemeEngine

#: a call of each cached table function of ``pel``, by qualified name
_CALLS = {
    "pel.channels._loss_plan": lambda m: m._loss_plan(FockBasis(3, 3), (0, 2)),
    "pel.efficiency._polynomial_tables": lambda m: m._polynomial_tables(FockBasis(2, 3)),
    "pel.fock._basis_tables": lambda m: m._basis_tables(3, 4),
    "pel.fock._log_factorials": lambda m: m._log_factorials(5),
    "pel.fock._displacement_plan": lambda m: m._displacement_plan(6, 2),
    # the last factor's cutoff truncates no joint row, the second's does
    "pel.fock._product_plan": lambda m: m._product_plan(
        (FockBasis(1, 3), FockBasis(2, 2), FockBasis(1, 3)), FockBasis(4, 3)
    ),
    "pel.fock._trace_plan": lambda m: m._trace_plan(FockBasis(4, 3), (0, 2), ((1, 1),)),
    "pel.interferometer.mesh_layout": lambda m: m.mesh_layout(4),
    "pel.interferometer._ladder_plan": lambda m: m._ladder_plan(FockBasis(3, 4)),
    "pel.interferometer._ryser_tables": lambda m: m._ryser_tables(3),
    "pel.nogo._engine": lambda m: m._engine(SearchSpace((0.3, 0.3))),
}


def _cached_functions():
    for info in pkgutil.iter_modules(pel.__path__):
        module = importlib.import_module(f"pel.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", module


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, _SchemeEngine):
        yield from _arrays(list(vars(value).values()))


def test_every_cached_table_of_pel_is_read_only():
    found = dict(_cached_functions())
    assert set(found) == set(_CALLS)
    for name, call in _CALLS.items():
        module = found[name]
        getattr(module, name.rsplit(".", 1)[1]).cache_clear()
        # cold and then from the cache
        for _ in range(2):
            tables = list(_arrays(call(module)))
            assert tables or name == "pel.interferometer.mesh_layout", name
            writable = [t.shape for t in tables if t.flags.writeable]
            assert writable == [], name
