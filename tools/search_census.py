"""Function-level census of pel's no-go search on the perfbench search cells.

Runs ``nogo.maximize_X`` on every cell of a perfbench search workload
(``SEARCH_3M`` or ``SEARCH_4M`` of ``perfbench/workloads.py``) at fixed
seeds, with BLAS on one thread, and prints for each stage of the search its
call count, its own time per call in microseconds (time in the stage less
the time in the stages it calls) and its share of the searches' wall time:

* ``line setup``: ``_line_scores`` itself, which sets up a golden-section
  line (its mesh samples are counted under ``propagate``);
* ``probe rebuild``: the scorer a line returns, less ``tabulate`` and the
  scorers it calls: the line's rebuild of the mesh output or of the
  amplitudes at each probe, and the gather of its displacement amplitudes;
* ``tabulate``, ``propagate``, ``_probe_scores``, ``_scores`` and
  ``_ratios``;
* ``_objective``: the start point and the final scores, less the above;
* ``golden section``: ``_golden_max`` less the line calls, that is the
  bracket bookkeeping of ``_golden_row`` on Python floats;
* ``rest``: everything else inside ``maximize_X``.

The stages are timed by wrapping pel's module functions and engine methods
from outside, so nothing in ``src/pel`` is changed; each wrapped call costs
about a microsecond more, which the shares include.  The engines are built
before the clock starts.  Run from the root of a checkout (a few seconds):

    python3 tools/search_census.py [--workload search-3m] [--seeds 11 12 13]
                                   [--passes 1]

pel is imported from ``src/`` and ``perfbench/workloads.py`` from
``perfbench/``; neither is modified.
"""

import argparse
import os
import sys
import time
from collections import Counter

# BLAS on one thread, as perfbench runs it; set before numpy loads
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (found through the path set above)
from pel import nogo  # noqa: E402

CELLS = {"search-3m": workloads.SEARCH_3M, "search-4m": workloads.SEARCH_4M}
#: stages in print order; the line scorer is wrapped by ``_line_scores``'s
#: wrapper under ``probe rebuild``
MODULE_STAGES = {
    "_line_scores": "line setup",
    "_probe_scores": "_probe_scores",
    "_scores": "_scores",
    "_ratios": "_ratios",
    "_objective": "_objective",
    "_golden_max": "golden section",
}
ENGINE_STAGES = {"tabulate": "tabulate", "propagate": "propagate"}
ORDER = ("line setup", "probe rebuild", "tabulate", "propagate", "_probe_scores",
         "_scores", "_ratios", "_objective", "golden section")


class Census:
    """Call counts and own times of wrapped functions: a wrapped call's own
    time is its wall time less that of the wrapped calls it makes."""

    def __init__(self):
        self.calls = Counter()
        self.own_ns = Counter()
        self._children = [0]

    def wrap(self, label, fn):
        def timed(*args, **kwargs):
            self._children.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.own_ns[label] += elapsed - self._children.pop()
                self.calls[label] += 1
                self._children[-1] += elapsed
            return result

        return timed


def install(census):
    """Wrap the stages; returns a function that puts the originals back."""
    saved = [(nogo, name, getattr(nogo, name)) for name in MODULE_STAGES]
    saved += [(nogo._SchemeEngine, name, getattr(nogo._SchemeEngine, name))
              for name in ENGINE_STAGES]
    for name, label in MODULE_STAGES.items():
        setattr(nogo, name, census.wrap(label, getattr(nogo, name)))
    for name, label in ENGINE_STAGES.items():
        setattr(nogo._SchemeEngine, name,
                census.wrap(label, getattr(nogo._SchemeEngine, name)))
    line_setup = nogo._line_scores

    def line_scores(space, params, coord):
        return census.wrap("probe rebuild", line_setup(space, params, coord))

    nogo._line_scores = line_scores

    def restore():
        for owner, name, original in saved:
            setattr(owner, name, original)

    return restore


def run(cells, seeds, passes):
    """The census of ``passes`` rounds of every cell at every seed, and the
    total wall time of the searches in ns."""
    workloads.warm_search(cells, 0)
    census = Census()
    restore = install(census)
    total = 0
    try:
        for _ in range(passes):
            for cell in cells:
                space = cell.space()
                for seed in seeds:
                    start = time.perf_counter_ns()
                    nogo.maximize_X(space, cell.budget, seed)
                    total += time.perf_counter_ns() - start
    finally:
        restore()
    return census, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CELLS), default="search-3m")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    cells = CELLS[args.workload]
    census, total = run(cells, args.seeds, args.passes)
    searches = args.passes * len(cells) * len(args.seeds)
    print(f"{args.workload}: {searches} searches, {total / 1e6:.1f} ms")
    print(f"{'stage':<16}{'calls':>8}{'us/call':>10}{'share':>8}")
    rest = total - sum(census.own_ns.values())
    for label in ORDER:
        calls, own = census.calls[label], census.own_ns[label]
        per_call = own / calls / 1e3 if calls else 0.0
        print(f"{label:<16}{calls:>8}{per_call:>10.1f}{own / total:>8.1%}")
    print(f"{'rest':<16}{'':>8}{'':>10}{rest / total:>8.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
