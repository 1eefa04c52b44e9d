"""Interleaved A/B timing of pel's no-go search in two checkouts.

Copies ``src/pel`` of a parent checkout and of this one into a temporary
directory, as the packages ``pel_parent`` and ``pel_change``, and imports
both into one process with BLAS on one thread.  It first runs
``maximize_X`` on every cell of a perfbench search workload (``SEARCH_3M``
or ``SEARCH_4M`` of ``perfbench/workloads.py``) at seeds 11-13 on each side
and refuses to time them unless the joined ``repr`` of the reports has the
same SHA-256 on both: the harness compares changes that keep every bit.
That pass also builds the engines.  Then it times rounds of the same
searches: each round runs all of them once per side, the parent first in
even rounds and the change first in odd ones, and each side's time is the
process CPU time of its share.  Interleaving in one process takes the host's
drift out of the comparison, which separate benchmark runs do not.

It prints each side's median round time with its quartiles, the median of
the per-round ratios change / parent, and the rounds in which the change
took less time.  Run from the root of a checkout:

    python3 tools/search_ab.py PARENT [--workload search-3m] [--rounds 40]

PARENT is the root of another checkout of pel, for instance one made by
``git clone`` or ``git archive REV | tar -x -C PARENT``.  Neither checkout
is modified.
"""

import argparse
import hashlib
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

# BLAS on one thread, as perfbench runs it; set before numpy loads
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (found through the path set above)

CELLS = {"search-3m": workloads.SEARCH_3M, "search-4m": workloads.SEARCH_4M}
SEEDS = (11, 12, 13)


def load(checkout, name, into):
    """``src/pel`` of ``checkout`` copied to ``into`` and imported as
    ``name``; pel imports its own modules relatively, so the copy runs."""
    shutil.copytree(os.path.join(checkout, "src", "pel"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def searches(package, cells):
    """The workload's searches on one side, as (maximize_X, space, budget,
    seed) in cell-major order."""
    nogo = package.nogo
    return [
        (nogo.maximize_X,
         nogo.SearchSpace(cell.efficiencies, num_coherent=cell.num_coherent,
                          constraint=cell.constraint, **cell._options()),
         cell.budget, seed)
        for cell in cells for seed in SEEDS
    ]


def digest(side):
    """SHA-256 prefix of the joined ``repr`` of the side's reports."""
    text = "".join(repr(search(space, budget, seed)) for search, space, budget, seed in side)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cpu_seconds(side):
    """Process CPU time of one pass over the side's searches."""
    start = time.process_time()
    for search, space, budget, seed in side:
        search(space, budget, seed)
    return time.process_time() - start


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4f} s [{q1:.4f}, {q3:.4f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("--workload", choices=sorted(CELLS), default="search-3m")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    cells = CELLS[args.workload]
    with tempfile.TemporaryDirectory() as into:
        sys.path.insert(0, into)
        sides = {"parent": searches(load(args.parent, "pel_parent", into), cells),
                 "change": searches(load(ROOT, "pel_change", into), cells)}
        digests = {name: digest(side) for name, side in sides.items()}
        if digests["parent"] != digests["change"]:
            print(f"reports differ: {digests}", file=sys.stderr)
            return 1
        times = {name: [] for name in sides}
        for round_no in range(args.rounds):
            for name in sides if round_no % 2 == 0 else reversed(sides):
                times[name].append(cpu_seconds(sides[name]))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"{args.workload}: {len(sides['parent'])} searches per side and round, "
          f"reports {digests['parent']} on both sides")
    for name, values in times.items():
        print(f"{name} CPU s per round, median [quartiles]: {quartiles(values)}")
    print(f"change / parent: median round ratio {statistics.median(ratios):.4f}, "
          f"change faster in {wins}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
