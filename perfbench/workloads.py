"""Seeded job streams for the three workloads and the check of every output.

A job is a callable ``job(threads) -> (ops, payload, problems, best_x)``:
``ops`` is the work it completed (scheme evaluations on the search
workloads, one job on ``dense``), ``payload`` the emitted result document
(``None`` for library jobs), ``problems`` the output checks it failed and
``best_x`` the best X of an unconstrained search cell (``None`` for other
jobs: at the budgets used here the constrained cells' best X is bimodal,
either near 0 or near p_max, so it is checked but not averaged).  pel
only ever sees the specs and states built here; every expected value below
is computed by the benchmark itself, never read back from pel.

Library functions are looked up through their module at call time
(``channels.apply_loss``), so a traced run sees these calls too.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from pel import channels, cli, efficiency, fock, interferometer, nogo

#: every ISPS-plus-coherent restart costs 1 + passes * coords * golden evals
_REFINE_PASSES = 2
_GOLDEN_EVALS = 12
BOUND_SLACK = 1e-6


def restart_cost(modes: int, num_coherent: int) -> int:
    coords = modes * (modes - 1) + 2 * num_coherent
    return 1 + _REFINE_PASSES * coords * _GOLDEN_EVALS


@dataclass(frozen=True)
class Cell:
    """One no-go search cell: source efficiencies, regime and restarts."""

    efficiencies: tuple
    constraint: float | None
    restarts: int
    num_coherent: int = 1
    #: None keeps pel's defaults (cutoff from the amplitude cap, min_herald 1e-5)
    cutoff: int | None = None
    min_herald: float | None = None

    @property
    def modes(self) -> int:
        return len(self.efficiencies) + self.num_coherent

    @property
    def budget(self) -> int:
        return self.restarts * restart_cost(self.modes, self.num_coherent)

    @property
    def bound(self) -> float:
        p_max = max(self.efficiencies)
        return p_max if self.constraint is not None else max(p_max, 0.5)

    def _options(self) -> dict:
        options = {"cutoff": self.cutoff, "min_herald": self.min_herald}
        return {k: v for k, v in options.items() if v is not None}

    def spec(self, seed: int) -> dict:
        return {
            "command": "nogo-search",
            "seed": seed,
            "search": {
                "source_efficiencies": list(self.efficiencies),
                "num_coherent": self.num_coherent,
                "constraint": self.constraint,
                "budget": self.budget,
                **self._options(),
            },
        }

    def space(self) -> nogo.SearchSpace:
        return nogo.SearchSpace(
            self.efficiencies, num_coherent=self.num_coherent,
            constraint=self.constraint, **self._options(),
        )


#: 2 ISPS + 1 coherent (3 modes, cutoff 16): the acceptance grid p_max 0.2 and
#: 0.6 in both regimes, plus the criterion-6 cell
SEARCH_3M = (
    Cell((0.2, 0.2), None, 2),
    Cell((0.6, 0.6), None, 2),
    Cell((0.2, 0.2), 1e-9, 2),
    Cell((0.6, 0.6), 1e-9, 2),
    Cell((0.3, 0.3), None, 2),
)

#: 3 ISPS + 1 coherent (4 modes, cutoff 17): p_max 0.4 and 0.8, both regimes
SEARCH_4M = (
    Cell((0.4, 0.4, 0.32), None, 2),
    Cell((0.8, 0.8, 0.64), None, 2),
    Cell((0.4, 0.4, 0.32), 1e-9, 2),
    Cell((0.8, 0.8, 0.64), 1e-9, 2),
)


def check_search(cell: Cell, document: dict, code: int) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    (report,) = document["reports"]
    if not report["best_X"] <= cell.bound + BOUND_SLACK:
        problems.append(f"best_X {report['best_X']!r} above bound {cell.bound}")
    if report["violated"]:
        problems.append("violated flag set")
    if report["bound"] != cell.bound:
        problems.append(f"bound {report['bound']!r}, expected {cell.bound}")
    if report["evaluations"] != cell.budget:
        problems.append(
            f"evaluations {report['evaluations']}, expected "
            f"{cell.restarts} x {restart_cost(cell.modes, cell.num_coherent)}"
        )
    if (cell.constraint is not None and report["best_pattern"]
            and report["multiphoton_weight"] > cell.constraint):
        problems.append(f"multiphoton weight {report['multiphoton_weight']!r}")
    return problems


def search_job(cell: Cell, seed: int, *, count_evaluations: bool = True):
    spec = cell.spec(seed)

    def job(threads):
        document, code = cli.run_spec(spec, threads=threads)
        payload = cli.emit(document)
        problems = check_search(cell, document, code)
        (report,) = document["reports"]
        ops = report["evaluations"] if count_evaluations else 1
        best = report["best_X"] if cell.constraint is None else None
        return ops, payload, problems, best

    job.kind = "search"
    return job


def search_stream(cells, seed: int):
    """Endless passes over the cells; every pass draws a fresh search seed."""
    rng = np.random.default_rng(seed)
    while True:
        pass_seed = int(rng.integers(2**31))
        for cell in cells:
            yield search_job(cell, pass_seed)


def warm_search(cells, seed: int) -> None:
    """Build each cell's engine (basis, permutation chain, pattern tables)
    through one ``evaluate_scheme``; a short ``maximize_X`` would not do,
    because any budget is rounded up to one whole restart."""
    rng = np.random.default_rng(seed)
    for cell in cells:
        space = cell.space()
        params = rng.uniform(-0.3, 0.3, size=space.parameter_count())
        nogo.evaluate_scheme(space, params, (0,) * (space.modes - 1))


# --- dense: the work off the search engine ----------------------------------

def _distribution(source: dict, levels: int) -> np.ndarray:
    """Photon-number distribution of a finite-photon source, padded."""
    out = np.zeros(levels)
    if source["kind"] == "fock":
        out[source["n"]] = 1.0
    else:
        out[0], out[1] = 1.0 - source["p"], source["p"]
    return out


def _finite_source(rng, room: int) -> tuple:
    """A random ISPS, Fock or partial-qubit source with at most ``room``
    photons, and its photon maximum."""
    if room < 1:
        return {"kind": "fock", "n": 0}, 0
    kind = int(rng.integers(3))
    if kind == 0:
        return {"kind": "isps", "p": float(rng.uniform(0.1, 0.9))}, 1
    if kind == 1:
        n = int(rng.integers(0, min(2, room) + 1))
        return {"kind": "fock", "n": n}, n
    p = float(rng.uniform(0.1, 0.9))
    q = rng.uniform(0.0, 0.95) * math.sqrt(p * (1.0 - p)) * cmath.exp(
        2j * math.pi * rng.random())
    return {"kind": "partial_qubit", "p": p, "q": [q.real, q.imag]}, 1


def _sources(rng, modes: int, cutoff: int) -> list:
    sources, room = [], cutoff
    for _ in range(modes):
        source, photons = _finite_source(rng, room)
        sources.append(source)
        room -= photons
    return sources


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def spec_job(spec: dict, check, kind: str):
    def job(threads):
        document, code = cli.run_spec(spec, threads=threads)
        payload = cli.emit(document)
        problems = [f"exit code {code}"] if code != 0 else []
        problems += check(document)
        return 1, payload, problems, None

    job.kind = kind
    return job


def library_job(fn, kind: str):
    def job(threads):
        return 1, None, fn(), None

    job.kind = kind
    return job


def efficiency_job(rng, index: int):
    """``pel efficiency`` on one source with a known answer: ISPS gives p,
    |2><2| gives 1, a partial qubit gives p / (1 - |q|^2 / p) and a coherent
    state is feasible at the probe floor (an unattained infimum)."""
    kind = ("isps", "fock", "partial_qubit", "coherent")[index % 4]
    if kind == "isps":
        p = float(rng.uniform(0.1, 0.9))
        source, expected, tol = {"kind": "isps", "p": p}, p, 1e-6
    elif kind == "fock":
        source, expected, tol = {"kind": "fock", "n": 2}, 1.0, 1e-6
    elif kind == "partial_qubit":
        p = float(rng.uniform(0.2, 0.9))
        q = rng.uniform(0.0, 0.95) * math.sqrt(p * (1.0 - p)) * cmath.exp(
            2j * math.pi * rng.random())
        source = {"kind": "partial_qubit", "p": p, "q": [q.real, q.imag]}
        expected, tol = p / (1.0 - abs(q) ** 2 / p), 1e-5
    else:
        alpha = rng.uniform(0.2, 0.8) * cmath.exp(2j * math.pi * rng.random())
        source = {"kind": "coherent", "alpha": [alpha.real, alpha.imag]}
        expected, tol = None, None

    def check(document):
        if expected is None:
            ok = not document["attained"] and document["value"] <= 1e-3 + 1e-6
            return [] if ok else [f"coherent: {document['value']!r} attained"]
        if abs(document["value"] - expected) > tol or not document["attained"]:
            return [f"{kind}: E={document['value']!r}, expected {expected!r}"]
        return []

    return spec_job({"command": "efficiency", "sources": [source]}, check,
                    "efficiency")


def simulate_unheralded_job(rng, index: int):
    """Haar interferometer on 2-4 finite-photon sources: the total photon
    distribution must equal the convolution of the inputs' distributions."""
    cutoff = 6
    modes = 2 + index % 3
    sources = _sources(rng, modes, cutoff)
    spec = {
        "command": "simulate",
        "sources": sources,
        "interferometer": {"haar": {"seed": int(rng.integers(2**31))}},
    }
    expected = np.ones(1)
    for source in sources:
        expected = np.convolve(expected, _distribution(source, cutoff + 1))
    expected = expected[: cutoff + 1]

    def check(document):
        problems = []
        if not _close(document["total_photon_distribution"], expected, 1e-10):
            problems.append("total photon distribution not conserved")
        for entry in document["per_mode"]:
            spp, multi = entry["single_photon_probability"], entry["multiphoton_weight"]
            if not (-1e-12 <= spp <= 1 + 1e-12 and -1e-12 <= multi <= 1 + 1e-12):
                problems.append(f"mode {entry['mode']}: X={spp!r}, multi={multi!r}")
        return problems

    return spec_job(spec, check, "simulate")


def simulate_heralded_job(rng, index: int):
    """A permutation-with-phases interferometer, some modes counted, some
    discarded (``null``), one or two modes surviving: herald probability and
    the surviving mode-0 marginal have closed forms."""
    cutoff = 6
    modes = 2 + index % 3
    sources = _sources(rng, modes, cutoff)
    perm = rng.permutation(modes)
    phases = rng.uniform(-math.pi, math.pi, size=modes)
    matrix = [[[0.0, 0.0] for _ in range(modes)] for _ in range(modes)]
    for k in range(modes):
        matrix[perm[k]][k] = [math.cos(phases[k]), math.sin(phases[k])]
    source_at = {int(perm[k]): k for k in range(modes)}
    survivors = 2 if modes >= 3 and rng.random() < 0.5 else 1
    detect, herald = {}, 1.0
    for j in range(survivors, modes):
        dist = _distribution(sources[source_at[j]], cutoff + 1)
        if j > survivors and rng.random() < 0.3:
            detect[str(j)] = None
            continue
        count = int(rng.choice(np.flatnonzero(dist >= 0.05)))
        detect[str(j)] = count
        herald *= dist[count]
    survivor = _distribution(sources[source_at[0]], cutoff + 1)
    spec = {
        "command": "simulate",
        "sources": sources,
        "interferometer": {"matrix": matrix},
        "measurement": {"detect": detect},
    }

    def check(document):
        problems = []
        if abs(document["herald_probability"] - herald) > 1e-10:
            problems.append(f"herald {document['herald_probability']!r}, expected {herald!r}")
        if not _close(document["survivor_diagonal"], survivor, 1e-10):
            problems.append("survivor diagonal differs from its source")
        if abs(document["single_photon_probability"] - survivor[1]) > 1e-10:
            problems.append("single-photon probability differs from its source")
        if abs(document["multiphoton_weight"] - survivor[2:].sum()) > 1e-10:
            problems.append("multiphoton weight differs from its source")
        return problems

    return spec_job(spec, check, "simulate")


def verify_job(rng, index: int):
    if index % 2 == 0:
        spec = {"command": "verify", "seed": int(rng.integers(2**31)),
                "verify": {"check": "commutation", "trials": 2}}

        def check(document):
            ok = (document["passed"] and document["max_deviation"] < 1e-9
                  and document["unequal_loss_deviation"] > 1e-3)
            return [] if ok else [f"commutation: {document['max_deviation']!r}"]
    else:
        spec = {"command": "verify", "seed": int(rng.integers(2**31)),
                "verify": {"check": "bernoulli", "trials": 20}}

        def check(document):
            return [] if document["all_passed"] else ["bernoulli check failed"]

    return spec_job(spec, check, "verify")


def random_density(rng, basis, support=None) -> fock.DensityMatrix:
    """Random trace-1 state with total photon number <= support."""
    support = basis.cutoff if support is None else support
    sel = np.flatnonzero(basis.totals <= support)
    a = rng.standard_normal((sel.size,) * 2) + 1j * rng.standard_normal((sel.size,) * 2)
    block = a @ a.conj().T
    block /= block.trace().real
    elements = np.zeros((basis.dimension,) * 2, dtype=complex)
    elements[np.ix_(sel, sel)] = block
    return fock.DensityMatrix(basis, elements)


def covariance_job(rng, index: int):
    """E(E_q(rho)) = q E(rho) on a random state of support 2-4."""
    rho = random_density(rng, fock.FockBasis(1, 8), 2 + index % 3)
    q = (0.5, 0.8)[index % 2]
    tol_bisect = 1e-7

    def run():
        base = efficiency.generalized_efficiency(rho, tol_bisect).value
        lossy = channels.apply_loss(rho, channels.LossChannel(q))
        scaled = efficiency.generalized_efficiency(lossy, tol_bisect).value
        gap = abs(scaled - q * base)
        return [] if gap <= 2 * tol_bisect else [f"loss covariance gap {gap:.3e}"]

    return library_job(run, "covariance")


def lindblad_job(rng, index: int):
    """Kraus map against the master-equation oracle."""
    rho = random_density(rng, fock.FockBasis(1, 4))
    p = (0.6, 0.8)[index % 2]

    def run():
        kraus = channels.apply_loss(rho, channels.LossChannel(p))
        params = channels.LindbladParams.for_transmissivity(p, rho.basis.cutoff)
        lind = channels.apply_loss_lindblad(rho, params)
        gap = float(np.abs(kraus.elements - lind.elements).max())
        return [] if gap < 1e-7 else [f"kraus vs lindblad {gap:.3e}"]

    return library_job(run, "lindblad")


def invert_job(rng):
    """invert_loss undoes apply_loss on a support-6 state."""
    rho = random_density(rng, fock.FockBasis(1, 8), 6)
    q = float(rng.uniform(0.35, 0.95))

    def run():
        channel = channels.LossChannel(q)
        back = channels.invert_loss(channels.apply_loss(rho, channel), channel)
        gap = float(np.abs(back - rho.elements).max())
        return [] if gap < 1e-9 else [f"invert round trip {gap:.3e}"]

    return library_job(run, "invert")


def lift_job(rng, index: int):
    """The permanent formula against the mesh composition of the Fock lift."""
    modes = 2 + index % 2
    u = interferometer.haar_random(modes, rng)
    basis = fock.FockBasis(modes, 3)

    def run():
        slow = interferometer.lift(u, basis, "permanent")
        fast = interferometer.lift(u, basis, "mesh")
        gap = max(float(np.abs(a - b).max()) for a, b in zip(slow.blocks, fast.blocks))
        return [] if gap < 1e-9 else [f"permanent vs mesh lift {gap:.3e}"]

    return library_job(run, "lift")


#: the criterion-9 cell: the CLI's search at a small cutoff, so that dense
#: runs every command; one restart, one job in 33
DENSE_SEARCH = Cell((0.6, 0.4), None, 1, cutoff=9, min_herald=1e-3)

_HALF_ROUND = (
    "efficiency", "simulate_heralded", "invert", "efficiency", "simulate",
    "covariance", "lift", "verify", "efficiency", "simulate_heralded",
    "invert", "simulate", "lindblad", "efficiency", "verify", "covariance",
)

#: one round of the dense stream, in order.  It fixes the job mix, and the
#: job index (not the seed) picks mode counts, supports and transmissivities,
#: so a round costs the same whatever the seed; the seed picks the states,
#: unitaries, counts and search seeds
DENSE_ROUND = _HALF_ROUND + ("search",) + _HALF_ROUND


def dense_stream(seed: int):
    rng = np.random.default_rng(seed)
    makers = {
        "efficiency": lambda i: efficiency_job(rng, i),
        "simulate": lambda i: simulate_unheralded_job(rng, i),
        "simulate_heralded": lambda i: simulate_heralded_job(rng, i),
        "verify": lambda i: verify_job(rng, i),
        "covariance": lambda i: covariance_job(rng, i),
        "lindblad": lambda i: lindblad_job(rng, i),
        "invert": lambda i: invert_job(rng),
        "lift": lambda i: lift_job(rng, i),
        "search": lambda i: search_job(
            DENSE_SEARCH, int(rng.integers(2**31)), count_evaluations=False),
    }
    counters = dict.fromkeys(makers, 0)
    for name in itertools.cycle(DENSE_ROUND):
        yield makers[name](counters[name])
        counters[name] += 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: jobs per round: throughput is the median over rounds
    round_jobs: int
    #: the first this many jobs give best_x, so it is fixed by the seed
    quality_jobs: int
    #: jobs in each pass of a traced run, so its counts are fixed by the seed
    trace_jobs: int
    cells: tuple = ()

    def stream(self, seed: int):
        if self.cells:
            return search_stream(self.cells, seed)
        return dense_stream(seed)

    def warm_up(self, seed: int) -> None:
        """The set-up a user pays once per process before the first result:
        each search shape's engine, or the first ``run_spec`` on dense."""
        if self.cells:
            warm_search(self.cells, seed)
        else:
            next(self.stream(seed))(1)


WORKLOADS = {
    "search-3m": Workload("search-3m", 1, 8 * len(SEARCH_3M), 4 * len(SEARCH_3M),
                          SEARCH_3M),
    "search-4m": Workload("search-4m", 1, len(SEARCH_4M), len(SEARCH_4M), SEARCH_4M),
    "dense": Workload("dense", len(DENSE_ROUND), 8 * len(DENSE_ROUND),
                      5 * len(DENSE_ROUND)),
}
