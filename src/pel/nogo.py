"""Stress tests of the no-go bounds on heralded single-photon enhancement.

``maximize_X`` searches over interferometer settings, coherent-ancilla
amplitudes and heralding outcomes for the largest single-photon probability X
in the surviving mode.  The relevant ceiling is the best source efficiency
p_max when multiphoton output components are forbidden, and max(p_max, 1/2)
when they are allowed; a search result above the ceiling (plus float slack)
sets the ``violated`` flag, which should never happen.  The optimizer
(random restarts refined by coordinate-wise golden sections) is a probe, not
a proof: it can only ever demonstrate tightness, never validity.

Every restart follows the same fixed schedule of evaluations, so restarts
run in lockstep blocks of ``_LOCKSTEP``: a block advances together, one
parameter row per restart, through one batched evaluation of the mesh, the
displacement tables and the objective.  Rows never mix, so a restart's result
depends on (space, seed, restart) alone, not on its block or the thread
count.

``verify_commutation`` checks the enabling lemma directly: equal loss on all
modes commutes with any interferometer.  With unequal loss it does not, and
``unequal_loss_counterexample`` shows the test has the power to notice.

Scheme evaluation never builds the joint Fock space of sources and ancillas.
A coherent ancilla is a displaced vacuum, so each of the 2^S source branches
leaves the mesh as D(U alpha) V|f_b>, with V|f_b> on the S-photon basis, and
the outcome amplitudes factor per mode into displaced-number elements.
Herald probability, one-photon and multiphoton weight are therefore exact
for every heralding pattern evaluated.

One rule truncates the patterns.  The mesh conserves photon number, so a
pattern d heralds with probability at most P(N >= |d|), where N is the total
input photon number: the sources' Poisson-binomial count plus a Poisson
count of mean sum |alpha_j|^2 <= num_coherent * amplitude_cap^2.  The engine
enumerates every pattern up to the largest total whose bound still reaches
``min_herald`` less a 1e-12 rounding margin, and at least the 1e-12 herald
floor (``_rank_total``); no pattern above it can ever be eligible.  An
explicit cutoff only caps this total.  ``truncation_weight`` is the herald
mass outside the enumerated patterns, 1 - sum of their herald
probabilities.  ``evaluate_scheme`` computes a pattern above the total as
its own column.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channels import LossChannel, apply_loss
from .config import DEFAULT, Tolerances
from .errors import ArityError, ContractViolation, HeraldImpossibleError
from .fock import (
    Coherent,
    DensityMatrix,
    FockBasis,
    Isps,
    coherent_tail_weight,
    displaced_number_elements,
    make_state,
    tensor_all,
    trace_distance,
)
from .interferometer import (
    apply_mesh_to_vectors,
    haar_random,
    lift,
    mesh_param_count,
)

#: float slack separating genuine bound violations from rounding noise
BOUND_SLACK = 1e-6


#: absolute margin between the rank bound and min_herald, so that rounding in
#: a computed herald can never lift a pruned pattern over the threshold
_RANK_MARGIN = 1e-12


def _rank_total(space) -> int:
    """Largest detected photon total n at which P(N >= n), the module
    docstring's bound on a pattern's herald, still reaches min_herald less
    ``_RANK_MARGIN``, and at least the herald floor; an explicit cutoff caps
    it.  The Poisson part of N takes its largest mean, every ancilla at the
    amplitude cap."""
    threshold = max(space.min_herald - _RANK_MARGIN, DEFAULT.herald_floor)
    counts = np.array([1.0])
    for p in space.source_efficiencies:
        counts = np.convolve(counts, [1.0 - p, p])
    # the engine admits |alpha| up to amplitude_cap * (1 + 1e-9)
    amplitude = math.sqrt(space.num_coherent) * space.amplitude_cap * (1.0 + 1e-9)

    def reaches(n):
        return math.fsum(
            weight * (coherent_tail_weight(amplitude, n - k - 1) if n > k else 1.0)
            for k, weight in enumerate(counts)
        ) >= threshold

    # the bound falls with n: bracket the last total that reaches the
    # threshold by doubling, then bisect, so that large caps cost a few dozen
    # tail sums
    reached, short = 0, 1
    while reaches(short):
        reached, short = short, 2 * short
    while short - reached > 1:
        middle = (reached + short) // 2
        if reaches(middle):
            reached = middle
        else:
            short = middle
    return reached if space.cutoff is None else min(reached, space.cutoff)


@dataclass(frozen=True)
class SearchSpace:
    """Scheme family searched over: ISPS sources, coherent ancillas, a full
    rectangular mesh, and photon-count heralding on all modes but mode 0."""

    source_efficiencies: tuple
    num_coherent: int = 1
    #: cap on the detected photon total of the enumerated patterns; the
    #: total used is the rank bound of ``_rank_total`` below this cap
    cutoff: int | None = None
    #: coherent amplitudes are confined to |alpha| <= amplitude_cap
    amplitude_cap: float = 1.0
    #: multiphoton-weight threshold for the constrained regime; None = unconstrained
    constraint: float | None = None
    #: heralding outcomes below this probability are not ranked, and patterns
    #: whose photon total bounds their herald below it are not enumerated
    #: (see ``_rank_total``)
    min_herald: float = 1e-5
    #: per-evaluation cap on ranked heralding outcomes
    max_patterns: int = 200
    #: explicit outcomes to scan (counts per detected mode); None = all
    patterns: tuple | None = None

    def __post_init__(self):
        eff = tuple(float(p) for p in self.source_efficiencies)
        if not eff:
            raise ContractViolation("at least one source is required")
        if not all(0.0 <= p <= 1.0 for p in eff):
            raise ContractViolation(f"source efficiencies {eff} outside [0, 1]")
        object.__setattr__(self, "source_efficiencies", eff)
        if self.num_coherent < 0:
            raise ContractViolation("num_coherent must be >= 0")
        if self.modes < 2:
            raise ContractViolation(
                "the scheme needs at least two modes (one surviving, one detected)"
            )
        if not 0.0 < self.amplitude_cap < math.inf:
            raise ContractViolation(
                f"amplitude_cap must be positive and finite, got {self.amplitude_cap!r}"
            )
        if not 0.0 <= self.min_herald <= 1.0:
            raise ContractViolation(
                f"min_herald must lie in [0, 1], got {self.min_herald!r}"
            )
        if self.constraint is not None and not 0.0 <= self.constraint < math.inf:
            raise ContractViolation(
                f"constraint must be None or nonnegative and finite, "
                f"got {self.constraint!r}"
            )
        if not (self.max_patterns >= 1 and float(self.max_patterns).is_integer()):
            raise ContractViolation(
                f"max_patterns must be a positive integer, got {self.max_patterns!r}"
            )
        object.__setattr__(self, "max_patterns", int(self.max_patterns))
        if self.patterns is not None:
            cleaned = tuple(
                tuple(int(v) for v in pattern) for pattern in self.patterns
            )
            if not cleaned:
                raise ContractViolation("patterns, when given, must be nonempty")
            if any(len(p) != self.modes - 1 or min(p) < 0 for p in cleaned):
                raise ContractViolation(
                    f"each pattern needs {self.modes - 1} nonnegative counts"
                )
            object.__setattr__(self, "patterns", cleaned)

    @property
    def num_sources(self) -> int:
        return len(self.source_efficiencies)

    @property
    def modes(self) -> int:
        return self.num_sources + self.num_coherent

    @property
    def p_max(self) -> float:
        return max(self.source_efficiencies)

    @property
    def cutoff_used(self) -> int:
        """Largest detected photon total of the enumerated patterns."""
        return _rank_total(self)

    @property
    def bound(self) -> float:
        """The applicable theoretical ceiling on X."""
        if self.constraint is not None:
            return self.p_max
        return max(self.p_max, 0.5)

    def parameter_count(self) -> int:
        return mesh_param_count(self.modes) + 2 * self.num_coherent


@dataclass(frozen=True)
class SearchReport:
    """Best scheme found by ``maximize_X``.

    ``best_pattern == ()`` means that no heralding pattern was ranked at the
    best parameters: none was eligible, or none met the multiphoton
    constraint.  X, herald probability and multiphoton weight then read 0.
    ``cutoff_used`` is the largest detected photon total enumerated, and
    ``truncation_weight`` the herald mass outside the enumerated patterns at
    ``best_params`` either way; without an explicit cutoff it is at most
    P(N > cutoff_used) < max(min_herald, 1e-12).
    """

    best_X: float
    best_params: tuple
    best_pattern: tuple
    herald_probability: float
    multiphoton_weight: float
    bound: float
    violated: bool
    evaluations: int
    cutoff_used: int
    truncation_weight: float


class _SchemeEngine:
    """Index tables for evaluating schemes of one SearchSpace on the S-photon
    basis.

    A coherent ancilla is a displaced vacuum and U D(alpha) = D(U alpha) V,
    so the output of source branch b (the Fock state |f_b> of the fired
    sources) is D(beta) V|f_b> with beta = U[:, S:] alpha.  V|f_b> lives on
    FockBasis(M, S), and the amplitude of outcome (m_0, d) factors per mode
    into displaced-number elements:

        c_b(k_0, d) = sum_{k'} psi_b(k_0, k') G[k', d],
        G[k', d] = prod_{j >= 1} <d_j|D(beta_j)|k'_j>,

    summed over the detected part k' of each basis state (k_0, k').  D(beta_0)
    is unitary, so the herald probability sum_b w_b sum_{k_0} |c_b(k_0, d)|^2
    is exact; the surviving mode's m_0 = 0 and m_0 = 1 terms contract
    c_b(., d) with <m_0|D(beta_0)|k_0>.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        S, M, cutoff = space.num_sources, space.modes, space.cutoff_used
        self.basis = FockBasis(M, S)
        detected = FockBasis(M - 1, S)
        # every pattern up to the rank bound, and the requested ones, which
        # are computed exactly whatever their total
        listed = FockBasis(M - 1, cutoff).occupations
        if space.patterns is not None:
            listed = np.vstack([listed, space.patterns])
        self.patterns = np.unique(listed, axis=0)
        self.pattern_index = {tuple(int(v) for v in row): i
                              for i, row in enumerate(self.patterns)}
        # the search scans the patterns within the bound, the requested ones only
        self.scan_mask = self.patterns.sum(axis=1) <= cutoff
        if space.patterns is not None:
            requested = set(space.patterns)
            self.scan_mask &= [row in requested for row in self.pattern_index]
        self.mesh_len = mesh_param_count(M)

        branches = list(itertools.product((0, 1), repeat=S))
        self.branch_weights = np.array([
            math.prod(p if bit else 1.0 - p
                      for bit, p in zip(fired, space.source_efficiencies))
            for fired in branches
        ])
        B = len(branches)
        self.num_branches = B
        # mesh inputs: the branch Fock states, then one photon in each coherent
        # mode, whose images give U[:, S:] on the one-photon rows
        unit = np.eye(M, dtype=np.int64)
        self.inputs = np.zeros((self.basis.dimension, B + space.num_coherent),
                               dtype=complex)
        for b, fired in enumerate(branches):
            self.inputs[self.basis.index_of(fired + (0,) * space.num_coherent), b] = 1.0
        for j in range(space.num_coherent):
            self.inputs[self.basis.index_of(unit[S + j]), B + j] = 1.0
        self.one_photon_rows = np.array([self.basis.index_of(row) for row in unit])

        # G[k', d] multiplies one element <d_j|D(beta_j)|k'_j> per detected
        # mode j of the (M, max_count + 1, S + 1) displacement tables of one
        # parameter row.  With those tables transposed, one gather takes
        # entry d_j of every (j, k) row for each pattern, and a second picks
        # row (j, k'_j) for each detected state.  The survivor's table needs
        # rows m_0 = 0 and 1 even at cutoff 0
        self.max_count = max(int(self.patterns.max()), 1)
        row_start = np.arange((M - 1) * (S + 1))[:, None] * (self.max_count + 1)
        self.row_index = row_start + np.repeat(self.patterns.T, S + 1, axis=0)
        self.column_index = np.arange(M - 1)[:, None] * (S + 1) + detected.occupations.T

        # psi_b(k_0, k') for every branch, k_0-major.  At a given k_0 the basis
        # holds exactly the detected parts with |k'| <= S - k_0, a prefix of
        # the graded detected basis; slots past the prefix are never read
        self.prefix = [detected.block(S - k0).stop for k0 in range(S + 1)]
        self.psi_index = np.zeros((S + 1, B, detected.dimension), dtype=np.int64)
        stride = self.inputs.shape[1]
        for k0 in range(S + 1):
            for i, row in enumerate(detected.occupations[: self.prefix[k0]]):
                state = self.basis.index_of((k0,) + tuple(row))
                self.psi_index[k0, :, i] = state * stride + np.arange(B)

    def split_params(self, params):
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != self.space.parameter_count():
            raise ArityError(
                f"scheme expects rows of {self.space.parameter_count()} parameters "
                f"({self.mesh_len} mesh + {2 * self.space.num_coherent} amplitude), "
                f"got shape {params.shape}"
            )
        mesh = params[:, : self.mesh_len]
        amp = params[:, self.mesh_len:]
        alphas = amp[:, 0::2] + 1j * amp[:, 1::2]
        return mesh, alphas

    def outcome_table(self, params):
        """Per-pattern herald probability, one-photon weight and multiphoton
        weight (unnormalized), each (R, patterns), and the herald mass outside
        the patterns, (R,), for an (R, parameters) array.  Each row's result
        is the same whatever R is."""
        mesh, alphas = self.split_params(params)
        size = np.abs(alphas)
        if np.any(size > self.space.amplitude_cap * (1.0 + 1e-9)):
            raise ContractViolation(
                f"|alpha| = {size.max():.4g} exceeds the amplitude cap "
                f"{self.space.amplitude_cap}"
            )
        rows, B = mesh.shape[0], self.num_branches
        vectors = np.repeat(self.inputs[None], rows, axis=0)
        apply_mesh_to_vectors(vectors, mesh, self.space.modes, self.basis)
        betas = np.matmul(vectors[:, self.one_photon_rows, B:], alphas[:, :, None])
        tables = displaced_number_elements(
            betas[:, :, 0], self.max_count, self.space.num_sources
        )
        # take along axis 1 applies one index table to every parameter row
        rows_of_d = tables[:, 1:].swapaxes(2, 3).reshape(rows, -1).take(self.row_index, axis=1)
        g = rows_of_d.take(self.column_index, axis=1).prod(axis=1)
        psi = vectors.reshape(rows, -1).take(self.psi_index, axis=1)
        c = np.empty(psi.shape[:3] + g.shape[2:], dtype=complex)
        for k0, width in enumerate(self.prefix):
            np.matmul(psi[:, k0, :, :width], g[:, :width], out=c[:, k0])
        # the surviving mode's m_0 = 0 and 1 elements, summed over k_0
        amps = np.matmul(tables[:, 0, :2], c.reshape(rows, c.shape[1], -1))
        weights = self.branch_weights
        herald = weights @ _squared_magnitude(c, axis=1)
        vacuum_one = weights @ _squared_magnitude(amps).reshape(rows, 2, B, -1)
        one = vacuum_one[:, 1]
        multi = np.maximum(herald - vacuum_one[:, 0] - one, 0.0)
        return herald, one, multi, np.maximum(0.0, 1.0 - herald.sum(axis=1))


def _squared_magnitude(values, axis=None):
    """|values|^2, summed over ``axis`` when given.  Squares the real and
    imaginary parts in the memory of ``values``, which it overwrites."""
    parts = values.view(np.float64)
    np.multiply(parts, parts, out=parts)
    if axis is not None:
        parts = parts.sum(axis=axis)
    return parts[..., ::2] + parts[..., 1::2]


@lru_cache(maxsize=32)
def _engine(space: SearchSpace) -> _SchemeEngine:
    return _SchemeEngine(space)


def evaluate_scheme(space: SearchSpace, params, pattern):
    """Single-photon probability X, herald probability, and multiphoton weight
    of the surviving mode for one parameter vector and heralding outcome.
    A pattern above the enumerated totals is computed as its own column."""
    engine = _engine(space)
    pattern = tuple(int(v) for v in pattern)
    if len(pattern) != space.modes - 1:
        raise ContractViolation(
            f"pattern must give counts for the {space.modes - 1} detected modes"
        )
    if pattern not in engine.pattern_index:
        engine = _engine(replace(space, patterns=(pattern,)))
    herald, one, multi, _ = engine.outcome_table(np.asarray(params, dtype=float)[None])
    index = engine.pattern_index[pattern]
    prob = float(herald[0, index])
    if prob < DEFAULT.herald_floor:
        raise HeraldImpossibleError(
            f"outcome {pattern}: probability {prob:.3e} below the herald floor"
        )
    return float(one[0, index]) / prob, prob, float(multi[0, index]) / prob


def _objective(space: SearchSpace, params):
    """Search score and best pattern index of each row of an (R, parameters)
    array.  The score is the best X among the ranked patterns; with none
    ranked it is -2, or -1 minus the least multiphoton ratio when eligible
    patterns all break the constraint, and the pattern index is -1."""
    engine = _engine(space)
    herald, one, multi, _ = engine.outcome_table(params)
    eligible = (herald >= space.min_herald) & engine.scan_mask
    if engine.patterns.shape[0] > space.max_patterns:
        crowded = eligible.sum(axis=1) > space.max_patterns
        if crowded.any():
            # rank only the eligible patterns, the heaviest heralds first
            heaviest = np.where(eligible[crowded], -herald[crowded], np.inf)
            order = np.argsort(heaviest, axis=1, kind="stable")
            kept = np.zeros_like(heaviest, dtype=bool)
            np.put_along_axis(kept, order[:, : space.max_patterns], True, axis=1)
            eligible[crowded] &= kept
    x_ratio = one / np.maximum(herald, 1e-300)
    valid = eligible
    fallback = np.full(herald.shape[0], -2.0)
    if space.constraint is not None:
        multi_ratio = np.where(eligible, multi / np.maximum(herald, 1e-300), np.inf)
        valid = eligible & (multi_ratio <= space.constraint)
        # no feasible outcome: drive the least multiphoton weight down
        fallback = np.where(
            eligible.any(axis=1), -1.0 - multi_ratio.min(axis=1), fallback
        )
    x_ratio = np.where(valid, x_ratio, -1.0)
    best = np.argmax(x_ratio, axis=1)
    found = valid.any(axis=1)
    scores = np.where(found, x_ratio.max(axis=1), fallback)
    return scores, np.where(found, best, -1)


def _golden_max(fun, lo, hi, evals):
    """Deterministic golden-section maximization of each row: ``fun`` maps an
    array of abscissae to their values, ``lo`` and ``hi`` bound each row.
    Returns the best sampled x and its value per row."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    first = f1 >= f2
    best_x, best_f = np.where(first, x1, x2), np.where(first, f1, f2)
    for _ in range(evals - 2):
        # rows with f1 < f2 keep [x1, hi] and probe a new x2; the others keep
        # [lo, x2] and probe a new x1
        up = f1 < f2
        lo = np.where(up, x1, lo)
        hi = np.where(up, hi, x2)
        step = ratio * (hi - lo)
        x = np.where(up, lo + step, hi - step)
        f = fun(x)
        x1, f1, x2, f2 = (
            np.where(up, x2, x), np.where(up, f2, f),
            np.where(up, x, x1), np.where(up, f, f1),
        )
        better = f > best_f
        best_x, best_f = np.where(better, x, best_x), np.where(better, f, best_f)
    return best_x, best_f


_GOLDEN_EVALS = 12
_REFINE_PASSES = 2
#: restarts that advance together through one batched evaluation; larger
#: blocks amortize more per-call overhead until the 4-mode tables leave cache
_LOCKSTEP = 8


def _restart_cost(space: SearchSpace) -> int:
    n_rot = space.modes * (space.modes - 1) // 2
    refine = 2 * n_rot + 2 * space.num_coherent
    return 1 + _REFINE_PASSES * refine * _GOLDEN_EVALS


def _run_restarts(space: SearchSpace, seed: int, restarts):
    """Random starts plus coordinate refinement for the given restart
    indices, advanced in lockstep: every restart follows the same schedule
    of ``_restart_cost`` evaluations, one row each.  Returns one
    (score, pattern index or None, params, evaluations) per restart, each
    deterministic in (space, seed, restart) alone."""
    engine = _engine(space)
    n_rot = space.modes * (space.modes - 1) // 2
    amp_box = space.amplitude_cap / math.sqrt(2.0)
    amp_lo = engine.mesh_len
    params = np.zeros((len(restarts), space.parameter_count()))
    for row, restart in zip(params, restarts):
        rng = np.random.default_rng((seed, restart))
        row[: 2 * n_rot] = rng.uniform(-math.pi, math.pi, size=2 * n_rot)
        row[amp_lo:] = rng.uniform(-amp_box, amp_box, size=2 * space.num_coherent)

    evals = 0

    def score(trial):
        nonlocal evals
        evals += 1
        return _objective(space, trial)[0]

    best_score = score(params)
    refine_coords = list(range(2 * n_rot)) + list(
        range(amp_lo, amp_lo + 2 * space.num_coherent)
    )
    spans = {0: math.pi / 2.0, 1: math.pi / 8.0}
    for pass_no in range(_REFINE_PASSES):
        for coord in refine_coords:
            center = params[:, coord]
            if coord >= amp_lo:
                span = amp_box * (0.6 if pass_no == 0 else 0.15)
                lo = np.maximum(-amp_box, center - span)
                hi = np.minimum(amp_box, center + span)
            else:
                span = spans[pass_no]
                lo, hi = center - span, center + span

            def line(x, coord=coord):
                trial = params.copy()
                trial[:, coord] = x
                return score(trial)

            x_best, f_best = _golden_max(line, lo, hi, _GOLDEN_EVALS)
            better = f_best > best_score
            best_score = np.where(better, f_best, best_score)
            params[:, coord] = np.where(better, x_best, center)
    final_scores, final_patterns = _objective(space, params)
    return [
        (float(score_r), int(pattern_r) if pattern_r >= 0 else None, row, evals)
        for score_r, pattern_r, row in zip(final_scores, final_patterns, params)
    ]


def maximize_X(
    space: SearchSpace, budget: int, seed: int, *, threads: int = 1
) -> SearchReport:
    """Random-restart derivative-free search for the largest heralded X.

    Deterministic for fixed (space, budget, seed): every restart draws from
    its own (seed, restart)-keyed stream, runs in a block of ``_LOCKSTEP``
    restarts whose rows never mix, and the merge is an associative best-of,
    so neither the block size nor the thread count changes the result.
    """
    if budget < 1:
        raise ContractViolation("budget must be >= 1")
    engine = _engine(space)
    if not engine.scan_mask.any():
        raise ContractViolation(
            "none of the requested heralding patterns fits under the cutoff"
        )
    per_restart = _restart_cost(space)
    n_restarts = max(1, budget // per_restart)
    blocks = [range(start, min(start + _LOCKSTEP, n_restarts))
              for start in range(0, n_restarts, _LOCKSTEP)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(lambda b: _run_restarts(space, seed, b), blocks))
    else:
        done = [_run_restarts(space, seed, block) for block in blocks]
    results = [result for block in done for result in block]
    best_score, best_pattern, best_params, _ = results[0]
    total_evals = 0
    for score_r, pattern_r, params_r, evals_r in results:
        total_evals += evals_r
        if score_r > best_score or (score_r == best_score and best_pattern is None):
            best_score, best_pattern, best_params = score_r, pattern_r, params_r
    herald, one, multi, tail = engine.outcome_table(best_params[None])
    best_x = prob = multi_weight = 0.0
    pattern = ()
    if best_pattern is not None:
        prob = float(herald[0, best_pattern])
        best_x = float(one[0, best_pattern]) / prob
        multi_weight = float(multi[0, best_pattern]) / prob
        pattern = tuple(int(v) for v in engine.patterns[best_pattern])
    return SearchReport(
        best_X=best_x,
        best_params=tuple(float(v) for v in best_params),
        best_pattern=pattern,
        herald_probability=prob,
        multiphoton_weight=multi_weight,
        bound=space.bound,
        violated=bool(best_x > space.bound + BOUND_SLACK),
        evaluations=total_evals,
        cutoff_used=space.cutoff_used,
        truncation_weight=float(tail[0]),
    )


# --- direct verification of the enabling lemmas ------------------------------

def verify_commutation(
    seed: int,
    trials: int,
    *,
    cutoff: int = 6,
    tol: Tolerances = DEFAULT,
) -> float:
    """Max trace distance between loss-then-interferometer and
    interferometer-then-loss over random product inputs, random unitaries on
    2..4 modes and uniform p in [0.3, 0.95].  Equal loss on every mode
    commutes exactly, so anything above float scale is a failure."""
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    rng = np.random.default_rng(seed)
    single = FockBasis(1, cutoff)
    worst = 0.0
    for _ in range(trials):
        modes = int(rng.integers(2, 5))
        states = []
        for _ in range(modes):
            if rng.random() < 0.5:
                states.append(make_state(Isps(float(rng.uniform(0.0, 1.0))), single))
            else:
                alpha = rng.uniform(0.1, 0.7) * np.exp(2j * math.pi * rng.random())
                states.append(make_state(Coherent(alpha), single, tail_tol=1.0))
        joint = FockBasis(modes, cutoff)
        rho = tensor_all(states, joint, tail_tol=1.0)
        lifted = lift(haar_random(modes, rng), joint)
        channel = LossChannel(float(rng.uniform(0.3, 0.95)))
        after = apply_loss(lifted.apply(rho, tol=tol), channel, tol=tol)
        before = lifted.apply(apply_loss(rho, channel, tol=tol), tol=tol)
        worst = max(worst, trace_distance(after, before))
    return worst


def unequal_loss_counterexample(p1: float = 0.4, p2: float = 0.9) -> float:
    """Trace distance between the two orderings when the two modes are
    attenuated differently; a generic beamsplitter makes it macroscopic,
    which shows the commutation test has power."""
    from .interferometer import from_mesh

    basis = FockBasis(2, 2)
    single = FockBasis(1, 2)
    rho = tensor_all(
        [make_state(Isps(1.0), single), make_state(Isps(0.0), single)], basis
    )
    lifted = lift(from_mesh([math.pi / 4, 0.0, 0.0, 0.0], 2), basis)
    channels = [LossChannel(p1, modes=(0,)), LossChannel(p2, modes=(1,))]

    def lossy(state):
        for ch in channels:
            state = apply_loss(state, ch)
        return state

    return trace_distance(lossy(lifted.apply(rho)), lifted.apply(lossy(rho)))


def verify_bernoulli_consequence(seed: int, trials: int) -> bool:
    """Two diagonal-action consequences of the loss channel, on random states:

    * with no multiphoton components, X after loss p is exactly
      p * (one-photon weight before), checked to 1e-10;
    * with multiphoton components and p >= 1/2, X never exceeds p.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    rng = np.random.default_rng(seed)
    basis = FockBasis(1, 4)
    ok = True
    for _ in range(trials):
        # multiphoton-free heralded state (a zero/one-photon mixture with coherence)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qubit = a @ a.conj().T
        qubit /= qubit.trace().real
        elements = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        elements[:2, :2] = qubit
        rho = DensityMatrix(basis, elements)
        p = float(rng.uniform(0.05, 0.95))
        out = apply_loss(rho, LossChannel(p))
        ok &= abs(out.elements[1, 1].real - p * rho.elements[1, 1].real) <= 1e-10

        # state with multiphoton weight, attenuated by p >= 1/2
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        full = a @ a.conj().T
        full /= full.trace().real
        rho = DensityMatrix(basis, full)
        p = float(rng.uniform(0.5, 1.0))
        out = apply_loss(rho, LossChannel(p))
        ok &= out.elements[1, 1].real <= p + 1e-12
    return bool(ok)
