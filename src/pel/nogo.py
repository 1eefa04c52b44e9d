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
displacement tables and the objective.  A call carries at most ``_LOCKSTEP``
rows, either restarts or, in a block of at most two restarts, restarts times
the golden-section probes evaluated ahead (``_golden_max``).  Rows never mix,
and the blocks run one after another in the calling thread.  A column's bits
can follow how many columns the call computes (the BLAS kernel of the
trailing columns), and every call of a line tabulates the same count of
patterns, fixed when the line is set up (``_line_scores``): so the lookahead
leaves the count and the bits alone, but a restart's result can depend on
its block, in the last bits and then, through a plateau's golden-section
steps, in its parameters, since the count is that of the largest
||alpha||^2 among the block's rows.
The golden-section brackets themselves step on Python floats, one generator
per row (``_golden_row``): a bracket of one to ``_LOCKSTEP`` rows is too
small for numpy to pay, and a float operation rounds as the same operation
on an array does, so the probes, and every evaluation, keep their bits.

The mesh runs once per golden-section line, not once per evaluation
(``_line_scores``).  A line moves one coordinate.  On an amplitude line the
mesh output does not move at all.  On a mesh line it moves with one angle or
phase, and each amplitude of the S-photon basis is a trigonometric
polynomial of degree <= S in it.  That is a fact about the Fock lift V, not
about how V is built: every entry of the mesh unitary U is one of degree
<= 1 in any single angle or phase, and the entries of V on n photons are
polynomials of degree n in the entries of U.  So the line applies
the mesh at the 2S + 1 nodes x_c + 2 pi j / (2S + 1), takes one DFT, and
rebuilds the output at each probe x from e^{iq (x - x_c)}, q = -S..S.  The
scores so found agree with a direct evaluation to rounding; the start point,
the final scores and every public entry point evaluate directly.

A probe is arithmetic only.  ``_SchemeEngine.tabulate`` is a kernel of the
mesh output and the displacement amplitudes beta = U[:, S:] alpha, which its
callers form (``ancilla_images``, ``displacements``), and it checks nothing.
The amplitude cap is checked where amplitudes enter: by ``outcome_table``
and ``_objective`` on every call, by a mesh line once when it is set up, its
amplitudes being fixed, and by an amplitude line on the moved ancilla of
each probe, the others once at set-up.  An amplitude past ``_admitted_cap``,
or NaN, raises ContractViolation there.  The cap in turn bounds every
|beta_j|^2 by ||alpha||^2, which the engine checks against the float range
of the displacement tables when it is built.

``verify_commutation`` checks the enabling lemma directly: equal loss on all
modes commutes with any interferometer.  With unequal loss it does not, and
``unequal_loss_counterexample`` shows the test has the power to notice.

Scheme evaluation never builds the joint Fock space of sources and ancillas.
A coherent ancilla is a displaced vacuum, so each of the 2^S source branches
leaves the mesh as D(U alpha) V|f_b>, with V|f_b> on the S-photon basis, and
the outcome amplitudes factor per mode into displaced-number elements.
Herald probability, one-photon and multiphoton weight are therefore exact
for every heralding pattern evaluated.  The phases of the displacements
factor out, D(beta) = e^{i phi n} D(|beta|) e^{-i phi n} with phi = arg
beta: the left factor gives each outcome one phase, which no probability
sees, and the right one gives each basis state of the mesh output one
phase.  So the displacement tables and every contraction after that phase
run in real arithmetic.

One rule truncates the patterns.  The mesh conserves photon number, so a
pattern d heralds with probability at most P(N >= |d|), where N is the total
input photon number: the sources' Poisson-binomial count plus a Poisson
count of mean ||alpha||^2 = sum |alpha_j|^2 <= num_coherent *
amplitude_cap^2.  P(N >= n) for every n is one convolution of the sources'
count law with the Poisson survival table ``fock.poisson_tails``.  A total
reaches the threshold when its bound still reaches ``min_herald`` less a
1e-12 rounding margin, and at least the 1e-12 herald floor
(``_reached_totals``); no pattern above a total that does not can ever be
eligible.  The engine enumerates every pattern up to the largest total
reached at the cap, read off one such array (``_rank_total``); an explicit
cutoff only caps this total, and a cap at which the bound reaches
``MAX_DIMENSION`` photons, a total no pattern basis can hold, is refused.
It holds them in graded order, by photon total and then
lexicographic, with the scanned patterns first, so that the scanned patterns
within any total are a prefix.  Each search line applies the same rule again
at the largest ||alpha||^2 that any of its probes can take, and its calls
tabulate only the prefix of scanned patterns within the total so reached
(``_SchemeEngine.reachable``).
``truncation_weight`` is the herald mass outside the enumerated patterns,
1 - sum of their herald probabilities.  ``evaluate_scheme`` computes a
pattern above the total as its own column.
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .channels import LossChannel, apply_loss
from .config import HERALD_FLOOR
from .errors import ArityError, CapacityError, ContractViolation, HeraldImpossibleError
from .fock import (
    MAX_DIMENSION,
    MAX_DISPLACEMENT_MEAN,
    Coherent,
    DensityMatrix,
    FockBasis,
    Isps,
    _displaced_elements,
    _displacement_plan,
    make_state,
    poisson_tails,
    tensor_all,
    trace_distance,
)
from .interferometer import (
    _unit_phases,
    apply_interferometer,
    apply_mesh_to_vectors,
    from_mesh,
    haar_random,
    mesh_param_count,
)

#: float slack separating genuine bound violations from rounding noise
BOUND_SLACK = 1e-6


#: absolute margin between the rank bound and min_herald, so that rounding in
#: a computed herald can never lift a pruned pattern over the threshold
_RANK_MARGIN = 1e-12


#: ``_SchemeEngine.reach_table`` holds at most this many photon totals, and
#: finds the threshold mean of each in this many bisection steps
_REACH_TOTALS = 16
_REACH_STEPS = 10


def _reached_totals(space):
    """The module docstring's bound on a pattern's herald, as a function
    ``reached(mean, length)``: for each photon total n < length, whether
    P(N >= n), with a Poisson part of the given mean, still reaches
    min_herald less ``_RANK_MARGIN``, and at least the herald floor.  The
    P(N >= n) are one convolution of the sources' count law with the
    Poisson tails of ``fock.poisson_tails``.  They fall with n and rise with
    the mean."""
    threshold = max(space.min_herald - _RANK_MARGIN, HERALD_FLOOR)
    counts = np.array([1.0])
    for p in space.source_efficiencies:
        counts = np.convolve(counts, [1.0 - p, p])
    # with P(X >= m) = 1 for m <= 0 in front, entry n of the valid
    # convolution is sum_k counts[k] P(X >= n - k) = P(N >= n)
    ones = np.ones(counts.size - 1)

    def reached(mean, length):
        tails = np.concatenate([ones, poisson_tails(mean, length)])
        return np.convolve(counts, tails, "valid") >= threshold

    return reached


def _rank_bound(space):
    """``_reached_totals`` as a function ``reaches(n, mean)`` of one total."""
    reached = _reached_totals(space)
    return lambda n, mean: reached(mean, n + 1)[n]


def _admitted_cap(space) -> float:
    """The largest |alpha_j| that the engine admits: amplitude_cap * (1 +
    1e-9)."""
    return space.amplitude_cap * (1.0 + 1e-9)


def _check_cap(space, alphas) -> None:
    """Refuse ancilla amplitudes, an array of any shape, of which one is
    past ``_admitted_cap`` or NaN, with ContractViolation."""
    cap = _admitted_cap(space)
    # a few amplitudes: Python floats beat numpy's reductions, and the
    # comparison is written so that a NaN amplitude fails it too
    if not all(abs(a) <= cap for a in alphas.ravel().tolist()):
        raise ContractViolation(
            f"|alpha| = {np.abs(alphas).max():.4g} is not within the "
            f"amplitude cap {space.amplitude_cap}"
        )


def _cap_mean(space) -> float:
    """The largest Poisson mean ||alpha||^2 of the space, every ancilla at
    ``_admitted_cap``.  A cap whose mean passes the float range is
    refused."""
    try:
        return (math.sqrt(space.num_coherent) * space.amplitude_cap * (1.0 + 1e-9)) ** 2
    except OverflowError:
        raise CapacityError(
            f"amplitude_cap {space.amplitude_cap} puts ||alpha||^2 past the float range"
        ) from None


def _rank_total(space) -> int:
    """Largest detected photon total n that the bound reaches with every
    ancilla at the amplitude cap, read off one array of it at the totals up
    to ``MAX_DIMENSION`` (``_reached_totals``); an explicit cutoff caps it.
    A cap at which the bound still reaches MAX_DIMENSION photons, a total
    that no pattern basis can hold, is refused: every cap whose Poisson
    mean passes MAX_DIMENSION is, unless min_herald is above about 1/2."""
    # the bound falls with n, so the totals reached are 0..reached
    bound = _reached_totals(space)(_cap_mean(space), MAX_DIMENSION + 1)
    reached = int(np.count_nonzero(bound)) - 1
    if reached == MAX_DIMENSION:
        raise CapacityError(
            f"amplitude_cap {space.amplitude_cap} lets patterns of "
            f"{MAX_DIMENSION} photons reach the herald threshold, more than "
            f"any pattern basis can hold"
        )
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
    #: the one eligibility rule: every scanned pattern whose herald reaches
    #: this probability is ranked, and no other is; patterns whose photon
    #: total bounds their herald below it are not enumerated (see
    #: ``_rank_total``)
    min_herald: float = 1e-5
    #: explicit outcomes to scan (counts per detected mode); None = all
    patterns: tuple | None = None

    def __post_init__(self):
        eff = tuple(float(p) for p in self.source_efficiencies)
        if not eff:
            raise ContractViolation("at least one source is required")
        if not all(0.0 <= p <= 1.0 for p in eff):
            raise ContractViolation(f"source efficiencies {eff} outside [0, 1]")
        object.__setattr__(self, "source_efficiencies", eff)
        if not (self.num_coherent >= 0 and float(self.num_coherent).is_integer()):
            raise ContractViolation(
                f"num_coherent must be a nonnegative integer, got {self.num_coherent!r}"
            )
        object.__setattr__(self, "num_coherent", int(self.num_coherent))
        if self.cutoff is not None:
            if not (self.cutoff >= 0 and float(self.cutoff).is_integer()):
                raise ContractViolation(
                    f"cutoff must be None or a nonnegative integer, got {self.cutoff!r}"
                )
            object.__setattr__(self, "cutoff", int(self.cutoff))
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
        if self.patterns is not None:
            listed = tuple(tuple(pattern) for pattern in self.patterns)
            if not listed:
                raise ContractViolation("patterns, when given, must be nonempty")
            if any(len(p) != self.modes - 1
                   or not all(v >= 0 and float(v).is_integer() for v in p)
                   for p in listed):
                raise ContractViolation(
                    f"patterns need {self.modes - 1} nonnegative integer counts "
                    f"each, got {self.patterns!r}"
                )
            object.__setattr__(
                self, "patterns", tuple(tuple(int(v) for v in p) for p in listed)
            )

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
    #: the probes the search kept, ``_restart_cost`` per restart; a probe
    #: evaluated ahead and then not taken is not counted
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

    With phi_j = arg beta_j, <m|D(beta_j)|k> = e^{i(m - k) phi_j}
    <m|D(|beta_j|)|k>.  The e^{i m phi_j} of the outcome (m_0, d) multiplies
    all of its amplitudes alike and leaves every |amplitude|^2 as it is, so
    it is dropped; e^{-i k phi_j} makes one phase e^{-i sum_j k_j phi_j} per
    basis state, applied to the mesh output: ``negated_occupations`` @
    arctan2(Im beta, Re beta), arctan2 being odd in its first argument.  The
    displacement tables of all rows and modes are then one closed-form, real
    batched matmul at |beta|, the kernel of ``displaced_number_elements``
    run through the engine's own ``displacement_plan``, and so is G.  beta
    itself is one flat take of the ancilla columns' one-photon rows of the
    mesh output (``ancilla_index``) and one matmul with alpha, formed by the
    callers of ``tabulate``.  psi has one row per
    (k_0, real or imaginary part, b) over every detected state; the states
    that do not fit beside k_0 read an all-zero input column, which the mesh
    and the line rebuild keep exactly zero, so one real (R, 2 (S + 1) B,
    detected) @ (R, detected, patterns) GEMM gives the real and imaginary
    parts of c for every k_0.  An amplitude cap whose |beta|^2 could pass
    ``MAX_DISPLACEMENT_MEAN`` is refused here, when the engine is built.

    G is gathered in the layout of the tables themselves, (R, M, max_count
    + 1, S + 1) flattened per row: ``row_gather`` takes element (d_j, k) of
    detected mode j for every (j, k) row and pattern d, as (R, (M - 1)(S +
    1), patterns), and ``column_index`` picks row (j, k'_j) of that for each
    detected state, one slice per mode, whose product is G.  A search call
    reads a contiguous copy of its count's prefix of ``row_gather``
    (``row_gathers``), so neither the tables nor the index are copied.

    The patterns are in the graded order of FockBasis(M - 1, cutoff_used):
    by photon total, then lexicographic.  With requested patterns the
    ``scanned`` ones come first, then the other enumerated ones, then any
    requested above the bound, so the scanned patterns within any total are
    always a prefix.  ``tabulate`` reads the first ``count`` patterns: all of
    them for ``outcome_table``, and for a search call the scanned ones within
    the total that the amplitudes of its line can reach (``reachable``),
    one count for every call of the line.  A short rising list of threshold
    means and pattern counts (``reach_table``) turns that count into one
    bisection of the line's largest ||alpha||^2.  Once built,
    the engine holds no state that depends on its calls; ``reach_table`` and
    ``row_gathers`` are computed on first use.

    ``tabulate`` is the kernel of an evaluation and checks nothing; its
    callers check the amplitudes against the cap before they form beta (see
    the module docstring).
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        # the largest |beta_j|^2 is ||alpha||^2 <= num_coherent * cap^2
        reach = _cap_mean(space)
        if not reach <= MAX_DISPLACEMENT_MEAN:
            raise CapacityError(
                f"amplitude_cap {space.amplitude_cap} lets |beta|^2 reach "
                f"{reach:.6g}, past the float range of the displacement tables "
                f"(at most {MAX_DISPLACEMENT_MEAN:.6g})"
            )

        S, M = space.num_sources, space.modes
        self.cutoff_used = cutoff = space.cutoff_used
        self.basis = FockBasis(M, S)
        detected = FockBasis(M - 1, S)
        # every pattern up to the rank bound, and the requested ones, which
        # are computed exactly whatever their total.  The search scans the
        # requested patterns within the bound (all of them when none are
        # requested); those come first, then the other enumerated ones, then
        # the requested ones above the bound, each group in graded order
        enumerated = [tuple(row) for row in FockBasis(M - 1, cutoff).occupations.tolist()]
        requested = set(enumerated if space.patterns is None else space.patterns)
        self.patterns = np.array(sorted(
            requested.union(enumerated),
            key=lambda row: (sum(row) > cutoff, row not in requested, sum(row), row),
        ))
        self.pattern_index = {
            row: i for i, row in enumerate(map(tuple, self.patterns.tolist()))
        }
        #: the scanned patterns are the first ``scanned``
        self.scanned = sum(sum(row) <= cutoff for row in requested)
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
        # mode, whose images give U[:, S:] on the one-photon rows, then a zero
        # column, which the mesh and the line rebuild keep exactly zero
        unit = np.eye(M, dtype=np.int64)
        self.ancilla_columns = slice(B, B + space.num_coherent)
        zero_column = self.ancilla_columns.stop
        self.inputs = np.zeros((self.basis.dimension, zero_column + 1), dtype=complex)
        branch_states = np.zeros((B, M), dtype=np.int64)
        branch_states[:, :S] = branches
        self.one_photon_rows = self.basis.rank(unit)
        self.inputs[self.basis.rank(branch_states), np.arange(B)] = 1.0
        self.inputs[self.one_photon_rows[S:], np.arange(B, zero_column)] = 1.0
        # U[:, S:] of each row as one flat take of its mesh output: the
        # one-photon rows of the ancilla columns, (M, num_coherent)
        self.ancilla_index = (
            self.one_photon_rows[:, None] * self.inputs.shape[1]
            + np.arange(B, zero_column)
        )
        # minus the basis occupations, as the floats that ``tabulate``'s
        # phases multiply, so that no call casts or negates them
        self.negated_occupations = -self.basis.occupations.astype(float)

        # a search line moves one mesh angle or phase, in which every mesh
        # output amplitude is a trigonometric polynomial of degree <= S:
        # its values at the 2S + 1 nodes x_c + 2 pi j / (2S + 1) give its
        # coefficients through one DFT (see ``_line_scores``)
        nodes = 2 * S + 1
        orders = np.arange(-S, S + 1)
        self.line_steps = 2.0 * math.pi * np.arange(nodes) / nodes
        self.line_orders = orders.astype(float)
        turns = np.outer(orders, np.arange(nodes)) % nodes
        self.line_dft = _unit_phases(-2.0 * math.pi * turns / nodes) / nodes

        # G[k', d] multiplies one element <d_j|D(beta_j)|k'_j> per detected
        # mode j of the (M, max_count + 1, S + 1) displacement tables of one
        # parameter row.  One gather, in the tables' own layout, takes
        # element (d_j, k) of detected mode j for every (j, k) row and each
        # pattern, as ((M - 1)(S + 1), patterns); a second picks row
        # (j, k'_j) for each detected state.  The survivor's table needs rows
        # m_0 = 0 and 1 even at cutoff 0
        self.max_count = max(int(self.patterns.max()), 1)
        self.displacement_plan = _displacement_plan(self.max_count, S)
        self.row_gather = (
            (np.arange(1, M)[:, None, None] * (self.max_count + 1)
             + self.patterns.T[:, None, :]) * (S + 1)
            + np.arange(S + 1)[:, None]
        ).reshape((M - 1) * (S + 1), -1)
        self.column_index = np.arange(M - 1)[:, None] * (S + 1) + detected.occupations.T

        # psi_b(k_0, k') for every branch, as 2 (S + 1) B real rows, in the
        # order (k_0, real or imaginary part, b) over the float64 view of the
        # mesh output.  At a given k_0 the basis holds exactly the detected
        # parts with |k'| <= S - k_0, a prefix of the graded detected basis;
        # the slots past it read the zero column, so one GEMM contracts
        # every k_0
        psi_index = np.full((S + 1, B, detected.dimension), zero_column)
        k0, i = np.nonzero(np.arange(S + 1)[:, None] + detected.totals <= S)
        state = self.basis.rank(np.column_stack([k0, detected.occupations[i]]))
        psi_index[k0, :, i] = state[:, None] * self.inputs.shape[1] + np.arange(B)
        self.psi_index = (2 * psi_index[:, None] + np.arange(2)[:, None, None]).reshape(
            2 * (S + 1) * B, detected.dimension
        )
        # the branch weight of each psi row, so that one matmul weighs and
        # sums the squared parts of c; its first 2B entries weigh the
        # (part, b) rows of the survivor's amplitudes the same way
        self.row_weights = np.tile(self.branch_weights, 2 * (S + 1))
        # the engine is cached per space and shared by every evaluation
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    @cached_property
    def row_gathers(self):
        """A contiguous, read-only copy of ``row_gather``'s first ``count``
        columns for every count that ``reachable`` can return (the scanned
        count among them), so that a search call gathers without copying
        its index.  ``outcome_table``'s every pattern reads ``row_gather``
        itself, and ``tabulate`` takes any other count as a view of it."""
        prefixes = {}
        for count in self.reach_table[1]:
            prefixes[count] = np.ascontiguousarray(self.row_gather[:, :count])
            prefixes[count].setflags(write=False)
        return prefixes

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

    @cached_property
    def reach_table(self):
        """Threshold means mu*_n of a few photon totals n, and pattern
        counts, two rising lists: below mu*_n ``_rank_bound`` cannot reach
        n, and mu*_n never exceeds the least mean at which it does.  Count i
        is that of the scanned patterns of totals below the n of mean i, at
        least one, so that no call tabulates an empty set; the last count,
        one past the means, is every scanned pattern.  The totals are those
        up to ``cutoff_used`` that the sources alone do not reach, at most
        ``_REACH_TOTALS`` of them spread evenly, so that a large amplitude cap
        costs a bounded number of bound evaluations.  Each bisects [mu* of
        the total before, cap mean] in ``_REACH_STEPS`` steps and keeps the
        end that falls short."""
        reaches, top = _rank_bound(self.space), _cap_mean(self.space)
        # the sources give at most S photons
        first = next(n for n in itertools.count() if not reaches(n, 0.0))
        totals = list(range(first, self.cutoff_used + 1))
        if len(totals) > _REACH_TOTALS:
            spread = np.linspace(first, self.cutoff_used, _REACH_TOTALS)
            totals = np.unique(spread.round().astype(int)).tolist()
        means, short = [], 0.0
        for n in totals:
            reached = top
            for _ in range(_REACH_STEPS):
                middle = 0.5 * (short + reached)
                if reaches(n, middle):
                    reached = middle
                else:
                    short = middle
            means.append(short)
        # the scanned patterns are graded, so those below a total are a prefix
        below = np.searchsorted(self.patterns[: self.scanned].sum(axis=1), totals)
        return means, np.maximum(below, 1).tolist() + [self.scanned]

    def reachable(self, alphas) -> int:
        """How many patterns a search call tabulates for the (R,
        num_coherent) amplitudes: the scanned ones within a total that
        ``_rank_bound`` cannot pass at the largest ||alpha||^2 among the
        rows, so that no pattern left out can be eligible in any of them.
        ``_objective`` passes its rows' amplitudes, a line the largest that
        its probes can take (``_line_scores``).  The count is that of the
        first mean of ``reach_table`` above this one."""
        # a few rows of a few amplitudes: Python sums beat numpy's reductions
        mean = max(map(sum, np.square(alphas.view(np.float64)).tolist()))
        means, counts = self.reach_table
        return counts[bisect_right(means, mean)]

    def outcome_table(self, params):
        """Per-pattern herald probability, one-photon weight and multiphoton
        weight (unnormalized), each (R, patterns), and the herald mass outside
        the patterns, (R,), for an (R, parameters) array.  Each row's result
        is the same whatever R is.  The multiphoton weight is
        ``_multiphoton`` of the ``tabulate`` columns.  An amplitude past the
        cap, or NaN, raises ContractViolation (``_check_cap``)."""
        mesh, alphas = self.split_params(params)
        _check_cap(self.space, alphas)
        vectors = self.propagate(mesh)
        herald, vacuum, one = self.tabulate(
            vectors, self.displacements(self.ancilla_images(vectors), alphas),
            self.patterns.shape[0],
        )
        tail = np.maximum(0.0, 1.0 - herald.sum(axis=1))
        return herald, one, _multiphoton(herald, vacuum, one), tail

    def propagate(self, mesh):
        """The mesh stage: every input column through the mesh of each row of
        an (R, mesh parameters) array, as (R, dimension, columns) vectors;
        ``apply_mesh_to_vectors`` lifts each row's unitary by the
        creation-operator ladder."""
        vectors = np.repeat(self.inputs[None], mesh.shape[0], axis=0)
        apply_mesh_to_vectors(vectors, mesh, self.space.modes, self.basis)
        return vectors

    def ancilla_images(self, vectors):
        """U[:, S:] of each row of a mesh output, (R, M, num_coherent): the
        images of the one-photon inputs of the ancillas, one flat take."""
        return vectors.reshape(vectors.shape[0], -1).take(
            self.ancilla_index, axis=1, mode="clip"
        )

    @staticmethod
    def displacements(images, alphas):
        """The displacement amplitudes beta = U[:, S:] alpha of each row, as
        the (R, M, 1) that ``tabulate`` reads, from ``ancilla_images`` and
        the (R, num_coherent) ancilla amplitudes."""
        return np.matmul(images, alphas[:, :, None])

    def tabulate(self, vectors, betas, count):
        """The herald probability, vacuum weight and one-photon weight of the
        first ``count`` patterns, each (R, count) and unnormalized, from the
        mesh output of ``propagate`` and the (R, M, 1) displacement
        amplitudes beta of ``displacements``; ``vectors`` is left as it is.
        The multiphoton weight is what the other two leave of the herald
        (``_multiphoton``), formed only where it is read.  A column's bits
        can follow ``count`` (the BLAS kernel of the trailing columns),
        never the other rows of the call.

        This is the kernel alone: it checks nothing.  Its callers check the
        amplitudes against the cap (``_check_cap``), which bounds every
        |beta_j|^2 by the mean that the engine admitted when it was built."""
        rows, S, B = vectors.shape[0], self.space.num_sources, self.num_branches
        # tables at |beta|, and the phase e^{-i sum_j k_j arg beta_j} of each
        # basis state on the mesh output (see the class docstring)
        magnitudes = np.abs(betas[:, :, 0])
        tables = _displaced_elements(
            magnitudes, magnitudes * magnitudes, self.displacement_plan
        )
        turns = np.matmul(self.negated_occupations, np.arctan2(betas.imag, betas.real))
        phased = vectors * _unit_phases(turns)
        g, factor, c, amps = self._work_arrays(rows, count)
        # take along axis 1 applies one index table to every parameter row:
        # the row gather, read in the layout of the tables, gives (R, rows
        # of d, patterns) at once, and G is the elementwise product of one
        # slice of it per detected mode.  The index tables are in range by
        # construction, so the gathers clip instead of checking, and write
        # into ``out`` without a buffer
        if count == self.row_gather.shape[1]:
            row_gather = self.row_gather
        else:
            row_gather = self.row_gathers.get(count, self.row_gather[:, :count])
        rows_of_d = tables.reshape(rows, -1).take(row_gather, axis=1, mode="clip")
        rows_of_d.take(self.column_index[0], axis=1, out=g, mode="clip")
        for mode_columns in self.column_index[1:]:
            g *= rows_of_d.take(mode_columns, axis=1, out=factor, mode="clip")
        psi = phased.view(np.float64).reshape(rows, -1).take(
            self.psi_index, axis=1, mode="clip"
        )
        np.matmul(psi, g, out=c)
        # the surviving mode's m_0 = 0 and 1 elements, summed over k_0
        np.matmul(tables[:, 0, :2], c.reshape(rows, S + 1, -1), out=amps)
        weights = self.row_weights
        herald = weights @ np.square(c, out=c)
        vacuum_one = weights[: 2 * B] @ np.square(amps, out=amps).reshape(rows, 2, 2 * B, -1)
        return herald, vacuum_one[:, 0], vacuum_one[:, 1]

    def _work_arrays(self, rows, patterns):
        """G, one gathered factor of it, the branch amplitudes c and their
        surviving-mode contraction for ``rows`` parameter rows and
        ``patterns`` columns: four real views of one ``np.empty`` block,
        shaped (R, detected states, patterns) twice, (R, 2 (S + 1) branches,
        patterns), the rows of c in the order (k_0, real or imaginary part,
        branch), and (R, 2, 2 * branches * patterns).

        They are an evaluation's largest arrays.  glibc returns the free top
        of its heap to the system once it exceeds twice the largest block it
        ever had to map and free; with one block the largest block holds most
        of the evaluation, so a search does not fault its arrays in again on
        every evaluation.  The block's size follows the call's pattern count,
        and it is allocated on every call.  Holding one block per row and
        pattern count across a line's calls is a trap: a held block is never
        freed, so glibc's mmap threshold never rises to its size, and each
        line maps its blocks afresh.  On perfbench's 12 ``search-4m``
        searches (its 4 cells at seeds 1-3) in a fresh process with the
        engines built, that took 29,599 minor page faults against 1,746 with
        a block per call (``getrusage``; 2-CPU Xeon, glibc, OpenBLAS on one
        thread), and ran no faster."""
        S, B = self.space.num_sources, self.num_branches
        g_size = rows * self.column_index.shape[1] * patterns
        c_size = rows * 2 * (S + 1) * B * patterns
        block = np.empty(2 * g_size + c_size + rows * 4 * B * patterns)
        end = 2 * g_size + c_size
        return (
            block[:g_size].reshape(rows, -1, patterns),
            block[g_size : 2 * g_size].reshape(rows, -1, patterns),
            block[2 * g_size : end].reshape(rows, -1, patterns),
            block[end:].reshape(rows, 2, -1),
        )


@lru_cache(maxsize=32)
def _engine(space: SearchSpace) -> _SchemeEngine:
    return _SchemeEngine(space)


def evaluate_scheme(space: SearchSpace, params, pattern):
    """Single-photon probability X, herald probability, and multiphoton weight
    of the surviving mode for one parameter vector and heralding outcome.
    A pattern above the enumerated totals is computed as its own column."""
    params = np.asarray(params, dtype=float)
    if not np.all(np.isfinite(params)):
        raise ContractViolation(f"scheme parameters must be finite, got {params}")
    engine = _engine(space)
    pattern = tuple(pattern)
    if len(pattern) != space.modes - 1 or not all(
        float(v).is_integer() for v in pattern
    ):
        raise ContractViolation(
            f"pattern must give integer counts for the {space.modes - 1} "
            f"detected modes, got {pattern!r}"
        )
    pattern = tuple(int(v) for v in pattern)
    if pattern not in engine.pattern_index:
        engine = _engine(replace(space, patterns=(pattern,)))
    herald, one, multi, _ = engine.outcome_table(params[None])
    index = engine.pattern_index[pattern]
    prob = float(herald[0, index])
    if prob < HERALD_FLOOR:
        raise HeraldImpossibleError(
            f"outcome {pattern}: probability {prob:.3e} below the herald floor"
        )
    return float(one[0, index]) / prob, prob, float(multi[0, index]) / prob


def _objective(space: SearchSpace, params):
    """Search score and best pattern index of each row of an (R, parameters)
    array: ``_scores`` of the outcome table over the patterns its amplitudes
    can herald."""
    engine = _engine(space)
    mesh, alphas = engine.split_params(params)
    _check_cap(space, alphas)
    vectors = engine.propagate(mesh)
    betas = engine.displacements(engine.ancilla_images(vectors), alphas)
    return _scores(space, engine.tabulate(vectors, betas, engine.reachable(alphas)))


def _multiphoton(herald, vacuum, one):
    """The multiphoton weight of each ``tabulate`` column: the herald less
    its vacuum and one-photon weights, at least 0."""
    return np.maximum(herald - vacuum - one, 0.0)


def _ratios(space: SearchSpace, table):
    """The X ratio of each column of a ``tabulate`` table over a prefix of
    the scanned patterns, a negative mask where the column is not valid, and
    the score of each row in which none is.  One rule makes a pattern
    eligible: its herald reaches ``min_herald``.  Every eligible pattern is
    ranked, and a valid one also meets the constraint; with none eligible
    the fallback is -2, or -1 minus the least multiphoton ratio when
    eligible patterns all break the constraint.  A NaN multiphoton ratio
    does not break it, so a NaN anywhere in an eligible column reads as a
    NaN X.  X is divided into the herald's floor buffer.  Unconstrained,
    the mask is the fallback -2 itself, so a row's largest entry is its
    score; constrained, the mask is -1."""
    herald, vacuum, one = table
    eligible = herald >= space.min_herald
    floor = np.maximum(herald, 1e-300)
    if space.constraint is None:
        return np.where(eligible, np.divide(one, floor, out=floor), -2.0), -2.0
    multi_ratio = _multiphoton(herald, vacuum, one)
    multi_ratio /= floor
    np.copyto(multi_ratio, np.inf, where=~eligible)
    # the constraint is finite, so the infinite ratios of the columns that
    # are not eligible break it
    valid = multi_ratio > space.constraint
    np.logical_not(valid, out=valid)
    # no feasible outcome: drive the least multiphoton weight down
    fallback = np.where(eligible.any(axis=1), -1.0 - multi_ratio.min(axis=1), -2.0)
    return np.where(valid, np.divide(one, floor, out=floor), -1.0), fallback


def _scores(space: SearchSpace, table):
    """Search score and best pattern index of each row of a ``tabulate``
    table: the best ``_ratios`` X, or the fallback with index -1 when no
    column is valid.  A column's index is its pattern's index, so ties go to
    the same pattern as over every scanned pattern.  A NaN X is the best
    index, as ``argmax`` takes it, and a NaN score."""
    ratio, fallback = _ratios(space, table)
    best = ratio.argmax(axis=1)
    top = ratio[np.arange(best.size), best]
    # a valid X is >= 0 or NaN, so only a row with none valid reads < 0 here
    found = ~(top < 0.0)
    return np.where(found, top, fallback), np.where(found, best, -1)


def _probe_scores(space: SearchSpace, table):
    """The scores of ``_scores`` alone, through ``max``: it picks the value
    that ``argmax`` points at, NaN included.  Unconstrained, that is the
    score itself."""
    ratio, fallback = _ratios(space, table)
    top = ratio.max(axis=1)
    if space.constraint is None:
        return top
    return np.where(top < 0.0, fallback, top)


def _line_scores(space: SearchSpace, params, coord: int):
    """Scores along one search line: a function taking an (R,) array of
    values for coordinate ``coord`` of the (R, parameters) array ``params``
    to the ``_objective`` scores of the rows so moved, or an (R, k) array,
    k probes per row, to (R, k) scores, each the bits the probe gets alone.

    The mesh runs once per line.  An amplitude moves the ancillas alone, so
    its line reuses one mesh output.  A mesh angle or phase line samples the
    mesh output at the engine's 2S + 1 nodes about the current value x_c;
    their DFT gives the coefficients of the degree-S trigonometric
    polynomial, and the output at x is one matmul of them against
    e^{iq (x - x_c)}, q = -S..S, a 1 x (2S + 1) product per (row, probe).
    Every call of a line tabulates the same patterns, fixed when the line is
    set up: those ``_SchemeEngine.reachable`` at the largest ||alpha||^2 of
    any probe of the line.  On a mesh line that is the rows' own; on an
    amplitude line it puts the moved ancilla at ``_admitted_cap``, the
    largest |alpha_j| that the cap check admits, and the others where they
    are, so no probe leaves out a pattern it can herald.  Rows never mix.
    The rows a call repeats per probe (the parameters, the mesh output and
    its ``ancilla_images`` on an amplitude line, the amplitudes on a mesh
    line) are repeated once per line and probe count, and the probes are
    scored by ``_probe_scores``.

    What a line holds fixed is checked once, when it is set up: a mesh line
    checks its amplitudes against the cap, an amplitude line the ancillas it
    does not move.  An amplitude line checks the moved ancilla of its probes
    on every call.  Either raises ContractViolation at an amplitude past the
    cap, or NaN (``_check_cap``)."""
    engine = _engine(space)
    params = np.array(params, dtype=float)
    mesh, alphas = engine.split_params(params)
    rows = params.shape[0]
    # the rows of each probe count, repeated once per line
    repeated = {}
    if coord >= engine.mesh_len:
        ancilla = (coord - engine.mesh_len) // 2
        widest = alphas.copy()
        widest[:, ancilla] = _admitted_cap(space)
        # the other ancillas stay where they are: checked once, here
        _check_cap(space, widest)
        vectors = engine.propagate(mesh)
        count = engine.reachable(widest)
        # split_params checked the rows' shape when the line was set up
        real = slice(engine.mesh_len, None, 2)
        imag = slice(engine.mesh_len + 1, None, 2)

        def scores(x):
            probes = x.size // rows
            if probes not in repeated:
                probe_vectors = (
                    vectors if probes == 1 else np.repeat(vectors, probes, axis=0)
                )
                repeated[probes] = (
                    np.repeat(params, probes, axis=0),
                    probe_vectors,
                    engine.ancilla_images(probe_vectors),
                )
            trial, probe_vectors, images = repeated[probes]
            trial[:, coord] = x.ravel()
            probe_alphas = trial[:, real] + 1j * trial[:, imag]
            _check_cap(space, probe_alphas[:, ancilla])
            betas = engine.displacements(images, probe_alphas)
            table = engine.tabulate(probe_vectors, betas, count)
            return _probe_scores(space, table).reshape(x.shape)

        return scores
    # the amplitudes stay where they are: checked once, here
    _check_cap(space, alphas)
    nodes = engine.line_steps.size
    center = mesh[:, coord, None, None, None]
    sampled = np.repeat(mesh[:, None], nodes, axis=1)
    sampled[:, :, coord] += engine.line_steps
    samples = engine.propagate(sampled.reshape(rows * nodes, -1))
    coefficients = np.matmul(engine.line_dft, samples.reshape(rows, nodes, -1))[:, None]
    shape = (-1,) + samples.shape[1:]
    count = engine.reachable(alphas)

    def scores(x):
        # one 1 x (2S + 1) rebuild per (row, probe), whatever the probes per row
        offsets = x.reshape(rows, -1, 1, 1) - center
        phases = _unit_phases(offsets * engine.line_orders)
        vectors = np.matmul(phases, coefficients).reshape(shape)
        probes = offsets.shape[1]
        if probes not in repeated:
            repeated[probes] = np.repeat(alphas, probes, axis=0)
        betas = engine.displacements(engine.ancilla_images(vectors), repeated[probes])
        table = engine.tabulate(vectors, betas, count)
        return _probe_scores(space, table).reshape(x.shape)

    return scores


def _golden_max(fun, lo, hi, evals, ahead=False):
    """Deterministic golden-section maximization of each row over ``evals``
    probes: ``fun`` maps an (R,) array of abscissae to their values, and with
    ``ahead`` also an (R, k) array, k probes per row; ``lo`` and ``hi`` bound
    each row.  Returns the best sampled x and its value per row, as (R,)
    arrays.

    A step's probe is one of two abscissae known before the comparison that
    picks it: the new x2 of the rows whose f1 < f2, the new x1 of the
    others.  With ``ahead``, one call evaluates the initial pair, and each
    later call a probe together with both probes that the next step can
    choose, of which the step keeps the one its comparison picks: two steps
    per call.  The steps, their comparisons and their float expressions are
    those of the sequential schedule, so when ``fun``'s value at a (row, x)
    does not depend on the other probes of its call, the result is the same
    bits either way.

    Each row runs as its own ``_golden_row`` on Python floats, and the rows
    advance in lockstep, one ``fun`` call for all of them.  A bracket holds
    one to ``_LOCKSTEP`` rows, too few for numpy to pay: IEEE arithmetic
    rounds a Python float operation exactly as numpy rounds it elementwise,
    and a comparison picks the same branch as ``np.where`` would, NaN
    included, so every probe and result has the bits of the same steps on
    arrays."""
    rows = [
        _golden_row(a, b, evals, ahead)
        for a, b in zip(np.asarray(lo, dtype=float).tolist(),
                        np.asarray(hi, dtype=float).tolist())
    ]
    probes = [next(row) for row in rows]
    # every row follows the same schedule, so all of them finish on one call
    done = []
    while len(done) < len(rows):
        values = fun(np.array(probes)).tolist()
        probes = []
        for row, value in zip(rows, values):
            try:
                probes.append(row.send(value))
            except StopIteration as stop:
                done.append(stop.value)
    return np.array([x for x, _ in done]), np.array([f for _, f in done])


def _golden_row(lo, hi, evals, ahead):
    """One row of ``_golden_max``, as a generator: it yields the abscissae of
    each call, one float, or a tuple of them with ``ahead``, receives their
    values in the same form, and returns the best sampled (x, value)."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    if ahead:
        f1, f2 = yield x1, x2
    else:
        f1 = yield x1
        f2 = yield x2
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    successors = None
    for left in range(evals - 2, 0, -1):
        # with f1 < f2 keep [x1, hi] and probe a new x2, else keep [lo, x2]
        # and probe a new x1
        up = f1 < f2
        if up:
            lo, x1 = x1, x2
            x = x2 = lo + ratio * (hi - lo)
        else:
            hi, x2 = x2, x1
            x = x1 = hi - ratio * (hi - lo)
        if successors is not None:
            f, successors = successors[0 if up else 1], None
        elif ahead and left > 1:
            # the next step's probe, written as that step writes it, when its
            # comparison keeps [x1, hi] and when it keeps [lo, x2]
            f, *successors = yield x, x1 + ratio * (hi - x1), x2 - ratio * (x2 - lo)
        else:
            f = yield x
        f1, f2 = (f2, f) if up else (f, f1)
        if f > best_f:
            best_x, best_f = x, f
    return best_x, best_f


_GOLDEN_EVALS = 12
_REFINE_PASSES = 2
#: restarts that advance together through one batched evaluation, and the
#: most rows any call carries: restarts, or restarts times the probes of a
#: line's lookahead.  Larger blocks amortize more per-call overhead until
#: the 4-mode tables leave cache
_LOCKSTEP = 8


def _restart_cost(space: SearchSpace) -> int:
    n_rot = space.modes * (space.modes - 1) // 2
    refine = 2 * n_rot + 2 * space.num_coherent
    return 1 + _REFINE_PASSES * refine * _GOLDEN_EVALS


def _run_restarts(space: SearchSpace, seed: int, restarts):
    """Random starts plus coordinate refinement for the given restart
    indices, advanced in lockstep: every restart follows the same schedule
    of ``_restart_cost`` evaluations, one row each.  Returns one
    (score, pattern index or None, params) per restart, each deterministic
    in (space, seed, restart) and the block's restarts."""
    engine = _engine(space)
    n_rot = space.modes * (space.modes - 1) // 2
    amp_box = space.amplitude_cap / math.sqrt(2.0)
    amp_lo = engine.mesh_len
    params = np.zeros((len(restarts), space.parameter_count()))
    for row, restart in zip(params, restarts):
        rng = np.random.default_rng((seed, restart))
        row[: 2 * n_rot] = rng.uniform(-math.pi, math.pi, size=2 * n_rot)
        row[amp_lo:] = rng.uniform(-amp_box, amp_box, size=2 * space.num_coherent)

    best_score = _objective(space, params)[0]
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

            line = _line_scores(space, params, coord)
            # every call of a line tabulates the same patterns, so a block
            # with room for three probes per restart evaluates ahead, and a
            # probe keeps the bits it gets alone
            ahead = 3 * len(restarts) <= _LOCKSTEP
            x_best, f_best = _golden_max(line, lo, hi, _GOLDEN_EVALS, ahead)
            better = f_best > best_score
            best_score = np.where(better, f_best, best_score)
            params[:, coord] = np.where(better, x_best, center)
    final_scores, final_patterns = _objective(space, params)
    return [
        (float(score_r), int(pattern_r) if pattern_r >= 0 else None, row)
        for score_r, pattern_r, row in zip(final_scores, final_patterns, params)
    ]


def maximize_X(
    space: SearchSpace, budget: int, seed: int, *, threads=None
) -> SearchReport:
    """Random-restart derivative-free search for the largest heralded X.

    Deterministic for fixed (space, budget, seed): every restart draws from
    its own (seed, restart)-keyed stream, the blocks of ``_LOCKSTEP``
    restarts are fixed by the budget and run in turn in the calling thread,
    and the merge is a best-of in restart order.  A restart's bits can
    change with the block it runs in (module docstring).  ``budget`` is a
    whole number of at least 1; an integral float counts as its integer.
    ``threads`` is accepted and ignored.
    """
    # written so that NaN fails it too
    if not (budget >= 1 and float(budget).is_integer()):
        raise ContractViolation(f"budget must be an integer >= 1, got {budget!r}")
    budget = int(budget)
    engine = _engine(space)
    if not engine.scanned:
        raise ContractViolation(
            "none of the requested heralding patterns fits under the cutoff"
        )
    per_restart = _restart_cost(space)
    n_restarts = max(1, budget // per_restart)
    blocks = [range(start, min(start + _LOCKSTEP, n_restarts))
              for start in range(0, n_restarts, _LOCKSTEP)]
    results = [
        result for block in blocks for result in _run_restarts(space, seed, block)
    ]
    best_score, best_pattern, best_params = results[0]
    for score_r, pattern_r, params_r in results:
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
        evaluations=n_restarts * per_restart,
        cutoff_used=engine.cutoff_used,
        truncation_weight=float(tail[0]),
    )


# --- direct verification of the enabling lemmas ------------------------------

def verify_commutation(
    seed: int,
    trials: int,
    *,
    cutoff: int = 6,
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
        u = haar_random(modes, rng)
        channel = LossChannel(float(rng.uniform(0.3, 0.95)))
        after = apply_loss(apply_interferometer(rho, u), channel)
        before = apply_interferometer(apply_loss(rho, channel), u)
        worst = max(worst, trace_distance(after, before))
    return worst


def unequal_loss_counterexample(p1: float = 0.4, p2: float = 0.9) -> float:
    """Trace distance between the two orderings when the two modes are
    attenuated differently; a generic beamsplitter makes it macroscopic,
    which shows the commutation test has power."""
    basis = FockBasis(2, 2)
    single = FockBasis(1, 2)
    rho = tensor_all(
        [make_state(Isps(1.0), single), make_state(Isps(0.0), single)], basis
    )
    u = from_mesh([math.pi / 4, 0.0, 0.0, 0.0], 2)
    channels = [LossChannel(p1, modes=(0,)), LossChannel(p2, modes=(1,))]

    def lossy(state):
        for ch in channels:
            state = apply_loss(state, ch)
        return state

    return trace_distance(
        lossy(apply_interferometer(rho, u)), apply_interferometer(lossy(rho), u)
    )


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
