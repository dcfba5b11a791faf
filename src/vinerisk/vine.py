"""Regular vine models on mixed continuous/ordinal margins.

The joint density factorizes over a sequence of trees whose edges carry
bivariate copulas.  :mod:`vinerisk.bicop` owns each edge's likelihood, net
of any discrete side's log mass: :func:`~vinerisk.bicop.bicop_fit` returns
the value it maximised, and :func:`~vinerisk.bicop.bicop_condition` takes an
edge's scoring step, with its conditioned pseudo-observations for the next
tree.  This module selects, stores and scores edges with that one number and
keeps the bookkeeping of which columns each edge joins.  Structure
selection follows the usual recipe: a maximum spanning tree per level on absolute
(partial) latent correlations under the proximity condition.  Families and
the truncation level are chosen by a Bayesian-flavoured information
criterion with a geometrically decaying prior on non-independence edges;
only the candidates that score best at their tau-inversion start get the
maximum-likelihood fit.
Margins are evaluated once per distinct value of each column, and each
edge is fitted and scored once per distinct combination of its varying
constraint-set columns (those of its conditioned pair and conditioning set
that take more than one value in the call), then mapped back to the rows,
so rows that share values cost no repeated work.  A row's log density is
bitwise what scoring it alone gives, and a fit bitwise that on the rows.

An edge computes only the conditioned sides a later edge reads
(:func:`_read_columns`).  A dependent edge reads both of its sides.  An
independence edge reads its discrete sides, whose masses make its
contribution, and a continuous side only when it passes it on to a column
that is itself read; one with two continuous sides and nothing read
contributes exactly 0 and is skipped.  Nothing reads the last fitted
tree.  While fitting, every edge of the next tree reads both its sides,
since its family is not chosen yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .bicop import (
    CONTRIB_FLOOR,
    FAMILIES,
    INDEP,
    PairObs,
    ROTATABLE,
    ROTATIONS,
    Bicop,
    _gauss_legendre,
    bicop_condition,
    bicop_contributions,  # noqa: F401  (kept importable here: perfbench/tracing.py wraps it)
    bicop_fit,
    bicop_loglik,
    bicop_start,
    empirical_tau,
    rotated_tau,
)
from .data import MIN_ROWS
from .errors import TooFewObservations
from .latent import partial_correlation
from .margins import margin_from_dict

#: Candidates per edge that get the bounded MLE, the best-scoring at their
#: tau-inversion start; an edge with both sides discrete gets one more.
#: Over the 310 dependent edges of 19 cohorts (the benchmark's reference
#: cohort, 8 of its ``train`` cohorts and 10 of 81 adverse and 686 other
#: rows), the full search's winner ranked 1st by start score on 289, 2nd on
#: 19, 3rd on 2 and never lower, so three fits kept every selection.  On
#: simulated pairs of 300 rows it ranked 4th on 19 of 339 with two 3-level
#: sides (``tests/test_vine.py``), hence their fourth fit, and on 5 of 2321
#: with at most one discrete side, where three fits pick another family at
#: a log-likelihood cost of 0.05 to 0.88.  Two binary sides are never
#: screened: they have one candidate (:func:`_edge_candidates`).
SCREEN_KEEP = 3


@dataclass(frozen=True)
class Edge:
    """A vine edge: conditioned pair plus conditioning set (0-based indices)."""

    conditioned: tuple[int, int]
    conditioning: frozenset[int] = frozenset()

    def __post_init__(self):
        a, b = self.conditioned
        if a > b:
            object.__setattr__(self, "conditioned", (b, a))
        object.__setattr__(self, "conditioning", frozenset(self.conditioning))

    @property
    def all_vars(self) -> frozenset:
        return frozenset(self.conditioned) | self.conditioning

    def label(self) -> str:
        """Human-readable edge name with 1-based indices, e.g. ``"23;1"``."""

        def fmt(ids):
            ids = sorted(i + 1 for i in ids)
            if all(i <= 9 for i in ids):
                return "".join(str(i) for i in ids)
            return ",".join(str(i) for i in ids)

        base = fmt(self.conditioned)
        if self.conditioning:
            return f"{base};{fmt(self.conditioning)}"
        return base

    def to_dict(self) -> dict:
        return {"conditioned": list(self.conditioned), "conditioning": sorted(self.conditioning)}

    @classmethod
    def from_dict(cls, obj: dict) -> "Edge":
        return cls(tuple(obj["conditioned"]), frozenset(obj["conditioning"]))


@dataclass
class VineStructure:
    """Tree sequence of a regular vine on ``d`` variables."""

    d: int
    trees: list[list[Edge]]

    def to_dict(self) -> dict:
        return {"d": self.d, "trees": [[e.to_dict() for e in tree] for tree in self.trees]}

    @classmethod
    def from_dict(cls, obj: dict) -> "VineStructure":
        trees = [[Edge.from_dict(e) for e in tree] for tree in obj["trees"]]
        return cls(d=int(obj["d"]), trees=trees)


@dataclass(frozen=True)
class _Node:
    """A node during structure selection: a variable set plus the pair of
    previous-level node ids it joins (for the proximity condition)."""

    vars: frozenset
    ends: tuple


def select_structure(corr: np.ndarray) -> VineStructure:
    """Maximum spanning tree per level on absolute (partial) correlations.

    Each tree is grown by Prim's cut over the candidates sorted by
    ``(-|weight|, conditioned pair, conditioning set)``.  These keys are
    distinct, so the maximum spanning tree under that order is unique:
    among equal weights the lexicographically smallest conditioned pair
    (then conditioning set) wins.
    """
    corr = np.asarray(corr, dtype=float)
    d = corr.shape[0]
    trees: list[list[Edge]] = []
    # level-1 nodes are the variables themselves
    nodes = [_Node(vars=frozenset([j]), ends=(j,)) for j in range(d)]
    for level in range(1, d):
        candidates = []
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                ni, nj = nodes[i], nodes[j]
                if level > 1 and not set(ni.ends) & set(nj.ends):
                    continue
                # two single variables, or (proximity) two edges sharing a
                # node: either way exactly two variables are conditioned
                conditioning = ni.vars & nj.vars
                conditioned = tuple(sorted(ni.vars ^ nj.vars))
                weight = abs(partial_correlation(corr, *conditioned, conditioning))
                candidates.append((-weight, conditioned, tuple(sorted(conditioning)), i, j))
        candidates.sort()
        # the previous tree's line graph is connected, so the cut never runs dry
        inside, chosen = {0}, []
        while len(inside) < len(nodes):
            _, cd, cg, i, j = next(c for c in candidates if (c[3] in inside) != (c[4] in inside))
            inside |= {i, j}
            chosen.append((cd, frozenset(cg), i, j))
        chosen.sort(key=lambda c: (c[0], tuple(sorted(c[1]))))
        trees.append([Edge(cd, cg) for cd, cg, _, _ in chosen])
        nodes = [_Node(vars=Edge(cd, cg).all_vars, ends=(i, j)) for cd, cg, i, j in chosen]
    return VineStructure(d=d, trees=trees)


# ---------------------------------------------------------------------------
# fitting configuration and the information criterion
# ---------------------------------------------------------------------------


@dataclass
class FitConfig:
    """Knobs shared by vine and classifier fitting."""

    families: Sequence[str] = FAMILIES
    psi0: float = 0.9
    truncation_search: str = "greedy"  # "greedy" or "full"
    indep_test_level: Optional[float] = 0.01
    margin_method: str = "kernel"  # continuous margins: "kernel" or "empirical"
    priors: str = "equal"  # classifier priors: "equal" or "empirical"

    def __post_init__(self):
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown copula family {fam!r}")
        if self.truncation_search not in ("greedy", "full"):
            raise ValueError("truncation_search must be 'greedy' or 'full'")
        if not 0.0 < self.psi0 < 1.0:
            raise ValueError("psi0 must lie strictly between 0 and 1")
        if self.indep_test_level is not None and not 0.0 < self.indep_test_level < 1.0:
            raise ValueError("indep_test_level must be None or lie strictly between 0 and 1")
        if self.margin_method not in ("kernel", "empirical"):
            raise ValueError("margin_method must be 'kernel' or 'empirical'")
        if self.priors not in ("equal", "empirical"):
            raise ValueError("priors must be 'equal' or 'empirical'")


def edge_penalty(level: int, npar: int, n: int, psi0: float, independence: bool) -> float:
    """Additive criterion terms of one edge (everything except -2*loglik)."""
    psi_m = psi0**level
    if independence:
        return -2.0 * math.log1p(-psi_m)
    return npar * math.log(n) - 2.0 * math.log(psi_m)


def tau_independence_pvalue(tau: float, n: int) -> float:
    """Asymptotic two-sided p-value of Kendall's tau under independence."""
    if n < 3:
        return 1.0
    z = 3.0 * tau * math.sqrt(n * (n - 1.0)) / math.sqrt(2.0 * (2.0 * n + 5.0))
    return 2.0 * (1.0 - ndtr(abs(z)))


@dataclass
class FittedEdge:
    edge: Edge
    bicop: Bicop
    loglik: float
    score: float

    def to_dict(self) -> dict:
        return {
            **self.edge.to_dict(),
            "bicop": self.bicop.to_dict(),
            "loglik": self.loglik,
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FittedEdge":
        return cls(
            edge=Edge.from_dict(obj),
            bicop=Bicop.from_dict(obj["bicop"]),
            loglik=float(obj["loglik"]),
            score=float(obj["score"]),
        )


def distinct_columns(x) -> list:
    """``(values, first, inverse)`` per column: its distinct values, a row
    holding each, and the index that scatters results on them back to the
    rows."""
    return [np.unique(x[:, j], return_index=True, return_inverse=True) for j in range(x.shape[1])]


def _outputs(edge: Edge) -> tuple:
    """The columns an edge ``(a, b; D)`` conditions, ``a`` given ``D | {b}``
    and ``b`` given ``D | {a}``, as ``(variable, conditioning set)`` keys."""
    (a, b), cond = edge.conditioned, edge.conditioning
    return (a, cond | {b}), (b, cond | {a})


def _read_columns(trees, discrete) -> set:
    """The columns, as ``(variable, conditioning set)`` keys, that some edge
    of ``trees`` reads, found by walking the trees backwards.

    ``trees`` holds each tree's ``(edge, independent)`` pairs and
    ``discrete[j]`` whether variable ``j`` is discrete (so is every column
    of it).  A dependent edge reads both of its sides.  An independence
    edge reads a discrete side, since its contribution is the log ratio of
    that side's masses, and a continuous side only when it passes it
    through to an output that is itself read.  Nothing reads the outputs
    of the last tree.
    """
    read = set()
    for tree in reversed(trees):
        for edge, independent in tree:
            for j, out in zip(edge.conditioned, _outputs(edge)):
                if not independent or discrete[j] or out in read:
                    read.add((j, edge.conditioning))
    return read


class _Columns:
    """Conditional pseudo-observations of a vine traversal, keyed by
    (variable, conditioning set): the margins' CDFs to start with, then
    the sides each edge ``(a, b; D)`` conditions for the next tree, ``a``
    given ``D | {b}`` and ``b`` given ``D | {a}``.  A column is its values
    at the observed code and just below it, the latter None when the
    column is continuous, as :func:`~vinerisk.bicop.bicop_condition` gives.
    A column no edge reads is not computed; an edge that takes one as a
    side sees a constant there, which an independence edge never uses, and
    the column it passes on is held on the combinations of its other side.

    A column depends only on the base columns of its variable and
    conditioning set, so it is held once per distinct combination of those
    of them that vary in this call (have more than one distinct value).
    Each such set of base columns has a key, ``(inverse, first)``: every
    row's combination and a row holding each.  Keys are made on first use
    and live as long as the traversal.
    """

    def __init__(self, margins, distinct):
        self._distinct = distinct
        self._n = distinct[0][2].size
        self._keys = {}
        self._cols = {}
        for j, (m, (values, _, _)) in enumerate(zip(margins, distinct)):
            up = np.asarray(m.cdf(values), dtype=float)
            lo = np.asarray(m.cdf_left(values), dtype=float) if m.is_discrete else None
            self._cols[(j, frozenset())] = (self._varying({j}), up, lo)
        # what an edge sees for a side no edge reads: a constant on the one
        # combination of no varying column (no combination when there are no rows)
        self._unread = (frozenset(), np.full(min(self._n, 1), 0.5), None)

    def _varying(self, columns) -> frozenset:
        return frozenset(j for j in columns if self._distinct[j][0].size > 1)

    def _key(self, s: frozenset, parts=()) -> tuple:
        """The key of the varying columns ``s``: one combination when ``s``
        is empty, a column's own distinct values when it holds one, else the
        rows themselves when a member is distinct on every row, and otherwise
        the distinct pairs of ``parts``, the keys of two subsets covering
        ``s``."""
        if s not in self._keys:
            n = self._n
            if not s:
                key = np.zeros(n, dtype=np.intp), np.arange(min(n, 1))
            elif len(s) == 1:
                (j,) = s
                _, first, inverse = self._distinct[j]
                key = inverse, first
            elif any(self._distinct[j][0].size == n for j in s):
                key = np.arange(n), np.arange(n)
            else:
                (ia, _), (ib, fb) = parts
                # codes below n**2: no overflow under 3e9 rows
                _, first, inverse = np.unique(
                    ia * fb.size + ib, return_index=True, return_inverse=True
                )
                key = inverse, first
            self._keys[s] = key
        return self._keys[s]

    def pair(self, edge: Edge) -> PairObs:
        """The pair of an edge's conditioned variables given its conditioning
        set, on the distinct combinations of the edge's varying columns,
        with each row's combination as its row map."""
        sides = self._sides(edge)
        keys = [self._key(t) for t, _, _ in sides]
        s = sides[0][0] | sides[1][0]
        inverse, first = self._key(s, keys)
        gathered = []
        for (t, plus, minus), key in zip(sides, keys):
            if t != s:
                rows = key[0][first]
                plus, minus = plus[rows], None if minus is None else minus[rows]
            gathered.append((plus, minus))
        (up, ulo), (vp, vlo) = gathered
        return PairObs(
            up, vp, ulo, vlo, u_disc=ulo is not None, v_disc=vlo is not None, rows=inverse
        )

    def _sides(self, edge: Edge) -> list:
        return [self._cols.get((j, edge.conditioning), self._unread) for j in edge.conditioned]

    def store(self, edge: Edge, u_given, v_given) -> None:
        """Keep an edge's conditioned sides, on the combinations of
        :meth:`pair`, as two columns of the next tree; a None side is not
        kept."""
        u_side, v_side = self._sides(edge)
        s = u_side[0] | v_side[0]
        for out, given in zip(_outputs(edge), (u_given, v_given)):
            if given is not None:
                self._cols[out] = (s, *given)


def _edge_candidates(families, rotation_tau: float, any_discrete: bool, binary: bool):
    """Family/rotation combinations admissible for an edge.

    The rotatable families have positive-dependence base forms, so only
    the rotations that give the empirical tau's sign are tried; the other
    families cover both signs unrotated.  The Student-t is reserved for
    fully continuous pairs.  Two binary sides get only the first admissible
    candidate (under the default families the Gaussian: the tetrachoric
    correlation), since every one-parameter family fits their 2 x 2 table.
    """
    out = []
    for fam in families:
        if fam == "indep" or (fam == "studentt" and any_discrete):
            continue
        if fam in ROTATABLE:
            out.extend((fam, rot) for rot in ROTATIONS if rotated_tau(rotation_tau, rot) >= 0.0)
        else:
            out.append((fam, 0))
    return out[:1] if binary else out


def _fit_edge(
    obs: PairObs, level: int, n: int, config: FitConfig
) -> tuple[Bicop, float, float]:
    """Pick the score-minimizing family/rotation for one edge:
    ``(copula, loglik, score)``.

    ``obs`` holds the edge on the distinct combinations of its inputs,
    with its row map (:class:`~vinerisk.bicop.PairObs`): every kernel runs
    on the combinations, and the likelihoods and tau are the rows'.
    Every admissible candidate is ranked by its score at the tau-inversion
    start (:func:`~vinerisk.bicop.bicop_start`), and only the
    ``SCREEN_KEEP`` best, one more when both sides are discrete, get the
    bounded MLE of :func:`~vinerisk.bicop.bicop_fit`, in candidate order,
    from that start (the ``preselect_families`` step of vinecopulib).  A fitted candidate's
    loglik is the maximum ``bicop_fit`` returns, net of any discrete side's
    masses, so independence contributes zero and deviances stay comparable
    across continuous, mixed and discrete pairs.

    A side is binary when it is discrete with at most two distinct ``plus``
    values.  Two binary sides get one fit.
    """
    indep_ll = bicop_loglik(INDEP, obs)
    indep_score = -2.0 * indep_ll + edge_penalty(level, 0, n, config.psi0, True)
    best = (INDEP, indep_ll, indep_score)
    tau_emp = empirical_tau(obs)
    if config.indep_test_level is not None:
        if tau_independence_pvalue(tau_emp, obs.n) >= config.indep_test_level:
            return best

    def score(cop, ll):
        return -2.0 * ll + edge_penalty(level, cop.npar, n, config.psi0, False)

    sides = (obs.u_plus, obs.v_plus)
    binary = obs.u_disc and obs.v_disc and all(np.unique(s).size <= 2 for s in sides)
    starts = []
    for fam, rot in _edge_candidates(config.families, tau_emp, obs.u_disc or obs.v_disc, binary):
        try:
            starts.append(bicop_start(fam, rot, obs, tau_emp))
        except (ValueError, FloatingPointError):
            continue
    ranked = sorted(enumerate(starts), key=lambda item: score(*item[1]))
    keep = SCREEN_KEEP + (obs.u_disc and obs.v_disc)
    for _, start in sorted(ranked[:keep]):
        try:
            cop, ll = bicop_fit(start[0].family, start[0].rotation, obs, start=start)
        except (ValueError, FloatingPointError):
            continue
        cand = score(cop, ll)
        if cand < best[2] - 1e-12:
            best = (cop, ll, cand)
    return best


@dataclass
class VineModel:
    """A fitted (possibly truncated) vine: margins, structure and edge copulas."""

    margins: list
    structure: VineStructure
    trees: list[list[FittedEdge]]
    truncation: int
    nobs: int
    psi0: float

    @property
    def d(self) -> int:
        return self.structure.d

    def all_edges(self):
        for tree in self.trees:
            yield from tree

    def to_dict(self) -> dict:
        return {
            "margins": [m.to_dict() for m in self.margins],
            "structure": self.structure.to_dict(),
            "trees": [[fe.to_dict() for fe in tree] for tree in self.trees],
            "truncation": self.truncation,
            "nobs": self.nobs,
            "psi0": self.psi0,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "VineModel":
        return cls(
            margins=[margin_from_dict(m) for m in obj["margins"]],
            structure=VineStructure.from_dict(obj["structure"]),
            trees=[[FittedEdge.from_dict(fe) for fe in tree] for tree in obj["trees"]],
            truncation=int(obj["truncation"]),
            nobs=int(obj["nobs"]),
            psi0=float(obj["psi0"]),
        )


def fit_vine(
    x: np.ndarray,
    margins: list,
    structure: VineStructure,
    config: Optional[FitConfig] = None,
) -> VineModel:
    """Two-stage fit: margins are given, edge copulas are selected tree by
    tree with the criterion of :func:`edge_penalty`.

    With the default greedy truncation search, fitting stops after the
    first tree whose edges all come out independent; the full search fits
    every level and drops trailing independence trees afterwards.

    Each edge is fitted on the distinct combinations of its varying input
    columns, mapped to the rows by its pair's row map (:meth:`_Columns.pair`),
    and that same pair conditions its sides for the next tree.
    """
    config = config or FitConfig()
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < MIN_ROWS:
        raise TooFewObservations(f"vine fit needs at least {MIN_ROWS} rows, got {n}")
    if d != structure.d or len(margins) != d:
        raise ValueError("margins/structure dimension mismatch")
    cols = _Columns(margins, distinct_columns(x))
    discrete = [m.is_discrete for m in margins]
    trees: list[list[FittedEdge]] = []
    truncation = 0
    for level, tree in enumerate(structure.trees, start=1):
        pairs = [cols.pair(edge) for edge in tree]
        fitted = [
            FittedEdge(edge, *_fit_edge(obs, level, n, config)) for edge, obs in zip(tree, pairs)
        ]
        trees.append(fitted)
        any_dependence = any(fe.bicop.family != "indep" for fe in fitted)
        if any_dependence:
            truncation = level
        elif config.truncation_search == "greedy":
            break
        if level < len(structure.trees):
            read = _read_columns([[(e, False) for e in structure.trees[level]]], discrete)
            for fe, obs in zip(fitted, pairs):
                sides = [out in read for out in _outputs(fe.edge)]
                cols.store(fe.edge, *bicop_condition(fe.bicop, obs, sides)[1:])
    trees = trees[:truncation]
    return VineModel(
        margins=margins,
        structure=structure,
        trees=trees,
        truncation=truncation,
        nobs=n,
        psi0=config.psi0,
    )


def vine_logdensity(model: VineModel, x: np.ndarray, distinct=None) -> np.ndarray:
    """Log joint density (mixed density/mass) at each row of ``x``.

    ``distinct`` is :func:`distinct_columns` of ``x``, for a caller that
    scores the same rows under several vines; it is computed when not given.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.d:
        raise ValueError(f"expected {model.d} columns, got {x.shape[1]}")
    distinct = distinct_columns(x) if distinct is None else distinct
    logf = np.zeros(x.shape[0])
    for m, (values, _, inverse) in zip(model.margins, distinct):
        dens = np.asarray(m.pdf(values), dtype=float)
        logf += np.log(np.maximum(dens, CONTRIB_FLOOR))[inverse]
    cols = _Columns(model.margins, distinct)
    read = _read_columns(
        [[(fe.edge, fe.bicop.family == "indep") for fe in tree] for tree in model.trees],
        [m.is_discrete for m in model.margins],
    )
    for fe in model.all_edges():
        if not any((j, fe.edge.conditioning) in read for j in fe.edge.conditioned):
            continue  # independence of two continuous sides, passed on to no one: 0
        obs = cols.pair(fe.edge)
        sides = [out in read for out in _outputs(fe.edge)]
        contrib, u_given, v_given = bicop_condition(fe.bicop, obs, sides)
        logf += contrib[obs.rows]
        cols.store(fe.edge, u_given, v_given)
    return logf


def vine_copula_loglik(model: VineModel) -> float:
    """Training-sample copula log likelihood accumulated during fitting."""
    return float(sum(fe.loglik for fe in model.all_edges()))


def vine_num_params(model: VineModel) -> int:
    return int(sum(fe.bicop.npar for fe in model.all_edges()))


def vine_mbic(model: VineModel, n: Optional[int] = None) -> float:
    """Criterion value of the fitted vine: ``-2 loglik + nu log n`` plus a
    prior term rewarding sparsity more strongly in deeper trees.

    Trees beyond the truncation level count as all-independence.
    """
    n = model.nobs if n is None else n
    ll = vine_copula_loglik(model)
    nu = vine_num_params(model)
    d = model.d
    prior = 0.0
    for level in range(1, d):
        psi_m = model.psi0**level
        edges_at_level = d - level
        if level <= len(model.trees):
            q = sum(1 for fe in model.trees[level - 1] if fe.bicop.family != "indep")
        else:
            q = 0
        prior += q * math.log(psi_m) + (edges_at_level - q) * math.log1p(-psi_m)
    return -2.0 * ll + nu * math.log(n) - 2.0 * prior


# the 128 x 128 product rule of model_spearman
_SPEARMAN_RULE = _gauss_legendre(128)


def _quadrature_spearman(cop: Bicop, rule) -> float:
    x, w = rule
    u, v = x[:, None], x[None, :]
    if cop.family == "studentt":
        # The t's cdf averages 76-159 bivariate-normal CDFs: 0.2-1.2 s on
        # this grid.  Integrating C by parts in v gives the same rho from
        # its closed-form h-function in milliseconds.
        return float(3.0 - 12.0 * w @ (v * cop.hfunc(u, v, "1|2")) @ w)
    return float(12.0 * w @ cop.cdf(u, v) @ w - 3.0)


def model_spearman(cop: Bicop) -> float:
    """Spearman's rho implied by a pair-copula, ``12 * int int C - 3``
    (Nelsen 2006, Thm 5.1.6).

    Deterministic.  The Gaussian's is exact, ``6/pi * asin(rho/2)``; for
    the other families the integral is taken by a fixed 128 x 128
    Gauss-Legendre product rule, within 5e-6 of the exact value over every
    family's parameter range.
    """
    if cop.family == "gaussian":
        return 6.0 / math.pi * math.asin(cop.params[0] / 2.0)
    return _quadrature_spearman(cop, _SPEARMAN_RULE)


def edge_report(model: VineModel):
    """One row per fitted edge: label, family, parameters, tau, Spearman.

    The Spearman column is :func:`model_spearman`'s.
    """
    rows = []
    for level, tree in enumerate(model.trees, start=1):
        for fe in tree:
            rows.append(
                {
                    "tree": level,
                    "edge": fe.edge.label(),
                    "family": fe.bicop.family,
                    "rotation": fe.bicop.rotation,
                    "params": list(fe.bicop.params),
                    "tau": fe.bicop.tau,
                    "spearman": model_spearman(fe.bicop),
                    "loglik": fe.loglik,
                }
            )
    return rows
