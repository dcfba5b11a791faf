"""Regular vine models on mixed continuous/ordinal margins.

The joint density factorizes over a sequence of trees whose edges carry
bivariate copulas.  One function, :func:`~vinerisk.bicop.bicop_condition`,
takes each edge's step: its log density contributions and its conditioned
pseudo-observations for the next tree, through h-functions, or through CDF
differences and probability ratios wherever a side is discrete.  This
module keeps the bookkeeping of which columns each edge joins.  Structure
selection follows the usual recipe: a maximum spanning tree per level on absolute
(partial) latent correlations under the proximity condition.  Families and
the truncation level are chosen by a Bayesian-flavoured information
criterion with a geometrically decaying prior on non-independence edges.
Margins are evaluated once per distinct value of each column and scattered
back to the rows, so grids whose rows share values cost no repeated work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .bicop import (
    FAMILIES,
    INDEP,
    PairObs,
    ROTATABLE,
    ROTATIONS,
    Bicop,
    bicop_condition,
    bicop_contributions,  # noqa: F401  (kept importable here: perfbench/tracing.py wraps it)
    bicop_fit,
    bicop_loglik,
    empirical_tau,
    rotated_tau,
)
from .errors import TooFewObservations
from .latent import partial_correlation
from .margins import margin_from_dict

DEFAULT_FAMILIES = ("indep", "gaussian", "studentt", "clayton", "gumbel", "frank", "joe")


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


@dataclass
class VineStructure:
    """Tree sequence of a regular vine on ``d`` variables."""

    d: int
    trees: list[list[Edge]]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "trees": [
                [
                    {
                        "conditioned": list(e.conditioned),
                        "conditioning": sorted(e.conditioning),
                    }
                    for e in tree
                ]
                for tree in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "VineStructure":
        trees = [
            [
                Edge(tuple(e["conditioned"]), frozenset(e["conditioning"]))
                for e in tree
            ]
            for tree in obj["trees"]
        ]
        return cls(d=int(obj["d"]), trees=trees)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[ri] = rj
        return True


@dataclass(frozen=True)
class _Node:
    """A node during structure selection: a variable set plus the pair of
    previous-level node ids it joins (for the proximity condition)."""

    vars: frozenset
    ends: tuple


def select_structure(corr: np.ndarray) -> VineStructure:
    """Maximum spanning tree per level on absolute (partial) correlations.

    Tie-breaks are deterministic: among equal weights the lexicographically
    smallest conditioned pair (then conditioning set) wins.
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
                conditioning = ni.vars & nj.vars
                conditioned = tuple(sorted(ni.vars ^ nj.vars))
                if len(conditioned) != 2:
                    continue
                weight = abs(
                    partial_correlation(corr, conditioned[0], conditioned[1], conditioning)
                )
                candidates.append(
                    (
                        -weight,
                        conditioned,
                        tuple(sorted(conditioning)),
                        i,
                        j,
                    )
                )
        candidates.sort()
        uf = _UnionFind(len(nodes))
        chosen = []
        for _, conditioned, conditioning, i, j in candidates:
            if uf.union(i, j):
                chosen.append((conditioned, frozenset(conditioning), i, j))
            if len(chosen) == len(nodes) - 1:
                break
        chosen.sort(key=lambda c: (c[0], tuple(sorted(c[1]))))
        tree = [Edge(cd, cg) for cd, cg, _, _ in chosen]
        trees.append(tree)
        nodes = [
            _Node(vars=Edge(cd, cg).all_vars, ends=(i, j)) for cd, cg, i, j in chosen
        ]
    return VineStructure(d=d, trees=trees)


# ---------------------------------------------------------------------------
# fitting configuration and the information criterion
# ---------------------------------------------------------------------------


@dataclass
class FitConfig:
    """Knobs shared by vine and classifier fitting."""

    families: Sequence[str] = DEFAULT_FAMILIES
    psi0: float = 0.9
    truncation_search: str = "greedy"  # "greedy" or "full"
    indep_test_level: Optional[float] = 0.01
    margin_method: str = "kernel"  # continuous margins: "kernel" or "empirical"
    priors: str = "equal"  # classifier priors: "equal" or "empirical"
    seed: int = 0

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
            "conditioned": list(self.edge.conditioned),
            "conditioning": sorted(self.edge.conditioning),
            "bicop": self.bicop.to_dict(),
            "loglik": self.loglik,
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FittedEdge":
        return cls(
            edge=Edge(tuple(obj["conditioned"]), frozenset(obj["conditioning"])),
            bicop=Bicop.from_dict(obj["bicop"]),
            loglik=float(obj["loglik"]),
            score=float(obj["score"]),
        )


def _distinct_columns(x) -> list:
    """``(values, inverse)`` per column: its distinct values and the index
    that scatters results on them back to the rows."""
    return [np.unique(x[:, j], return_inverse=True) for j in range(x.shape[1])]


class _Columns:
    """Conditional pseudo-observations of a vine traversal, keyed by
    (variable, conditioning set): the margins' CDFs to start with, then
    the sides each edge ``(a, b; D)`` conditions for the next tree, ``a``
    given ``D | {b}`` and ``b`` given ``D | {a}``.  A column is its values
    at the observed code and just below it, the latter None when the
    column is continuous."""

    def __init__(self, margins, distinct):
        self._cols = {}
        for j, (m, (values, inverse)) in enumerate(zip(margins, distinct)):
            up = np.asarray(m.cdf(values), dtype=float)[inverse]
            lo = np.asarray(m.cdf_left(values), dtype=float)[inverse] if m.is_discrete else None
            self._cols[(j, frozenset())] = (up, lo)

    def of(self, edge: Edge) -> PairObs:
        """The pair of an edge's conditioned variables given its conditioning set."""
        (up, ulo), (vp, vlo) = (self._cols[(j, edge.conditioning)] for j in edge.conditioned)
        return PairObs(up, vp, ulo, vlo, u_disc=ulo is not None, v_disc=vlo is not None)

    def store(self, edge: Edge, given: PairObs) -> None:
        """Keep an edge's conditioned pair as two columns of the next tree."""
        a, b = edge.conditioned
        u_minus = given.u_minus if given.u_disc else None
        v_minus = given.v_minus if given.v_disc else None
        self._cols[(a, edge.conditioning | {b})] = (given.u_plus, u_minus)
        self._cols[(b, edge.conditioning | {a})] = (given.v_plus, v_minus)


def _edge_candidates(families, rotation_tau: float, any_discrete: bool):
    """Family/rotation combinations admissible for an edge.

    The rotatable families have positive-dependence base forms, so only
    the rotations that give the empirical tau's sign are tried; the other
    families cover both signs unrotated.  The Student-t is reserved for
    fully continuous pairs.
    """
    out = []
    for fam in families:
        if fam == "indep" or (fam == "studentt" and any_discrete):
            continue
        if fam in ROTATABLE:
            out.extend((fam, rot) for rot in ROTATIONS if rotated_tau(rotation_tau, rot) >= 0.0)
        else:
            out.append((fam, 0))
    return out


def _fit_edge(
    obs: PairObs, level: int, n: int, config: FitConfig
) -> tuple[Bicop, float, float]:
    """Pick the score-minimizing family/rotation for one edge.

    Edge log likelihoods are normalized by the conditional masses of any
    discrete side, so an independence copula always contributes zero and
    deviances stay comparable across continuous, mixed and discrete pairs.
    """
    mass_total = obs.log_mass_total()
    indep_ll = bicop_loglik(INDEP, obs) - mass_total
    indep_score = -2.0 * indep_ll + edge_penalty(level, 0, n, config.psi0, True)
    best = (INDEP, indep_ll, indep_score)
    tau_emp = empirical_tau(obs)
    if config.indep_test_level is not None:
        if tau_independence_pvalue(tau_emp, obs.n) >= config.indep_test_level:
            return best
    for fam, rot in _edge_candidates(config.families, tau_emp, obs.u_disc or obs.v_disc):
        try:
            cop = bicop_fit(fam, rot, obs, tau=tau_emp)
        except (ValueError, FloatingPointError):
            continue
        ll = bicop_loglik(cop, obs) - mass_total
        score = -2.0 * ll + edge_penalty(level, cop.npar, n, config.psi0, False)
        if score < best[2] - 1e-12:
            best = (cop, ll, score)
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
    """
    config = config or FitConfig()
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < 10:
        raise TooFewObservations(f"vine fit needs at least 10 rows, got {n}")
    if d != structure.d or len(margins) != d:
        raise ValueError("margins/structure dimension mismatch")
    cols = _Columns(margins, _distinct_columns(x))
    trees: list[list[FittedEdge]] = []
    truncation = 0
    for level, tree in enumerate(structure.trees, start=1):
        pairs = [cols.of(edge) for edge in tree]
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
            for fe, obs in zip(fitted, pairs):
                cols.store(fe.edge, bicop_condition(fe.bicop, obs)[1])
    trees = trees[:truncation]
    return VineModel(
        margins=margins,
        structure=structure,
        trees=trees,
        truncation=truncation,
        nobs=n,
        psi0=config.psi0,
    )


def vine_logdensity(model: VineModel, x: np.ndarray) -> np.ndarray:
    """Log joint density (mixed density/mass) at each row of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.d:
        raise ValueError(f"expected {model.d} columns, got {x.shape[1]}")
    distinct = _distinct_columns(x)
    logf = np.zeros(x.shape[0])
    for m, (values, inverse) in zip(model.margins, distinct):
        dens = np.asarray(m.pdf(values), dtype=float)
        logf += np.log(np.maximum(dens, 1e-300))[inverse]
    cols = _Columns(model.margins, distinct)
    for fe in model.all_edges():
        contrib, conditioned = bicop_condition(fe.bicop, cols.of(fe.edge))
        logf += contrib
        cols.store(fe.edge, conditioned)
    return logf


def vine_loglik(model: VineModel, x: np.ndarray) -> float:
    return float(np.sum(vine_logdensity(model, x)))


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


def independence_vine(model: VineModel) -> VineModel:
    """The same margins/structure with every edge forced to independence."""
    return VineModel(
        margins=model.margins,
        structure=model.structure,
        trees=[],
        truncation=0,
        nobs=model.nobs,
        psi0=model.psi0,
    )


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


# the 128 x 128 product rule of model_spearman
_SPEARMAN_RULE = _gauss_legendre(128)


def _quadrature_spearman(cop: Bicop, rule) -> float:
    x, w = rule
    u, v = x[:, None], x[None, :]
    if cop.family == "studentt":
        # The t's cdf is a per-point integral; integrating C by parts in v
        # gives the same rho from its closed-form h-function instead.
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
