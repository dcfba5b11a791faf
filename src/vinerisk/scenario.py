"""Scenario analysis: posterior risk along grids of one or two variables.

A base profile fixes every variable; a grid sweeps one (curve) or two
(surface) of them and the classifier's adverse-class posterior is
evaluated at each grid point.  Surfaces also flag where the 0.5
iso-probability line crosses grid cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classifier import ClassifierModel, posterior
from .data import Schema
from .errors import OrdinalOutOfRange
from .margins import ordinal_codes

#: Cut points used to annotate BMI axes (metadata only, never logic).
BMI_CATEGORIES = {
    "underweight": [None, 18.5],
    "normal": [18.5, 25.0],
    "overweight": [25.0, 30.0],
    "obese": [30.0, None],
}

CONTOUR_LEVEL = 0.5
#: Corners within this distance of the level count as on it, not across it,
#: so a surface pinned at exactly 0.5 reports no contour.
CONTOUR_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid for one variable: either an equally spaced range
    (continuous) or an explicit level list (ordinal)."""

    variable: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    points: int = 200
    levels: Optional[tuple] = None

    @classmethod
    def linspace(cls, variable: str, lo: float, hi: float, points: int = 200):
        if not lo < hi:
            raise ValueError("grid needs lo < hi")
        if points < 2:
            raise ValueError("grid needs at least 2 points")
        return cls(variable=variable, lo=float(lo), hi=float(hi), points=int(points))

    @classmethod
    def level_list(cls, variable: str, levels):
        levels = tuple(ordinal_codes(list(levels)).tolist())
        if not levels:
            raise ValueError("level list must be nonempty")
        return cls(variable=variable, levels=levels)

    @property
    def values(self) -> np.ndarray:
        if self.levels is not None:
            return np.asarray(self.levels, dtype=float)
        return np.linspace(self.lo, self.hi, self.points)

    def validate(self, schema: Schema) -> None:
        spec = schema.variables[schema.index_of(self.variable)]
        if self.levels is not None:
            if spec.kind != "ordinal":
                raise ValueError(f"{self.variable} is continuous; use a range grid")
            for lev in self.levels:
                if not 1 <= lev <= spec.levels:
                    raise OrdinalOutOfRange(
                        f"level {lev} invalid for {self.variable} (1..{spec.levels})"
                    )
        elif spec.kind == "ordinal":
            raise ValueError(f"{self.variable} is ordinal; use a level-list grid")


@dataclass(frozen=True)
class BaseProfile:
    """One value per schema variable; the scenario's held-fixed covariates."""

    values: dict

    def row(self, schema: Schema) -> np.ndarray:
        out = np.empty(schema.d)
        for j, spec in enumerate(schema.variables):
            if spec.name not in self.values:
                raise ValueError(f"profile missing variable {spec.name!r}")
            v = float(self.values[spec.name])
            if spec.kind == "ordinal":
                if v != int(v) or not 1 <= int(v) <= spec.levels:
                    raise OrdinalOutOfRange(
                        f"profile value {v} invalid for {spec.name} (1..{spec.levels})"
                    )
            out[j] = v
        return out


@dataclass
class RiskCurve:
    variable: str
    values: np.ndarray
    probs: np.ndarray

    def rows(self) -> list[dict]:
        return [
            {"value": float(v), "probability": float(p)}
            for v, p in zip(self.values, self.probs)
        ]


@dataclass
class RiskSurface:
    var1: str
    var2: str
    values1: np.ndarray
    values2: np.ndarray
    probs: np.ndarray  # shape (len(values1), len(values2)), row-major in var1
    on_contour: np.ndarray = field(init=False)
    contour_present: bool = field(init=False)

    def __post_init__(self):
        cross = _crossing_cells(self.probs)
        flags = np.zeros(self.probs.shape, dtype=bool)
        if cross.any():
            flags[:-1, :-1] |= cross
            flags[1:, :-1] |= cross
            flags[:-1, 1:] |= cross
            flags[1:, 1:] |= cross
        self.on_contour = flags
        self.contour_present = bool(cross.any())

    def rows(self) -> list[dict]:
        out = []
        for i, v1 in enumerate(self.values1):
            for j, v2 in enumerate(self.values2):
                out.append(
                    {
                        "v1": float(v1),
                        "v2": float(v2),
                        "probability": float(self.probs[i, j]),
                        "on_contour": bool(self.on_contour[i, j]),
                    }
                )
        return out

    def metadata(self) -> dict:
        meta = {
            "var1": self.var1,
            "var2": self.var2,
            "contour_level": CONTOUR_LEVEL,
            "contour_present": self.contour_present,
        }
        for key, name in (("var1", self.var1), ("var2", self.var2)):
            if name.lower() == "bmi":
                meta[f"{key}_categories"] = BMI_CATEGORIES
        return meta


def _crossing_cells(p: np.ndarray) -> np.ndarray:
    """Cells whose corner probabilities strictly straddle the 0.5 level."""
    corners = np.stack(
        [p[:-1, :-1], p[1:, :-1], p[:-1, 1:], p[1:, 1:]]
    )
    below = corners.min(axis=0) < CONTOUR_LEVEL - CONTOUR_TOL
    above = corners.max(axis=0) > CONTOUR_LEVEL + CONTOUR_TOL
    return below & above


def _adverse_index(model: ClassifierModel, adverse_class: Optional[int]) -> int:
    if adverse_class is None:
        adverse_class = model.classes[-1]
    return model.class_index(adverse_class)


def risk_curve(
    model: ClassifierModel,
    base: BaseProfile,
    grid: GridSpec,
    adverse_class: Optional[int] = None,
) -> RiskCurve:
    """Adverse-class posterior along one variable's grid, others held at base."""
    grid.validate(model.schema)
    row = base.row(model.schema)
    j = model.schema.index_of(grid.variable)
    values = grid.values
    x = np.tile(row, (values.size, 1))
    x[:, j] = values
    probs = posterior(model, x)[:, _adverse_index(model, adverse_class)]
    return RiskCurve(variable=grid.variable, values=values, probs=probs)


def risk_surface(
    model: ClassifierModel,
    base: BaseProfile,
    grid1: GridSpec,
    grid2: GridSpec,
    adverse_class: Optional[int] = None,
) -> RiskSurface:
    """Adverse-class posterior over the product of two variable grids."""
    if grid1.variable == grid2.variable:
        raise ValueError("surface grids must use two distinct variables")
    grid1.validate(model.schema)
    grid2.validate(model.schema)
    row = base.row(model.schema)
    j1 = model.schema.index_of(grid1.variable)
    j2 = model.schema.index_of(grid2.variable)
    v1 = grid1.values
    v2 = grid2.values
    g1, g2 = np.meshgrid(v1, v2, indexing="ij")
    x = np.tile(row, (g1.size, 1))
    x[:, j1] = g1.ravel()
    x[:, j2] = g2.ravel()
    probs = posterior(model, x)[:, _adverse_index(model, adverse_class)]
    return RiskSurface(
        var1=grid1.variable,
        var2=grid2.variable,
        values1=v1,
        values2=v2,
        probs=probs.reshape(v1.size, v2.size),
    )
