"""Exception types raised by the public API."""


class VineRiskError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(VineRiskError):
    """Schema definition is inconsistent or refers to unknown columns."""


class MissingColumn(SchemaError):
    """A column required by the schema is absent from the input."""


class NonNumericCell(VineRiskError):
    """A cell could not be parsed as a number."""


class MissingValue(VineRiskError):
    """An empty cell was found; missing data is not supported."""


class OrdinalOutOfRange(VineRiskError):
    """An ordinal code lies outside 1..levels."""


class EmptyDataset(VineRiskError):
    """The input contains no data rows."""


class DegenerateMargin(VineRiskError):
    """A margin cannot be fit (e.g. a constant continuous column)."""


class TooFewObservations(VineRiskError):
    """Not enough rows for the requested estimate."""


class DegenerateLabels(VineRiskError):
    """The label column does not contain both classes."""


class NearSingular(VineRiskError):
    """A (partial) correlation too close to +/-1 for stable recursion."""


class NoConvergence(VineRiskError):
    """An iterative numerical routine failed to converge."""
