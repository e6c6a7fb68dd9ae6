"""Exception hierarchy shared across the package."""


class ZadrError(Exception):
    """Base class for all package errors."""


class EmptyInput(ZadrError):
    pass


class NegativeEntry(ZadrError):
    pass


class RowSumViolation(ZadrError):
    pass


class DegenerateRow(ZadrError):
    """A row with fewer than two strictly positive components."""


class ZeroInTransform(ZadrError):
    """A log-ratio transform was asked to take the log of a zero."""


class DomainError(ZadrError):
    """Argument outside the mathematical domain of a function."""


class NonFiniteObjective(ZadrError):
    """Objective returned NaN/Inf and step-shrinkage recovery failed."""


class SingularDesign(ZadrError):
    pass


class NotPositiveDefinite(ZadrError):
    """An information or covariance matrix that must be positive definite is not."""


class InsufficientRows(ZadrError):
    pass


class NoZeroFreeRows(ZadrError):
    pass


class KindMismatch(ZadrError):
    pass


class ShapeMismatch(ZadrError):
    pass


class SchemaMismatch(ZadrError):
    pass


class ModelDataMismatch(ZadrError):
    """A saved model's log-likelihood does not recompute on the given data."""


class TooFewSuccessfulReplicates(ZadrError):
    pass


class NegativeStat(ZadrError):
    """Likelihood-ratio statistic negative beyond numerical tolerance."""


class TernaryRequiresThree(ZadrError):
    pass
