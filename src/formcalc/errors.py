"""Exception taxonomy shared by all modules."""


class FormcalcError(Exception):
    """Base class for all library errors."""


class BackendMismatch(FormcalcError):
    """Operands live on different backends or incompatible shapes."""


class Uncertifiable(FormcalcError):
    """A tail, growth rule or membership question is outside the
    certifiable rule classes.  Internally three-valued answers surface
    through this exception so the public contracts stay boolean."""


class SeriesDiverges(FormcalcError):
    """A certified sum was requested for a divergent series.  Carries the
    divergence certificate as ``certificate``."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotPositive(FormcalcError):
    """Positivity / Hermitian-ness precondition violated."""


class LowerBoundError(FormcalcError):
    """A positive lower bound was required but gamma <= 0."""


class DomainError(FormcalcError):
    """Domain membership or density precondition violated."""


class NotEqual(FormcalcError, ValueError):
    """Two operators required to compare equal do not."""


class NotNormalized(FormcalcError, ValueError):
    """Probability weights do not sum to one."""
