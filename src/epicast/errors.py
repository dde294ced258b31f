"""Exception types shared across the package."""


class EpicastError(Exception):
    """Base class for all epicast errors."""


class ParseError(EpicastError):
    """Malformed input file: bad header, bad row, bad date, bad number."""


class ValidationError(EpicastError):
    """Structurally readable input that violates a series invariant."""


class InsufficientDataError(EpicastError):
    """Operation requires more observations than the series provides."""


class DomainError(EpicastError):
    """Inputs outside the mathematical domain of a formula."""


class FitError(EpicastError):
    """Model estimation failed to produce usable parameters."""


class TrainingError(FitError):
    """Network training produced a non-finite gradient. The descent's error
    carries the epoch it stopped at as ``epoch``, which pickling keeps, so
    that the pieces of one stack trained apart can report the earliest."""
