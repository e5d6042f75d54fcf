"""Exception hierarchy shared by all dirtybench modules."""


class DirtyBenchError(Exception):
    """Base class for every error raised by this package."""


class ParseError(DirtyBenchError):
    """Malformed input file (arity mismatch, bad token, ...)."""


class EmptyInputError(DirtyBenchError):
    """An operation received no rows to work with."""


class SchemaError(DirtyBenchError):
    """Schema constraint violated (bad column, wrong kind, arity mismatch)."""


class RuleError(DirtyBenchError):
    """Malformed or unbindable functional-dependency rule."""


class ConfigurationError(DirtyBenchError):
    """An operation was requested with an unusable configuration."""


class InjectionImpossibleError(DirtyBenchError):
    """The requested corruption cannot be produced on this dataset."""


class ImputationImpossibleError(DirtyBenchError):
    """A column is entirely missing, so no fill value can be estimated."""


class ParameterError(DirtyBenchError):
    """An algorithm hyperparameter is out of its valid range."""


class UnsupportedTaskError(DirtyBenchError):
    """The algorithm does not support this dataset shape (e.g. >2 classes)."""


class DivergenceError(DirtyBenchError):
    """Iterative fitting produced non-finite values."""


class SingularityError(DirtyBenchError):
    """Normal equations are singular and the ridge fallback is disabled."""
