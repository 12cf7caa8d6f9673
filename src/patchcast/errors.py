"""Exception family for the package.

Every error raised on purpose derives from PatchcastError so callers (and the
CLI exit-code mapping) can tell deliberate rejections apart from genuine bugs.
"""


class PatchcastError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ShapeError(PatchcastError, ValueError):
    """Operands have incompatible or unexpected shapes."""


class ContractError(PatchcastError, ValueError):
    """An API was called in a way its contract forbids (wrong role, missing
    gradients, non-scalar loss, mixed dtypes, ...)."""


class UnknownNodeError(ContractError):
    """backward() was asked to differentiate a tensor the tape never produced."""


class DegenerateBatchError(ContractError):
    """Batch-kind normalization in train mode saw a batch of fewer than two."""


class NumericError(PatchcastError, ArithmeticError):
    """A value that must be finite came out NaN or infinite."""


class ConfigError(PatchcastError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(PatchcastError, ValueError):
    """Input data is malformed (unparseable rows, non-finite samples, ...)."""


class InsufficientDataError(DataError):
    """A series is too short for the requested window geometry."""


class RateError(DataError):
    """A sampling-rate conversion was requested that the data cannot support."""


class DivisibilityError(DataError):
    """A window length is not a whole multiple of the patch length."""


class CheckpointError(PatchcastError):
    """Base class for checkpoint I/O problems."""


class CheckpointFormatError(CheckpointError):
    """The file does not start with the expected magic, or a field is garbled."""


class CheckpointVersionError(CheckpointError):
    """The file's format version is not supported by this build."""


class CheckpointCorruptError(CheckpointError):
    """The file is truncated or a tensor record disagrees with its config."""


class TrainingDiverged(PatchcastError):
    """Training produced a non-finite loss, decoder output or gradient.

    ``step`` is the failing step and ``curve`` the records of the steps
    before it.  The model still holds the parameters the failing step started
    from: nothing is written before the gradients are checked.  In train mode
    its batch-norm statistics already include that step's update.
    """

    def __init__(self, message, step, curve=None):
        super().__init__(message)
        self.step = step
        self.curve = curve if curve is not None else []


class CompareError(PatchcastError):
    """A leg of the three-way comparison failed.

    ``partial`` maps the variants that did complete to their reports, so a
    broken run still surfaces whatever evidence it produced.
    """

    def __init__(self, message, partial=()):
        super().__init__(message)
        self.partial = dict(partial)
