"""Exception hierarchy for the capgest package.

Every error raised by library code derives from :class:`CapgestError` so
callers (and the CLI) can map failures to exit codes without matching on
stdlib exception types.
"""


class CapgestError(Exception):
    """Base class for all capgest errors."""


class DataError(CapgestError):
    """Invalid or inconsistent input data (CLI exit code 2)."""


class BudgetError(CapgestError):
    """A size or latency budget was violated (CLI exit code 3)."""


# --- signal preprocessing ---------------------------------------------------

class MissingCalibration(DataError):
    """No calibration range known for a (user, channel) pair."""


class DegenerateRange(DataError):
    """Calibration range with min_raw >= max_raw or a bound that is not finite."""


class NotEnoughUsers(DataError):
    """Fewer distinct users than the requested split needs."""


# --- embedding / kernels ----------------------------------------------------

class DimensionMismatch(DataError):
    """Feature count of the input does not match the fitted model."""


class DegenerateInput(DataError):
    """Input without enough distinct samples to fit a transform."""


class ParamOutOfRange(DataError):
    """Kernel parameter outside its documented range."""


class TooFewSamples(DataError):
    """Not enough samples for a statistically meaningful estimate."""


# --- classifiers ------------------------------------------------------------

class EmptyModel(DataError):
    """Classifier fitted (or queried) with no reference data."""


class SingleClass(DataError):
    """Binary fit attempted with only one class present."""


# --- corrector cascade ------------------------------------------------------

class NonFiniteInput(DataError):
    """A feature row given for prediction contains NaN or inf."""


class FeatureOutOfRange(DataError):
    """A finite feature value given for prediction lies outside [0, 1]."""


class NonNumericInput(DataError):
    """A feature value given for prediction is not a number."""


# --- pipeline / persistence -------------------------------------------------

class EmptySplit(DataError):
    """A required dataset partition is empty."""


class EmptyEvalSet(DataError):
    """Evaluation requested on an empty sample collection."""


class VersionMismatch(DataError):
    """Serialized bundle written by an incompatible format version."""


class OversizeBundle(BudgetError):
    """Serialized bundle exceeds the size budget."""


class InconsistentBundle(DataError):
    """The parts of a model bundle disagree on array shapes or names."""


class CorruptFile(DataError):
    """Bundle file failed its checksum or structural checks."""


class FileFormatError(DataError):
    """Malformed dataset, annotation, or calibration file."""
