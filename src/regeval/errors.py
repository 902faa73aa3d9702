"""Exception hierarchy shared across the toolkit.

Every error raised by library code derives from :class:`RegEvalError`, so
callers can catch one base class at pipeline boundaries (the CLI does this
per job) while tests assert on the precise subclass.  The one exception:
``metrics.PairReport.from_dict`` raises KeyError or TypeError for a dict
that is not a pair report, which the CLI reports as MalformedReport.
"""


class RegEvalError(Exception):
    """Base class for all toolkit errors."""


# --- volume / field / landmark I/O ---------------------------------------

class BadMagic(RegEvalError):
    """File is not a structurally valid NIfTI-1 single file."""


class UnsupportedDatatype(RegEvalError):
    """NIfTI datatype code outside the supported set {2, 4, 8, 16, 64}."""


class UnsupportedLayout(RegEvalError):
    """dim[] combination outside the accepted scalar/label/vector layouts."""


class TruncatedPayload(RegEvalError):
    """Payload shorter than the header dimensions imply."""


class NonFiniteData(RegEvalError):
    """A loaded scalar volume or vector field contains NaN or infinity."""


class InvalidLabelData(RegEvalError):
    """Integer volume holds values that cannot be labels (negative)."""


class IoFailure(RegEvalError):
    """Reading or writing a file failed at the OS level (or a gzip stream is corrupt)."""


class MalformedRow(RegEvalError):
    """Landmark CSV row has the wrong arity or an unparsable number."""


class DuplicateName(RegEvalError):
    """Two landmarks in one file share a name."""


class NonFiniteCoordinate(RegEvalError):
    """A landmark or sample coordinate is NaN or infinite."""


# --- field algebra and metrics --------------------------------------------

class DimMismatch(RegEvalError):
    """Operands are defined on different voxel grids."""


class NonFiniteVelocity(RegEvalError):
    """Velocity field contains non-finite components."""


class EmptyEvaluationSet(RegEvalError):
    """No voxel survived masking / bounds exclusion."""


class EmptyLabelList(RegEvalError):
    """Overlap metrics need at least one label to evaluate."""


class UnpairedLandmarks(RegEvalError):
    """Fixed / moving landmark sets differ in length or name order."""


class OutOfBoundsLandmark(RegEvalError):
    """A landmark coordinate lies outside the voxel grid."""


class EmptyMask(RegEvalError):
    """Evaluation mask selects no voxels."""


# --- statistics and ranking ------------------------------------------------

class EmptyInput(RegEvalError):
    """Statistic requested on an empty sequence."""


class BadQuantile(RegEvalError):
    """Percentile rank outside [0, 100]."""


class LengthMismatch(RegEvalError):
    """Paired samples have different lengths."""


class DegenerateInput(RegEvalError):
    """Correlation undefined (constant x or y)."""


class InconsistentMethodSets(RegEvalError):
    """Rank aggregation saw different method sets across metrics."""


# --- synthesis and registration ---------------------------------------------

class SpecInvalid(RegEvalError):
    """PhantomSpec parameters violate their invariants."""


class BadParams(RegEvalError, ValueError):
    """An option or argument of a library call is invalid."""


class DivergedLoss(RegEvalError):
    """Registration loss became non-finite."""


# --- CLI ---------------------------------------------------------------------

class MissingMethods(RegEvalError):
    """Report directory holds no usable method results for a metric."""


class UnpairedCases(RegEvalError):
    """Paired ranking requires every method to cover every case."""


class MalformedReport(RegEvalError):
    """A report file is not a JSON object holding every pair-report field."""


class DuplicateReport(RegEvalError):
    """Two report files hold the same method on the same pair."""
