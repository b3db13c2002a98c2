"""Exception taxonomy shared by all solver modules.

The CLI maps these onto its exit codes: parse/input problems exit 1,
infeasibility (no solution / no second solution / unique model) exits 2,
resource refusals (caps, no polynomial algorithm) exit 3, and every other
library error (such as `InternalConsistencyError`) exits 4.
"""


class MinsolError(Exception):
    """Base class for all library errors."""


class ParseError(MinsolError):
    """Malformed language, formula, or assignment input."""


class LengthMismatch(MinsolError):
    """Assignment length does not match the formula or peer vector."""


class NotAModel(MinsolError):
    """An operation required a satisfying assignment and got none."""


class Infeasible(MinsolError):
    """Base for 'there is no solution of the requested kind'."""


class Unsatisfiable(Infeasible):
    """The formula has no model."""


class NoSecondModel(Infeasible):
    """The formula has no model other than the given one."""


class UniqueModel(Infeasible):
    """The formula has exactly one model (MSD has no witness pair)."""


class ResourceRefusal(MinsolError):
    """Base for 'refusing to run' errors (never silent degradation)."""


class TooLarge(ResourceRefusal):
    """Instance exceeds the exhaustive-search cap."""


class NoPolyAlgorithm(ResourceRefusal):
    """approx mode requested but the class admits no polynomial algorithm."""


class ShapeUnavailable(MinsolError):
    """Relation does not admit the requested clause-shape decomposition."""


class InternalConsistencyError(MinsolError):
    """A structural guarantee the algorithms rely on was violated."""
