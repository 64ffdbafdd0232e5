"""Exception hierarchy shared across the library.

Exit-code mapping used by the command line tool:
  config/usage errors -> 2, budget/censoring errors -> 3,
  invariant violations -> 4, anything else -> 1.
"""


class ResistwalkError(Exception):
    """Base class for all library errors."""


# -- configuration / usage ---------------------------------------------------

class ConfigError(ResistwalkError):
    """Bad user input: malformed config, out-of-range value, unknown key."""


class ParseError(ConfigError):
    pass


class RangeError(ConfigError):
    pass


class UnknownKey(ConfigError):
    pass


class SchemaError(ConfigError):
    pass


# -- graphs ------------------------------------------------------------------

class DisconnectedGraph(ResistwalkError):
    pass


class NonpositiveWeight(ResistwalkError):
    pass


class SelfLoop(ResistwalkError):
    pass


class UnknownVertex(ResistwalkError):
    pass


class MissingCoords(ResistwalkError):
    """The graph does not carry plane coordinates for every vertex."""


class LevelTooLarge(ResistwalkError):
    pass


class EmptySet(ResistwalkError):
    pass


class OverlappingSets(ResistwalkError):
    pass


class MissingValue(ResistwalkError):
    pass


# -- budgets and censoring ---------------------------------------------------

class BudgetError(ResistwalkError):
    """Work refused or cut short by an explicit resource cap."""


class BudgetExceeded(BudgetError):
    pass


class HorizonTooLarge(BudgetError):
    pass


class CapExceeded(BudgetError):
    """A capped simulation did not finish; carries partial information."""

    def __init__(self, message, cap=None, uncovered=None):
        super().__init__(message)
        self.cap = cap
        self.uncovered = uncovered


class ExcessiveCensoring(BudgetError):
    pass


# -- numerics ----------------------------------------------------------------

class SolverFailure(ResistwalkError):
    pass


class SameVertex(ResistwalkError):
    pass


class NegativeTheta(ResistwalkError):
    pass


class TrajectoryNotRetained(ResistwalkError):
    pass


class NotReached(ResistwalkError):
    """Trajectory too short to contain the requested visit; not a failure."""


class InvalidProfile(ResistwalkError):
    pass


class GammaOverflow(ResistwalkError):
    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class VolumeBoundUnverified(ResistwalkError):
    pass


class QuadratureFailure(ResistwalkError):
    pass


# -- experiments ---------------------------------------------------------------

class InsufficientData(ResistwalkError):
    """Too few samples or levels to fit the requested estimate."""


class InsufficientLevels(InsufficientData):
    pass


class InvariantViolation(ResistwalkError):
    """An internal consistency identity failed; always fatal."""
