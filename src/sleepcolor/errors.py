"""Exception types shared across the package."""


class SleepColorError(Exception):
    """Base class for all package errors."""


class InstanceError(SleepColorError):
    """A graph or list-coloring instance violates a structural requirement."""


class ParseError(SleepColorError):
    """An instance file is malformed. Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ProgramError(SleepColorError):
    """A node program broke the simulation contract (e.g. sent to a non-neighbor)."""


class RunIncomplete(SleepColorError):
    """A simulation reached its round cap with non-terminated nodes.

    In the pipeline this means a phase overran its own schedule, an
    internal invariant.  `partial` is the run so far: from the round engine
    the capped SimulationResult; from phase 3's run on node positions
    (`run_phase3`) its PhaseOutcome, whose termination_round maps every
    node, None for each one cut off.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class TooLargeForOracle(SleepColorError):
    """The joint choice space exceeds the exact-enumeration guard."""


class AlgorithmInvariantViolation(SleepColorError):
    """An "impossible on admissible inputs" condition fired."""


class UsageError(SleepColorError):
    """Bad command-line usage or an unusable pipeline configuration.

    Also raised for aggregation over an empty input.
    """


class InternalError(SleepColorError):
    """Cross-check between two bookkeeping paths failed."""
