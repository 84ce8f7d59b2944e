"""Exception types shared across the package, and the strict integer reader."""


class AdahaarError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AdahaarError):
    """An input file is malformed or structurally incomplete."""


class ValidationError(AdahaarError):
    """A structurally well-formed object violates a semantic invariant."""


class GapOrOverlap(ValidationError):
    """Intervals of one partition level fail to tile [0, 1] exactly."""


class NotNested(ValidationError):
    """A block is not contained in a single parent of the coarser level."""


class DepthMismatch(ValidationError):
    """Two partitions or chains that must share a depth do not."""


class BadWeights(ValidationError):
    """Split weights are not positive or do not sum to one."""


class BadPair(ValidationError):
    """A child-pair index is out of range or not strictly increasing."""


class PartitionMismatch(ValidationError):
    """Two piecewise-constant functions live on different partitions."""


class IndexMismatch(ValidationError):
    """A coefficient vector is not indexed by the given system."""


class DegenerateSpan(ValidationError):
    """A claimed spanning set is numerically rank deficient."""


class BadClustering(ValidationError):
    """A cluster assignment does not partition the vertex set."""


class ClustererStalled(AdahaarError):
    """A clustering step merged nothing; coarsening cannot progress."""


class ZeroDegreeCluster(ValidationError):
    """A cluster has total degree zero, so its interval split is undefined."""


class UnknownVertex(ValidationError):
    """A signal references a vertex label the graph does not have."""


def strict_int(value, what) -> int:
    """An integer field of an input file; anything else is a ParseError naming `what`.

    Accepts an int that is not a bool, or the decimal string of one (JSON
    object keys are strings); a float such as 1.5 is never truncated.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        if isinstance(value, str) and str(int(value)) == value:
            return int(value)
    except ValueError:
        pass
    raise ParseError(f"{what} must be an integer, got {value!r}")
