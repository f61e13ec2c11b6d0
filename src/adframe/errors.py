"""Error types raised by the laboratory's constructors and checkers."""


class AdframeError(Exception):
    """Base class for all package-specific errors."""


class NotATopology(AdframeError):
    """Opens family violates topology axioms (missing empty/full or closure)."""


class NotAPreorder(AdframeError):
    """Strict-mode order input is not reflexive-transitive."""


class NotALattice(AdframeError):
    """Order matrix lacks a least upper or greatest lower bound for some pair."""


class NonDistributiveLattice(AdframeError):
    """A component lattice fails distributivity, required of every ad-frame."""


class NotContinuous(AdframeError):
    """Point map pulls some open back to a non-open."""


class NotMonotone(AdframeError):
    """Point map does not respect the preorders."""


class TrivialFrame(AdframeError):
    """One-element frame where a non-trivial one is required."""


class NotAPointMap(AdframeError):
    """Map into a spectrum hits values that are not points of it."""


class ImageNotIrreducible(AdframeError):
    """Direct image of an irreducible closed set failed to close irreducibly."""


class UnknownTheorem(AdframeError):
    """Check id absent from the registry."""


class BudgetExceeded(AdframeError):
    """Instance size or time budget exhausted before the operation finished."""


class TooLarge(AdframeError):
    """Object exceeds a hard size cap (carrier, lattice elements, render nodes)."""


class InternalCheckError(AdframeError):
    """A structurally guaranteed property failed; indicates a bug, not bad input."""
