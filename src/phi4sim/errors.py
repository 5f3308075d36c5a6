"""Exception types shared across the package."""


class Phi4Error(Exception):
    """Base class for all package-specific errors."""


class SymbolError(Phi4Error):
    """The dispersion symbol could not be evaluated or violates positivity."""


class GrowthViolationError(Phi4Error):
    """The symbol grows too slowly; a radial integral diverges."""


class GridError(Phi4Error):
    """Mismatched lattices, shapes, or time grids."""


class FeasibilityError(Phi4Error):
    """A lattice sum or kernel evaluation was requested outside feasible ranges."""


class ConfigError(Phi4Error):
    """Invalid or inconsistent experiment configuration."""


class BlowUpSignal(Phi4Error):
    """Raised when a trajectory develops non-finite values.

    Carries the time stamp and index of the first bad step and the state at
    the step before it, the last finite one: the remainder pair (v, w) or the
    reference's Phi, as full cubes.
    """

    def __init__(self, t, last_state=None, step=None):
        super().__init__(f"non-finite field values at t={t:.6g}")
        self.t = t
        self.step = step
        self.last_state = last_state
