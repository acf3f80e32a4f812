"""Exception types shared across the package."""


class TddgeomError(Exception):
    """Base class for package-specific failures."""


class TruncationError(TddgeomError):
    """A series hit its term cap before meeting the convergence rule.

    Attributes
    ----------
    partial : float
        Partial sum accumulated before giving up.
    terms : int
        Number of terms consumed.
    """

    def __init__(self, message, partial=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


class IntegrationError(TddgeomError):
    """A quadrature refinement check disagreed beyond tolerance.

    Raised by :func:`tddgeom.quadrules.refine` for the first item that
    still fails after its last level, and so for the integral that
    failed, in its own units, however deeply it is nested.

    Attributes
    ----------
    achieved : float
        The Kronrod value K of that integral at its last level.
    discrepancy : float
        |K - G| of that level: the Kronrod and the Gauss value of a
        nested pair.
    """

    def __init__(self, message, achieved=None, discrepancy=None):
        super().__init__(message)
        self.achieved = achieved
        self.discrepancy = discrepancy


class ConfigError(TddgeomError):
    """Invalid experiment configuration."""
