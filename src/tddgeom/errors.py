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

    Attributes
    ----------
    achieved : float
        Best available estimate of the integral.
    discrepancy : float
        Absolute difference between the coarse and the fine estimate of
        the last check: the Gauss and the Kronrod value of a nested pair.
        A spectral-efficiency row that fails reports its |K - G| weighted
        as the row enters the total, in bits/s/Hz like the achieved value.
    """

    def __init__(self, message, achieved=None, discrepancy=None):
        super().__init__(message)
        self.achieved = achieved
        self.discrepancy = discrepancy


class ConfigError(TddgeomError):
    """Invalid experiment configuration; carries itemized messages."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
