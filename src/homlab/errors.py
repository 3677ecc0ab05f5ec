"""Exception hierarchy shared by all homlab modules."""


class HomlabError(Exception):
    """Base class for all errors raised by homlab."""


class RingParseError(HomlabError):
    """Malformed ring or polynomial text."""


class NotPrimeError(HomlabError):
    """Requested field characteristic is not prime, or outside the
    supported range (p >= 2^31)."""


class InhomogeneousError(HomlabError):
    """A polynomial, matrix entry or module element fails the grading."""


class NotRegularSequenceError(HomlabError):
    """Proposed quotient-ring generators are not a regular sequence.

    Carries the first graded degree where the Hilbert series deviates
    from the complete-intersection prediction.
    """

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class ResourceCapError(HomlabError):
    """A resource cap was hit: the S-pair degree or pair-count cap of a
    Groebner computation, or the cell cap of one degree's matrix in a
    linear-algebra resolution step (``cap_name`` says which)."""

    def __init__(self, message, cap_name, cap_value):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value


class RankMismatchError(HomlabError):
    """Element does not live in the expected free module."""


class ZeroModuleError(HomlabError):
    """Operation undefined on the zero module."""


class DecompositionError(HomlabError):
    """Lifted differential square failed to decompose over the quotient
    relations; signals a non-regular sequence or a software fault."""


class EvenGapError(HomlabError):
    """An even gap was passed to a theorem checker; even gaps are
    excluded (the one-dimensional hypersurface pair A/(x), A/(y) has
    both groups of the pattern {n, n+2} zero while the group between
    them is nonzero)."""


class WindowTooShortError(HomlabError):
    """Betti table too short to estimate polynomial growth."""


class RetriesExhaustedError(HomlabError):
    """No random cohomology element certified a complexity drop."""

    def __init__(self, message, failed_coefficients):
        super().__init__(message)
        self.failed_coefficients = failed_coefficients
