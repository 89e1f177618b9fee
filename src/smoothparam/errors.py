"""Exception types shared across the library."""


class SmoothParamError(Exception):
    """Base class for all library errors."""


class EvaluationAtSingularity(SmoothParamError):
    pass


class OrderOverflow(SmoothParamError):
    pass


class ZeroCountMismatch(SmoothParamError):
    pass


class DegenerateInY(SmoothParamError):
    pass


class PathNearSingularity(SmoothParamError):
    pass


class BranchJump(SmoothParamError):
    pass


class FibreOverflow(SmoothParamError):
    """A coefficient of the fibre polynomial P(x, .) is not finite in floats
    at a point the continuation must reach."""


class InexactCurve(SmoothParamError):
    pass


class PreconditionFailed(SmoothParamError):
    pass


class BoundViolationAfterMaxDepth(SmoothParamError):
    pass


class SlabOrderViolation(SmoothParamError):
    pass


class DeltaTooLarge(SmoothParamError):
    pass


class SingularityInsideDisk(SmoothParamError):
    pass


class DegreeOverflow(SmoothParamError):
    pass


class CoverTestFailed(SmoothParamError):
    pass


class UnboundedLP(SmoothParamError):
    """The norming LP is unbounded: the constraint set fails to pin down the
    coefficient space.  Carries a witness direction when available."""

    def __init__(self, msg, direction=None):
        super().__init__(msg)
        self.direction = direction


class InfeasibleLP(SmoothParamError):
    pass


class SingularCurve(SmoothParamError):
    pass


class GridTooCoarse(SmoothParamError):
    pass


class SchemaVersionMismatch(SmoothParamError):
    pass
