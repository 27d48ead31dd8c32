"""Exception hierarchy shared across the package."""


class HierSplineError(Exception):
    """Base class for all errors raised by hiersplines."""


class KnotVectorError(HierSplineError):
    """Malformed knot vector or local knot vector."""


class RefinementMismatchError(HierSplineError):
    """A knot vector claimed to refine another does not contain it."""


class NestingError(HierSplineError):
    """Levels or subdomains violate a required nesting."""


class LevelSizeError(HierSplineError):
    """A level would have more cells than a level sequence may build."""


class HierarchyError(HierSplineError):
    """Invalid hierarchy of subdomains."""


class AdmissibilityError(HierSplineError):
    """An operation requires nested core domains and the mesh does not provide them."""


class EvaluationError(HierSplineError):
    """A user-supplied callback produced a non-finite value."""


class InternalInvariantError(HierSplineError):
    """A structural guarantee was violated; indicates a bug or corrupt input."""


class FixtureError(HierSplineError):
    """A fixture file failed to parse or validate.

    Carries a ``location`` string pointing at the offending field.
    """

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
