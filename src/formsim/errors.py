"""Exception hierarchy shared by all formsim modules."""


class FormsimError(Exception):
    """Base class for every error raised by this package."""


class ZeroEdge(FormsimError):
    """An edge has coincident endpoints, so its bearing is undefined."""


class DegenerateShape(FormsimError):
    """Some agent's bearings do not span the space, so no offsets can
    move it in every direction."""


class Unreachable(FormsimError):
    """A calibration or perturbation target cannot be realized within
    tolerance."""


class EdgeCollapse(FormsimError):
    """Two neighboring agents collided during simulation.

    rows names the batch rows (runs) whose edge collapsed, when known.
    """

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = tuple(int(r) for r in rows)


class Divergence(FormsimError):
    """The state of a run stopped being finite."""


class DegenerateAlignment(FormsimError):
    """Shape alignment is ambiguous (rank-deficient cross-covariance)."""


class InsufficientDecay(FormsimError):
    """No decaying error segment exists to fit a convergence rate."""


class SchemaError(FormsimError):
    """A scenario document is malformed."""


class RigidityError(FormsimError):
    """A reference shape fails the required rigidity checks."""


class PositivityError(FormsimError):
    """A scheduled inter-agent distance is zero or negative, or a scaling
    schedule drives one to zero on the horizon."""
