"""Exception hierarchy shared across the toolkit."""


class ScalarplanError(Exception):
    """Base class for all library errors."""


# -- model construction / validation ----------------------------------------

class MalformedModel(ScalarplanError):
    """Model document violates the schema or basic domain rules."""


class BadDistribution(MalformedModel):
    """A transition distribution has negative mass or does not sum to 1."""


class NonpositivePrimaryCost(MalformedModel):
    """An action's primary cost is not strictly positive."""


class DimensionMismatch(ScalarplanError):
    """A cost or bound vector has the wrong number of entries."""


class MalformedPolicy(ScalarplanError):
    """Policy references inapplicable actions or has a bad distribution."""


# -- policy analysis ---------------------------------------------------------

class OpenPolicy(ScalarplanError):
    """A reachable non-goal state has no policy entry."""

    def __init__(self, open_states):
        self.open_states = tuple(sorted(open_states))
        super().__init__(f"policy is open at states {self.open_states}")


class ImproperPolicy(ScalarplanError):
    """The policy reaches the goal with probability below 1."""


class NoApplicableAction(ScalarplanError):
    """A non-goal state has no applicable action (dead end)."""


class UnreachableGoal(ScalarplanError):
    """A state cannot reach any goal, even in the determinised graph."""


# -- linear algebra / programming --------------------------------------------

class SingularMatrix(ScalarplanError):
    """Gaussian elimination hit a pivot below tolerance."""


class NumericalBreakdown(ScalarplanError):
    """The simplex solver ran out of usable pivots."""


# -- search and outer optimisation -------------------------------------------

class Nonconvergence(ScalarplanError):
    """The subproblem solver exceeded its backup budget."""


class UnboundedCoordinate(ScalarplanError):
    """The maximiser of the Lagrangian lies on the multiplier cap.

    An unbounded Lagrangian signals that the instance has no feasible
    policy; the pipeline asks the exact LP whether that is so.
    """


# -- policy mixture ---------------------------------------------------------------

class Infeasible(ScalarplanError):
    """The instance admits no feasible policy."""


class ExtractionInfeasible(ScalarplanError):
    """No mixture of the multiplier search's policies meets the bounds.

    ``solve_cssp`` lets it through only when the exact occupation-measure LP
    finds the instance feasible; there it signals a multiplier search that
    stopped short of the optimum.
    """


class BadSpec(ScalarplanError):
    """Generator parameters are out of range."""
