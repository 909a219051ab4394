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
    """A linear solve met LAPACK's exactly zero pivot, or a non-finite result."""


class NumericalBreakdown(ScalarplanError):
    """The simplex had only sub-tolerance pivots left, hit its pivot cap or
    reported an optimum that violates its rows; or an exact LP ended non-optimal."""


# -- search and outer optimisation -------------------------------------------

class Nonconvergence(ScalarplanError):
    """A search ran past its backup budget or the cutting plane past its
    1,000 rounds; or, on an instance the exact LP finds feasible, the
    multiplier search met its cap or no mixture of its policies met the
    bounds."""


# -- policy mixture ---------------------------------------------------------------

class Infeasible(ScalarplanError):
    """The instance admits no feasible policy."""


class ExtractionInfeasible(ScalarplanError):
    """No mixture of the given policies meets the bounds.

    ``mix_policies`` raises it.  ``solve_cssp`` never lets it through: the
    exact occupation-measure LP turns it into Infeasible or Nonconvergence.
    """


class BadSpec(ScalarplanError):
    """Generator parameters are out of range."""
