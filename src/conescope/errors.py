"""Exception types shared across the library."""


class ConescopeError(Exception):
    """Base class for all library errors."""


class UnknownLetter(ConescopeError):
    """A word uses a letter outside the model's alphabet."""


class ModelMismatch(ConescopeError):
    """Two elements (or an oracle and an element) belong to different models."""


class CapExceeded(ConescopeError):
    """An enumeration exceeded the configured node cap."""

    def __init__(self, reached: int, cap: int, what: str = "enumeration"):
        self.reached = reached
        self.cap = cap
        super().__init__(f"{what} reached {reached} nodes, which exceeds cap {cap}")


class DegreeTooSmall(ConescopeError):
    """Truncation degree below the word length would lose injectivity."""


class AllZeroWeights(ConescopeError):
    """A hyperplane order needs at least one nonzero weight."""


class BrokenOrderError(ConescopeError):
    """A sign function violated totality (tie between distinct elements)."""


class WitnessNotFound(ConescopeError):
    """No positive witness appeared within the search horizon."""

    def __init__(self, search_radius: int, detail: str = ""):
        self.search_radius = search_radius
        msg = f"no witnesses within search radius {search_radius}; enlarge the horizon"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NoDeclaredCofinalCenter(ConescopeError):
    """The oracle does not declare a cofinal central generator."""


class PathNotFound(ConescopeError):
    """A path construction exhausted its search budget."""


class FactorNotConnectedAtScale(ConescopeError):
    """A product-path precondition failed: a factor cone is disconnected."""

    def __init__(self, r: int, radius: int, factor: int):
        self.r = r
        self.radius = radius
        self.factor = factor
        super().__init__(
            f"factor {factor} cone is not {r}-connected within radius {radius}"
        )


class NotAccepted(ConescopeError):
    """The automaton rejects the given word."""


class ConfigError(ConescopeError):
    """Invalid experiment configuration (CLI usage error, exit code 3)."""
