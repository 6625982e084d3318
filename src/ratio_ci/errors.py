"""Exception types shared across the package."""


class RatioCiError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(RatioCiError):
    """An argument lies outside its documented domain."""


class NonFiniteInput(RatioCiError):
    """Input data contains NaN or infinities, or has the wrong shape."""


class TooFewObservations(RatioCiError):
    """Not enough data points for the requested estimate."""


class ZeroDenominator(RatioCiError):
    """The denominator sample mean is exactly zero."""


class ZeroIndividualDenominator(RatioCiError):
    """Some individual x_i is exactly zero, so per-pair ratios are undefined."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(f"zero denominator at indices {self.indices}")

    def __reduce__(self):
        # args holds the message, not the indices, so rebuild from these.
        return type(self), (self.indices,)


class DegenerateVariance(RatioCiError):
    """A variance expression that must be positive is zero or negative."""


class NonFiniteResult(RatioCiError):
    """An internal computation produced a result that violates its contract."""


class TooFewAfterTrim(RatioCiError):
    """Trimming would leave fewer than two observations."""


class TooFewReplicates(RatioCiError):
    """The empirical distribution holds too few values for a quantile."""


class AllResamplesDegenerate(RatioCiError):
    """More than half of the bootstrap replications were dropped."""


class RankDeficient(RatioCiError):
    """The regression design matrix does not have full column rank."""


class NonPositiveData(RatioCiError):
    """Log-scale fitting needs strictly positive values."""


class SingularCovariance(RatioCiError):
    """The covariance matrix of the means is singular beyond recovery."""


class DegenerateJackknife(RuntimeWarning):
    """All jackknife values coincide; BCa falls back to plain percentiles."""
