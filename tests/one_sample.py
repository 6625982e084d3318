"""The library's calls on one sample or one summary, as the tests make them:
a method through evaluate_methods, the one entry point for a method on a
sample, and the band inversion methods._band_rows on a batch of one. Each
raises the error it would otherwise yield or return."""

from ratio_ci import RatioCiError, evaluate_methods
from ratio_ci.core import _RowSummaries
from ratio_ci.methods import _band_rows, _row_set


def method_result(sample, method, spec, config=None, trim=0.25):
    """The MethodResult of one method on sample, or its RatioCiError raised."""
    ((_, result),) = evaluate_methods(sample, (method,), spec, config, trim)
    if isinstance(result, RatioCiError):
        raise result
    return result


def band_set(stats, t_lo, t_hi):
    """The ConfidenceSet {rho : t_lo <= T0(rho) <= t_hi} of one summary."""
    lower, upper, errors = _band_rows(_RowSummaries.of(stats), t_lo, t_hi)
    if errors:
        raise errors[0]
    return _row_set(lower[0], upper[0])
