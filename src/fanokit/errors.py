"""Exception types shared across the toolkit.

Every input/validation failure raises a FanoError subclass whose message names
the offending field, so the CLI can print a single-line diagnostic and exit
with the usage/input status.
"""


class FanoError(Exception):
    """Base class for all toolkit errors."""


# -- distributions ----------------------------------------------------------

class NegativeWeight(FanoError):
    pass


class SumNotOne(FanoError):
    pass


class DuplicateLabel(FanoError):
    pass


class StateSpaceTooLarge(FanoError):
    pass


# -- divergences ------------------------------------------------------------

class MismatchedOutcomeSets(FanoError):
    pass


class NegativeAlpha(FanoError):
    """An order that is negative, NaN or not a number at all."""


class OutOfRangeProbability(FanoError):
    pass


# -- relations / domains ----------------------------------------------------

class EmptyCandidateSet(FanoError):
    pass


class UnsupportedMetricForExact(FanoError):
    pass


class ZeroVolumeDomain(FanoError):
    pass


# -- bound evaluation -------------------------------------------------------

class AlphaIsOne(FanoError):
    pass


class BadPminPmax(FanoError):
    pass


class DegenerateDenominator(BadPminPmax):
    """p_max equals 1 - p_min (or a ratio denominator collapses to zero)."""


class ZeroVolumeDenominator(FanoError):
    pass


class InconsistentBounds(FanoError):
    """Caller-supplied quantities cannot coexist (e.g. mutual information
    below its data-processing floor, or a divergence too small for the
    stated occupancy window)."""


class NonUniformPrior(FanoError):
    pass


class RangeMismatch(FanoError):
    pass


class NoFeasiblePoint(FanoError):
    """Solve mode found no probability satisfying the self-consistent bound;
    the supplied inputs are unrealizable."""


# -- verifier ---------------------------------------------------------------

class GridTooLarge(FanoError):
    pass


class NumericalInstability(FanoError):
    pass
