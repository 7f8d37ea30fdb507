"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets a named
class here.  Errors that pinpoint a first failing index carry it as ``n``.
"""

from __future__ import annotations


class QKrallError(Exception):
    """Base class for all package-specific errors."""


class ZeroDenominator(QKrallError):
    """A rational function or evaluation produced a zero denominator."""


class MixedBase(QKrallError):
    """Two operators with different bases q were combined."""


class ParamDegeneracy(QKrallError):
    """Parameters hit an excluded value: a base q of 0, 1 or -1, a family
    parameter that makes a q-Pochhammer vanish, or a negative index bound."""


class UnsupportedFamily(QKrallError):
    """Requested family name is not one of the implemented kinds."""


class GammaVanishes(QKrallError):
    """gamma_n = P2(theta_{n-1}) = 0, so the construction breaks at index n."""

    def __init__(self, n: int, message: str | None = None):
        self.n = n
        super().__init__(message or f"gamma_{n} = P2(theta_{n - 1}) vanishes")


class UnknownTheorem(QKrallError):
    """Requested construction name is not in the catalog."""


class SingularSystem(QKrallError):
    """An exact linear solve had no unique solution."""


class NotQuasiDefinite(QKrallError):
    """A Hankel determinant vanished, so no orthogonal family exists there."""

    def __init__(self, n: int, message: str | None = None):
        self.n = n
        super().__init__(message or f"Hankel determinant Delta_{n} = 0")


class DenominatorVanishes(QKrallError):
    """A beta-coefficient denominator vanished at index n."""

    def __init__(self, n: int, message: str | None = None):
        self.n = n
        super().__init__(message or f"denominator vanishes at n = {n}")


class CrossCheckFailed(QKrallError):
    """A catalog measure failed its built-in moment identity."""


class ZeroDilation(QKrallError):
    """dilate() was called with scale 0."""


class ParseError(QKrallError):
    """A config file or flag value could not be parsed."""
