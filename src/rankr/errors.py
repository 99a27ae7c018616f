"""Exception hierarchy shared by all rankr modules."""


class RankrError(Exception):
    """Base class for all errors raised by rankr."""


class DimensionMismatch(RankrError):
    pass


class SingularMatrix(RankrError):
    pass


class NoConvergence(RankrError):
    pass


class NotSymmetric(RankrError):
    pass


class NotPositiveDefinite(RankrError):
    pass


class NotOrthogonal(RankrError):
    pass


class ZeroVector(RankrError):
    pass


class IllConditionedCell(RankrError):
    """A Bruhat cell decision rests on a minor too close to the rank tolerance."""


class IllConditionedSpectrum(RankrError):
    """Generalized eigenbasis too badly conditioned for a reliable answer."""


class IdentityInput(RankrError):
    pass


class NotTranslating(RankrError):
    pass


class NotRegularAxial(RankrError):
    pass


class NotParabolic(RankrError):
    pass


class NotFixed(RankrError):
    pass


class NotTransverse(RankrError):
    pass


class NotInterior(RankrError):
    pass


class PowerExhausted(RankrError):
    """Ping-pong power escalation hit its cap without certifying."""


class InsufficientGenerators(RankrError):
    pass


class EmptySample(RankrError):
    pass
