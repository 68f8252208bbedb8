"""Exception types shared across the package.

Everything raised on purpose derives from :class:`KmiterError`, so callers
(including the command line driver) can tell deliberate rejections from
genuine bugs.  Configuration problems and numerical failures are kept on
separate branches because they map to different process exit codes.
"""

from __future__ import annotations

__all__ = [
    "KmiterError",
    "ConfigError",
    "ModelMismatchError",
    "NumericError",
    "EvaluationError",
    "ModeOverflowError",
    "ResonanceError",
    "DegenerateComplementError",
]

SHOWN_POSITIONS = 8


def describe_modes(positions, eigenvalues=None) -> str:
    """Name mode positions in an error message, in bounded size.

    Up to ``SHOWN_POSITIONS`` positions are listed in full.  Beyond that the
    text gives their count, their range and the first ``SHOWN_POSITIONS``.
    With ``eigenvalues`` (indexed by position) the listed positions'
    eigenvalues follow.  The errors keep every position on ``mode_indices``.
    """
    pos = [int(i) for i in positions]
    shown = pos[:SHOWN_POSITIONS]
    if len(pos) <= SHOWN_POSITIONS:
        text = f"mode positions {shown}"
    else:
        text = (
            f"{len(pos)} mode positions in [{min(pos)}, {max(pos)}], "
            f"first {SHOWN_POSITIONS}: {shown}"
        )
    if eigenvalues is not None:
        text += f" (eigenvalues {[float(eigenvalues[i]) for i in shown]})"
    return text


def config_number(value, where: str, kind=float):
    """A config value as a float, or as an int when ``kind`` is ``int``.

    A value that does not convert, or a fractional float where an int is
    wanted, raises :class:`ConfigError` naming the key ``where`` and the
    value (its repr cut at 60 characters); an integral float such as
    ``10.0`` is an int.
    """
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and isinstance(value, float) and number != value):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {what}, got {value!r:.60}")
    return number


class KmiterError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(KmiterError):
    """Invalid configuration, arguments, or input file contents."""


class ModelMismatchError(ConfigError):
    """Operands built over different spectrum models were combined."""


class NumericError(KmiterError):
    """A computation left the representable or admissible range.

    Attributes
    ----------
    mode_indices : tuple of int
        Zero-based positions of the offending modes, when the failure has any.
    """

    def __init__(self, message: str, mode_indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.mode_indices = tuple(int(i) for i in mode_indices)


class EvaluationError(NumericError):
    """A spectral function produced a non-finite value."""


class ModeOverflowError(NumericError):
    """A per-mode value exceeded the overflow guard (1e300) or was non-finite."""


class ResonanceError(NumericError):
    """A hyperbolic problem was posed too close to a resonant time.

    Raised when ``|sin(lambda_j * T)|`` falls at or below the resonance
    tolerance for some eigenvalue, which would make the Dirichlet data fail
    to determine the solution mode.
    """


class DegenerateComplementError(NumericError):
    """A fixed point was requested where some 1 - F(lambda_j) is exactly zero.

    The affine iteration phi -> F(A) phi + z has no fixed point on modes
    where the multiplier equals one in floating point; cutoff regularization
    that drops those modes is the supported way around this.
    """
