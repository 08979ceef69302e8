"""Failure modes shared across the solver stack.

Grouped here so the CLI can map each family onto one exit code without
importing every module. `probe_jump` is the one degeneracy rule shared by the
tracker's probe speed and the error assembly's jump estimate.
"""


class ShockTangentError(Exception):
    """Base class for all failures raised by this package."""


class ConfigError(ShockTangentError):
    """Malformed or contradictory case configuration."""


class NumericalError(ShockTangentError):
    """A simulation left its validity envelope."""


class CFLViolationError(NumericalError):
    """max |wave speed| * dt exceeded dx for an attempted step."""


class NonPhysicalStateError(NumericalError):
    """Negative density or pressure appeared in a gas state."""


class NoShockError(NumericalError):
    """Requested shock construction is not entropy-admissible (M_rel <= 1)."""


class TrackingLostError(NumericalError):
    """Tracked discontinuity left the usable grid interior."""


class ProbeDegenerateError(NumericalError):
    """Rankine-Hugoniot probe denominator fell below its floor."""


class OutOfDomainError(NumericalError):
    """Point evaluation requested outside the grid extent."""


class GridMismatchError(ShockTangentError):
    """Two fields that must share a grid do not."""


def probe_jump(v_plus, v_minus, what):
    """v_plus - v_minus, or ProbeDegenerateError below the floor 1e-3 max(|v+|, |v-|, 1).

    Below the floor there is no discontinuity between the probes; `what`
    names the jump in the message.
    """
    floor = 1e-3 * max(abs(v_plus), abs(v_minus), 1.0)
    jump = v_plus - v_minus
    if abs(jump) < floor:
        raise ProbeDegenerateError(f"{what} {jump} below floor {floor}")
    return jump
