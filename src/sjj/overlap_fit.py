"""The quadratic fit of the soliton overlap integral, and the constants derived from it.

I(z) = int_0^inf dx / (cosh^2 x + sinh^2(z x)) ~= 1 - 0.21 z^2; the exact
integral is :func:`sjj.meanfield.overlap_integral`.  The SJJ Hamiltonian,
the mean-field flow and the Hartree branches all take 0.21 from here, and
the self-trapping window 1.58 <= Lambda <= 2.42 of the mean-field steady
states and of the Hartree imbalanced branches is derived from it, bit for
bit.  The mean-field energy h(z, theta) built on it is written once here,
and so is the domain check of the coupling that every model takes, with
the finiteness test that every scalar input check shares.  The module
imports only math, so the closed-form commands can read it without loading
numpy.
"""

import math

# quadratic fit I(z) ~= 1 - 0.21 z^2 of the soliton overlap integral
_OVERLAP_FIT = 0.21
# imbalance window of the self-trapped steady branch and of the Hartree
# imbalanced branches: 1.58 and 2.42
_LAMBDA_LO = 2.0 * (1.0 - _OVERLAP_FIT)
_LAMBDA_HI = 2.0 * (1.0 + _OVERLAP_FIT)


def _mean_field_energy(z2, cos_theta, Lambda):
    """h = -(Lambda/2) z^2 - (1 - z^2)(1 - 0.21 z^2) cos(theta) in units kappa*N
    (constants dropped), from z^2 and cos(theta), floats or numpy arrays."""
    return -(Lambda / 2.0) * z2 - (1.0 - z2) * (1.0 - _OVERLAP_FIT * z2) * cos_theta


def _finite(value: float) -> bool:
    """math.isfinite, where an int beyond the float range is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _shown(value: float) -> object:
    """The value for an error message: an int beyond the float range is named,
    not printed, since str() refuses an int of more than 4,300 digits."""
    if isinstance(value, int) and not _finite(value):
        return "an int beyond the float range"
    return value


def _check_coupling(value: float, name: str) -> None:
    """Raise ValueError unless the coupling is finite and >= 0, an int past
    the float range included: an attractive junction has Lambda, lambda >= 0."""
    if not (_finite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {_shown(value)}")
