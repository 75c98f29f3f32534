"""The stability certificate: measured constants to a sup-norm bound.

The certificate evaluates, at the optimizing radius

    r* = min{ (C_stab Ẽ / (C_low E |log(eps/Ẽ)|^mu))^(1/(alpha+beta)), r0 },

the pre-optimization bound

    ( C_stab^2 C_low^-2 r*^-2beta Ẽ^2 |log(eps/Ẽ)|^-2mu + E^2 r*^2alpha )^(1/2),

which dominates the closed-form product bound it is usually quoted as.
It is scalar arithmetic on the standard library alone, so evaluating a
certificate from given constants (``fraclab certify``) loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log, sqrt

from .errors import DomainError

#: the inputs of certify_bound, in order: the names of its parameters, the
#: suffixes of the cert.* config keys and the lead keys of certificate.txt
CERT_INPUTS = ("E", "alpha", "beta", "c_low", "c_stab", "mu", "e_tilde",
               "epsilon", "r0")


@dataclass(frozen=True)
class StabilityCertificate:
    """Measured constants and the sup-norm bound they certify; the field
    names, in order, are the keys of certificate.txt."""

    E: float                 # a priori Hoelder bound of the potentials
    alpha: float             # Hoelder exponent, = s
    beta: float              # fitted vanishing order
    c_low: float             # fitted vanishing prefactor
    c_stab: float            # fitted smallness constant
    mu: float                # fitted log exponent
    e_tilde: float           # a priori solution-size bound
    epsilon: float           # data error
    r_opt: float
    bound: float


def certify_bound(E: float, alpha: float, beta: float, c_low: float,
                  c_stab: float, mu: float, e_tilde: float, epsilon: float,
                  r0: float) -> StabilityCertificate:
    """The optimized interpolation bound at the measured CERT_INPUTS."""
    if not 0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if epsilon >= e_tilde:
        raise DomainError("epsilon must stay below the a priori bound e_tilde")
    for name, val in zip(CERT_INPUTS, (E, alpha, beta, c_low, c_stab, mu,
                                       e_tilde, epsilon, r0)):
        if not 0 < val < inf:
            raise DomainError(f"{name} must be positive and finite, got {val}")
    log_term = abs(log(epsilon / e_tilde))
    r_cand = (c_stab * e_tilde / (c_low * E * log_term ** mu)) \
        ** (1.0 / (alpha + beta))
    r_opt = min(r_cand, r0)
    bound = sqrt(
        c_stab ** 2 / c_low ** 2 * r_opt ** (-2 * beta)
        * e_tilde ** 2 / log_term ** (2 * mu)
        + E ** 2 * r_opt ** (2 * alpha))
    return StabilityCertificate(E, alpha, beta, c_low, c_stab, mu, e_tilde,
                                epsilon, float(r_opt), bound)
