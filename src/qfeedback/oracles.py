"""Closed-form ground truth for every steady state, entropy, occupation and
fidelity the simulator is tested against.

These are deliberately plain arithmetic over floats (no arrays, no linear
algebra) so that no bug can be shared between an oracle and the simulator
pipeline it checks. All couplings are parameterised by the transmissivity
tau; formulas stated in terms of c = cos(theta), s = sin(theta) are
transcribed with c² -> tau, s² -> 1 - tau.
"""

from __future__ import annotations

import math


def _check_range(**params: float) -> None:
    for name, x in params.items():
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"{name} must be in [0,1], got {x}")


def mf_noisy_steady(d: int, tau: float, lam: float) -> list[float]:
    """Steady spectrum (descending) of measurement feedback cooling with a
    maximally mixed controller: measure, re-prepare in the dominant state.

    alpha_0 = (d(1-tau) + tau - lam*tau²) / (d(1 - lam*tau²)), the other d-1
    eigenvalues are degenerate at (tau - lam*tau²) / (d(1 - lam*tau²)).
    """
    _check_range(tau=tau, lam=lam)
    denom = d * (1.0 - lam * tau * tau)
    if denom == 0.0:
        raise ValueError("tau = lam = 1 leaves every state steady")
    a0 = (d * (1.0 - tau) + tau - lam * tau * tau) / denom
    aj = (tau - lam * tau * tau) / denom
    return [a0] + [aj] * (d - 1)


def cf_clean_steady(d: int, tau: float, lam: float) -> list[float]:
    """Steady spectrum (descending) of do-nothing coherent feedback with a
    pure |0> controller under depolarising noise of strength lam."""
    _check_range(tau=tau, lam=lam)
    w = (1.0 - 2.0 * tau) ** 2
    den = d * (w * lam - 1.0)
    if den == 0.0:
        raise ValueError("degenerate parameters: (1-2*tau)**2 * lam = 1")
    b0 = (4.0 * (tau - 1.0) * tau * (d + lam - 1.0) + lam - 1.0) / den
    bj = w * (lam - 1.0) / den
    spectrum = [b0] + [bj] * (d - 1)
    return sorted(spectrum, reverse=True)


def clean_qubit_entropies(tau: float, lam: float) -> tuple[float, float]:
    """Steady-state linear entropies (S_MF, S_CF) for a qubit with a clean
    controller. They cross at tau = 1/3; S_CF vanishes at tau = 1/2."""
    _check_range(tau=tau, lam=lam)
    s_mf = 0.5 - (tau * tau - 1.0) ** 2 / (2.0 * (tau * tau * lam - 1.0) ** 2)
    s_cf = 0.5 - 8.0 * tau * tau * (tau - 1.0) ** 2 / ((1.0 - 2.0 * tau) ** 2 * lam - 1.0) ** 2
    return s_mf, s_cf


def eta_entropies(tau: float, lam: float, eta0: float) -> tuple[float, float]:
    """(S_MF, S_CF) for the qubit diagonal controller family diag(eta0, 1-eta0).

    The MF side re-prepares the controller in its dominant eigenvector, so the
    formula is evaluated at max(eta0, 1-eta0); the CF side is the do-nothing
    loop, symmetric in eta0 <-> 1-eta0.
    """
    _check_range(tau=tau, lam=lam, eta0=eta0)
    e = max(eta0, 1.0 - eta0)
    s_mf = 0.5 - (tau - 1.0) ** 2 * (tau * (2.0 * e - 1.0) + 1.0) ** 2 / (
        2.0 * (tau * tau * lam - 1.0) ** 2
    )
    s_cf = 0.5 - 8.0 * tau * tau * (tau - 1.0) ** 2 * (1.0 - 2.0 * eta0) ** 2 / (
        (1.0 - 2.0 * tau) ** 2 * lam - 1.0
    ) ** 2
    return s_mf, s_cf


def cf_clean_general_qubit(tau: float, lam: float, chi: float, phi1: float) -> float:
    """|0> population e1 of the qubit CF steady state (within the diagonal
    sector) for the general in-loop unitary with p = cos(chi), q = cos(2*phi1).

    The overall sign is pinned by the limiting cases: at chi = phi1 = 0 this
    must reduce to the leading cf_clean_steady eigenvalue, and at tau -> 0,
    chi = pi/2 the population is exactly 1/2; both are asserted by the tests
    against the simulator.
    """
    _check_range(tau=tau, lam=lam)
    c2 = tau
    p2 = math.cos(chi) ** 2
    q = math.cos(2.0 * phi1)
    num = (
        -2.0 * c2 * c2 * (lam + 1.0) * p2 * (q + 1.0)
        + 2.0 * c2 * (p2 * (lam * (q + 2.0) + q + 1.0) - lam)
        + lam
        - 2.0 * lam * p2
        + 1.0
    )
    den = lam * (4.0 * c2 * (p2 * ((c2 - 1.0) * q + c2 - 2.0) + 1.0) + 4.0 * p2 - 2.0) - 2.0
    return -num / den


def ad_occupations(tau: float, gamma: float) -> tuple[float, float, float, float, bool]:
    """Excited-state protection against amplitude damping of strength gamma.

    Returns (rho11 for the chi=0 CF rotation, rho11 for chi=pi/2, rho11 for
    the measure-and-repump MF protocol, the tau threshold above which the
    chi=0 CF loop beats MF, and whether CF beats MF at this point).

    The threshold tau* = X/4 with X = (-7g + sqrt(g(17g-24)+16) + 4)/(2-2g)
    is the root of r_chi0(tau) = r_mf(tau) in tau; above it the do-nothing
    CF loop holds more excited-state population than the MF protocol.
    """
    _check_range(tau=tau, gamma=gamma)
    r_chi0 = 2.0 * tau * (1.0 - tau) / (4.0 * (tau - 1.0) * (gamma - 1.0) * tau + gamma)
    r_chipi2 = (1.0 - tau) / (2.0 * (gamma - 1.0) * tau - gamma + 2.0)
    r_mf = (2.0 - tau * tau - tau) / (2.0 * (gamma - 1.0) * tau * tau + 2.0)
    if gamma < 1.0:
        x = gamma * (17.0 * gamma - 24.0) + 16.0
        crossover = 0.25 * (-7.0 * gamma + math.sqrt(x) + 4.0) / (2.0 - 2.0 * gamma)
    else:
        crossover = math.nan
    return r_chi0, r_chipi2, r_mf, crossover, max(r_chi0, r_chipi2) > r_mf


def bitflip_line_fidelities(tau: float) -> tuple[float, float]:
    """Haar-averaged bit-flip fidelities (CF, MF) of the sigma_x coherent loop and
    of the optimal projective measurement feedback (sigma_x on either outcome)."""
    _check_range(tau=tau)
    return 1.0 - 2.0 * tau / 3.0, 2.0 / 3.0 - tau / 3.0


def bitflip_fidelity(tau: float, a: float, b: float) -> float:
    """Haar-averaged bit-flip fidelity for the optimal in-loop POVM
    {sigma_x P0, sigma_x P1} with P0 = diag(a, b).

    a = b recovers coherent feedback (1 - 2*tau/3); a = 1, b = 0 recovers the
    optimal projective measurement (2/3 - tau/3).
    """
    _check_range(tau=tau, a=a, b=b)
    s2 = 1.0 - tau
    return (math.sqrt(1.0 - a * a) * math.sqrt(1.0 - b * b) * s2 + a * b * s2 + 2.0 - tau) / 3.0


def conditional_cooling(d: int, tau: float, lam: float, alpha_in: float) -> tuple[float, float, float]:
    """One filtered cooling step on a diagonal input with dominant eigenvalue
    alpha_in at |0>, maximally mixed controller.

    Returns (p0, alpha_00, alpha_01): the probability of detecting the
    dominant eigenvector on the controller, and the output dominant
    eigenvalue after that outcome (alpha_00) or any other (alpha_01).
    """
    _check_range(tau=tau, lam=lam)
    if not 1.0 / d <= alpha_in <= 1.0:
        raise ValueError(f"alpha_in must be in [1/d, 1], got {alpha_in}")
    c2, s2 = tau, 1.0 - tau
    alpha_lam = lam * alpha_in + (1.0 - lam) / d
    p0 = c2 / d + s2 * alpha_lam
    a00 = c2 * alpha_lam / (p0 * d) + s2
    if p0 >= 1.0:
        raise ValueError("outcome 0 is certain; no other branch exists")
    a01 = c2 * (c2 * d * alpha_lam - alpha_lam + s2) / ((1.0 - p0) * d) + s2
    return p0, a00, a01
