"""Registry of every verifiable inequality, keyed by stable bound id.

Each id maps to exactly one human-readable statement of the inequality it
measures; the experiment runner may emit a bound id only if it is listed
here (machine-checked in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_SLACK = 1e-9

BOUND_REGISTRY: dict[str, str] = {
    "assumption1": "||V_{X,Y}|| <= g0 * r^(-abar) for concatenated X, Y at distance r",
    "gap≤2g": "spectral gap Delta <= 2*g with g the one-site energy scale",
    "lemma3.norm": "||H - H_t|| <= g0 * q * l^(-abar)",
    "weyl": "|E_j - E_tj| <= ||H - H_t|| for every eigenvalue pair j",
    "lemma3.gap": "Delta_t >= Delta - 2*||H - H_t||",
    "lemma4.overlap": "|| |0> - |0_t> || <= ||H-H_t|| / (Delta - 4*||H-H_t||) when 4*||H-H_t|| < Delta",
    "effnorm": "||H_eff|| <= (q+2)*(tau + 2*g0) after block-origin balancing",
    "thm5.gap": "Delta_eff >= Delta_t / 2 whenever tau meets the cut-off hypothesis",
    "thm5.overlap": "|| |0_eff> - |0_t> || <= (54(q+2)/(lambda*Delta_t)) * exp(-lambda(tau-4g0)); "
    "below the hypothesis, exponential decay is checked by slope fit (R^2 >= 0.9)",
    "thm5.kappa": "kappa <= 11*(q+2)*exp(-lambda'*(tau - 8*g0))",
    "prop8.energy-dist": "||P^(s)_{>E'} P_{<=E}|| <= (4e^1.5/(e-1)) * exp(-lambda*(dE'_s - dE - 4*g0))",
    "prop8.energy-dist-eff": "||P^(s)_{>E'} P_eff_{<=E}|| <= (4e^1.5/(e-1)) * "
    "exp(-lambda'*(min(E',tau_s) - E_s0 - dE_eff - 4*g0))",
    "prop9.diff": "||(H_t - H_eff) P_{<=E}|| <= (27(q+2)/lambda) * exp(-lambda*(tau - dE - 4*g0))",
    "lemma14.filter": "||P_{>=E'} O_s P_{<=E}|| <= 4*||O_s||*exp(-lambda*(E'-E)) for [O_s, h_s] = 0",
    "lemma15.commutator": "||[H_t, h_{s,s+1}]|| <= 6*g*k*(2k)*||h_{s,s+1}||",
    "cheb.lemma11": "|T_m| <= 1 on [-1,1]; 0.5*exp(2m*sqrt((|x|-1)/(|x|+1))) <= |T_m(x)| <= (2|x|)^m/2 for |x| >= 1",
    "agsp.epsilon": "epsilon_K <= 2*exp(-2m*sqrt(Delta_eff/||H_eff||))",
    "sr.lemma8": "SR(H_t^m) <= [2 + (2dl)^k]^m across the block cut",
    "sr.prop4": "SR(H_t^m) <= d^(2ql)*[e(q+1)^2(2dl)^k]^(m/(q+1)), unsimplified variant when "
    "(q+m+1)^(q+1) > d^(ql)",
    "bootstrap.mu1": "mu_1 >= 1/sqrt(2*D_K) whenever epsilon_K^2 * D_K <= 1/2",
    "prop2.distance": "|| psi - |0_t> || <= epsilon_K*sqrt(2*D_K) + delta_K for the filtered top product state",
    "eckart-young": "sum_{m > rank(psi')} mu_m^2 <= ||psi - psi'||^2",
    "claim7.mps": "||psi - psi_D||^2 <= 2 * sum_i delta_i for the swept rank-D compression",
    "s2≤s": "Renyi-2 entropy <= von Neumann entropy",
    "prop3.entropy-bound": "measured S <= ln(SR(phi)) - sum_p gamma_p^2 ln(gamma_p^2/(3 D_{p+1}))",
}


@dataclass
class BoundRecord:
    """One measured inequality: holds iff lhs and rhs are finite and lhs <= rhs + slack."""

    bound_id: str
    lhs: float
    rhs: float
    context: dict = field(default_factory=dict)
    slack: float = DEFAULT_SLACK

    def __post_init__(self):
        if self.bound_id not in BOUND_REGISTRY:
            raise KeyError(f"unregistered bound id: {self.bound_id!r}")

    @property
    def holds(self) -> bool:
        return math.isfinite(self.lhs) and math.isfinite(self.rhs) and self.lhs <= self.rhs + self.slack
