"""Exact arithmetic for super Catalan numbers and their alternating
convolutions, with a registry-driven identity verifier and a CLI.

All values are exact: arbitrary-precision integers and reduced rationals.
"""

__version__ = "0.1.0"

from .exactnum import (
    IntegrityError,
    InexactDivisionError,
    exact_div,
    factorial,
    binomial,
    central_binomial,
)
from .supercat import (
    super_catalan,
    super_catalan_ratio,
    super_catalan_factorial,
    super_catalan_von_szily,
    catalan,
    phi,
)
from .sums import psi, psi_t, p_sum, r_sum, r_prime_sum, r_dprime_sum, t_sum
from .dsums import (
    Summand,
    psi_summand,
    unit_summand,
    d_sum_direct,
    d_sum_step,
    a_t,
    d_sum_base,
    q_sum,
    q_scaled,
    d_psi_base_closed,
    d_psi_level1,
    psi_quotient_witness,
    DivisionCheck,
    division_check,
    psi_divisibility_check,
)
from .verifier import (
    CheckResult,
    GridBounds,
    IdentitySpec,
    Report,
    registry_ids,
    get_identity,
    register,
    run_check,
    sweep,
    to_jsonl,
    to_csv,
    to_human,
)

__all__ = [
    "IntegrityError", "InexactDivisionError",
    "exact_div", "factorial", "binomial", "central_binomial",
    "super_catalan", "super_catalan_ratio", "super_catalan_factorial",
    "super_catalan_von_szily", "catalan", "phi",
    "psi", "psi_t", "p_sum", "r_sum", "r_prime_sum", "r_dprime_sum", "t_sum",
    "Summand", "psi_summand", "unit_summand", "d_sum_direct", "d_sum_step",
    "a_t", "d_sum_base", "q_sum", "q_scaled", "d_psi_base_closed",
    "d_psi_level1", "psi_quotient_witness", "DivisionCheck", "division_check",
    "psi_divisibility_check",
    "CheckResult", "GridBounds", "IdentitySpec", "Report", "registry_ids",
    "get_identity", "register", "run_check", "sweep", "to_jsonl", "to_csv",
    "to_human",
]
