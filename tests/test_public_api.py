"""The package namespace re-exports each layer's public names unchanged."""

import supercatalan
from supercatalan import dsums, exactnum, sums, supercat, verifier

PUBLIC_NAMES = sorted([
    "CheckResult", "DivisionCheck", "GridBounds", "IdentitySpec",
    "InexactDivisionError", "IntegrityError", "Report", "Summand", "a_t",
    "binomial", "catalan", "central_binomial", "d_psi_level1",
    "d_sum_base", "d_sum_direct", "d_sum_step",
    "division_check", "exact_div", "factorial", "get_identity", "p_sum",
    "phi", "psi", "psi_divisibility_check", "psi_quotient_witness",
    "psi_summand", "psi_t", "q_scaled", "q_sum", "r_dprime_sum",
    "r_prime_sum", "r_sum", "register", "registry_ids", "run_check",
    "super_catalan", "super_catalan_factorial", "super_catalan_ratio",
    "super_catalan_von_szily", "sweep", "t_sum", "to_csv", "to_human",
    "to_jsonl", "unit_summand",
])

LAYERS = (exactnum, supercat, sums, dsums, verifier)


def test_public_names_are_pinned_and_unique():
    assert sorted(supercatalan.__all__) == PUBLIC_NAMES
    assert len(set(supercatalan.__all__)) == len(supercatalan.__all__)


def test_each_name_is_its_layer_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(supercatalan, name) is getattr(layer, name), name
    assert sum(len(layer.__all__) for layer in LAYERS) == len(PUBLIC_NAMES)
