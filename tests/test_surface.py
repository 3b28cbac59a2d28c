"""The package's public surface: exported names and CLI options change only on purpose."""

import fishbone
from fishbone.cli import main

PUBLIC_NAMES = [
    "CycleError", "FAIL", "FAMILIES", "FamilyMismatch", "Fin", "FinitePoset",
    "NoEligiblePoint", "NotAChain", "OMEGA", "OMEGA_STAR", "Omega", "OmegaRep",
    "OmegaStar", "OmegaStarRep", "OrderTerm", "PASS", "ParseError", "PosetError",
    "PreconditionViolated", "SpineCertificate", "Sum", "ThresholdTooSmall",
    "UP_TO_BOUND", "UnknownClaim", "UnknownElement", "UnknownName",
    "VerificationReport", "WindowSpec", "__version__",
    "check_bounded_bicomparable", "check_bounded_cofinally_above", "check_spine",
    "claim_names", "desk_preset", "elem_le", "element_id", "extend_spine_partition",
    "find_spine", "greedy_antichain_from_chains", "has_maximum", "has_minimum",
    "height", "height_and_max_chain", "interpolate_chain",
    "is_spine", "is_strongly_maximal", "level_window",
    "load_certificate", "load_poset", "loads_certificate",
    "loads_poset", "mirsky_partition", "named_subset", "normalize", "parse_term",
    "poset_from_json_dict", "render", "reverse", "smc_gap_witness",
    "strong_thick_check", "term_report", "thick_degree", "verify_claim",
    "verify_constant_on_rows", "verify_final_counting", "verify_level_structure",
    "verify_min_drop", "width", "width_and_dilworth", "window",
]


def test_all_names_are_unique_and_resolve():
    assert len(set(fishbone.__all__)) == len(fishbone.__all__)
    for name in fishbone.__all__:
        assert hasattr(fishbone, name), name


def test_public_names_are_pinned():
    assert sorted(fishbone.__all__) == PUBLIC_NAMES


def test_family_window_has_no_out_option(capsys, tmp_path):
    out_path = tmp_path / "f.json"
    code = main(["family", "window", "P3", "--spec", "x=1,y=1", "--out", str(out_path)])
    assert code == 2 and capsys.readouterr().out == ""
    assert not out_path.exists()
