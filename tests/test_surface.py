"""The package's public surface: exported names and CLI options change only on purpose."""

import ast
import re
from pathlib import Path

import fishbone
from fishbone.cli import main

SRC = Path(fishbone.__file__).resolve().parent

PUBLIC_NAMES = [
    "CycleError", "FAIL", "FAMILIES", "FamilyMismatch", "Fin", "FinitePoset",
    "NoEligiblePoint", "NotAChain", "OMEGA", "OMEGA_STAR", "Omega", "OmegaRep",
    "OmegaStar", "OmegaStarRep", "OrderTerm", "PASS", "ParseError", "PosetError",
    "PreconditionViolated", "SpineCertificate", "Sum", "ThresholdTooSmall",
    "UP_TO_BOUND", "UnknownClaim", "UnknownElement", "UnknownName",
    "VerificationReport", "WindowSpec", "__version__",
    "check_bounded_bicomparable", "check_bounded_cofinally_above", "check_spine",
    "desk_preset", "elem_le", "element_id", "extend_spine_partition",
    "find_spine", "greedy_antichain_from_chains", "has_maximum", "has_minimum",
    "height", "height_and_max_chain", "interpolate_chain",
    "is_spine", "level_window",
    "load_certificate", "load_poset",
    "loads_poset", "mirsky_partition", "normalize", "parse_term",
    "poset_from_json_dict", "render", "reverse",
    "strong_thick_check", "term_report", "verify_claim",
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


FAMILY_NAMES = {"P1", "P2", "P3", "P4", "P5"}
AXIS_NAMES = {"n", "z", "x", "y", "c", "i"}


def name_comparisons(path: Path, names: set) -> list[int]:
    """Lines where the module compares something with a literal in
    ``names``, directly or as an element of a literal tuple, list or set."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        items = [e for o in operands for e in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
        if any(isinstance(e, ast.Constant) and e.value in names for e in items):
            lines.append(node.lineno)
    return lines


def test_no_branch_on_a_family_name():
    # A family's facts live in its record in ``families.RECORDS``; a test of
    # the name would bring back a per-family branch beside the record.
    for module in ("families.py", "acceptance.py"):
        assert name_comparisons(SRC / module, FAMILY_NAMES) == [], module


def test_no_branch_on_an_axis_name():
    # Which axes are signed is the record's ``signed``; a window spec is
    # plain ranges, and no code tests an axis by its name.
    for module in ("families.py", "acceptance.py"):
        assert name_comparisons(SRC / module, AXIS_NAMES) == [], module


FORM = re.compile(r"_le_p[1-5](_cols)?")


def form_references(path: Path) -> list[int]:
    """Lines where the module names a family's comparison form outside the
    ``RECORDS`` assignment; a definition is not a reference."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "RECORDS" for t in node.targets):
            allowed.update(map(id, ast.walk(node)))
    lines = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name and FORM.fullmatch(name) and id(node) not in allowed:
            lines.append(node.lineno)
    return lines


def test_forms_are_read_only_from_the_records():
    # A claim that calls a form by name would not see a fault planted in the
    # record, so every comparison goes through ``RECORDS[family]``.
    for path in sorted(SRC.rglob("*.py")):
        assert form_references(path) == [], path.name


# Each matrix product has a reason: a table is validated by one square,
# which also gives its covers; a subposet, which restricts its parent with no
# product, squares its strict matrix when its covers are first read; and a
# thickness question reads one partner matrix.
PRODUCT_SITES = {"poset.FinitePoset.__init__", "poset.FinitePoset.cover_matrix", "partition._thick_partners"}


def product_sites(path: Path) -> set[str]:
    """Qualified names of the functions (or the module) that name
    ``_bool_matmul``; its definition is not a use."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name == "_bool_matmul":
                sites.add(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if inner else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def test_matrix_products_run_only_at_their_named_sites():
    # A subposet restricts its parent's matrices, so it needs no product to
    # be built; a new product site must be added above with its reason.
    assert set().union(*map(product_sites, SRC.rglob("*.py"))) == PRODUCT_SITES


# ``leq | leq.T`` is built on its first read, so the cache behind
# ``comparability_matrix`` is cleared in ``_set`` and filled and read only in
# the property: a module that read ``_comparable`` itself could find None.
COMPARABLE_STORES = {"poset.FinitePoset._set", "poset.FinitePoset.comparability_matrix"}
COMPARABLE_LOADS = {"poset.FinitePoset.comparability_matrix"}


def attribute_sites(path: Path, attr: str) -> tuple[set[str], set[str]]:
    """Qualified names of the functions (or the module) that assign, and
    that read, the attribute ``attr`` of anything."""
    stores, loads = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == attr:
                (loads if isinstance(child.ctx, ast.Load) else stores).add(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if inner else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return stores, loads


def test_comparability_is_read_only_through_its_property():
    sites = [attribute_sites(path, "_comparable") for path in SRC.rglob("*.py")]
    assert set().union(*(s for s, _ in sites)) == COMPARABLE_STORES
    assert set().union(*(l for _, l in sites)) == COMPARABLE_LOADS


TERM_CONSTRUCTORS = {"Sum", "OmegaRep", "OmegaStarRep"}
NORMAL_FORM_BUILDERS = {"_sum", "_rep"}


def term_constructor_calls(path: Path) -> list[int]:
    """Lines where the module calls ``Sum``, ``OmegaRep`` or ``OmegaStarRep``
    outside ordertype's normal-form builders ``_sum`` and ``_rep``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.name == "ordertype.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in NORMAL_FORM_BUILDERS:
                allowed.update(map(id, ast.walk(node)))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in TERM_CONSTRUCTORS:
                lines.append(node.lineno)
    return lines


def test_terms_are_built_only_in_normal_form():
    # A sum or repetition built outside _sum and _rep could leave the normal
    # form that the invariants' fold assumes.
    for path in sorted(SRC.rglob("*.py")):
        assert term_constructor_calls(path) == [], path.name
