"""The benchmark in perfbench/ still finds every package name it uses, and
the CLI still parses every command line it runs.

perfbench/worker.py builds its list of desk checks from ``verify.*`` when
it is imported, and perfbench/oracles.py and run.py import some names only
inside the functions that use them.  Deleting or renaming one of those
names, or a subcommand the benchmark runs, would otherwise surface only in
a benchmark run, not in these tests.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def test_worker_and_run_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("probe", "gen", "oracles", "worker", "run"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    worker = importlib.import_module("worker")
    importlib.import_module("run")
    assert worker.DESK and all(callable(fn) for _, fn, _ in worker.DESK)


def package_names(path: Path) -> list[tuple[str, str]]:
    """Every ``(module, name)`` the script takes from the package: names in
    ``from fishbone[.module] import ...`` statements at any depth, and
    attributes read from a package module bound by ``import fishbone`` or
    ``from fishbone import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name == "fishbone")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fishbone":
            for alias in node.names:
                used.append((node.module, alias.name))
                if node.module == "fishbone":
                    modules[alias.asname or alias.name] = f"fishbone.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.append((modules[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_package_name_the_benchmark_uses_resolves(path):
    for module, name in package_names(path):
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"


def test_the_lazy_imports_are_seen():
    names = {n for p in SCRIPTS for n in package_names(p)}
    assert ("fishbone.acceptance", "oracle_predicates") in names
    assert ("fishbone.ordertype", "OmegaStarRep") in names
    assert ("fishbone.verify", "verify_min_drop") in names


def test_benchmark_claims_are_within_the_caps(monkeypatch):
    # A claim or desk check the registry does not hold, or a cap below a
    # size the benchmark runs, would turn its operations into usage errors.
    from fishbone.report import CLAIMS

    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("probe", "gen", "oracles", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    gen, worker = importlib.import_module("gen"), importlib.import_module("worker")
    for family, claim, params in gen.CLAIMS:
        assert f"{family}.{claim}" in CLAIMS, (family, claim)
        caps = CLAIMS[f"{family}.{claim}"].caps
        assert all(params[k] <= cap for k, cap in caps.items() if k in params), (family, claim)
    registered = list(CLAIMS.values())
    assert all(check in registered for _, check, _ in worker.DESK)


def test_benchmark_windows_use_only_their_familys_axes(monkeypatch):
    # A window spec must bound exactly its family's axes, and a named set
    # must resolve; otherwise the benchmark's window and cofinality
    # operations would turn into usage errors.
    from fishbone import families

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "gen", raising=False)
    gen = importlib.import_module("gen")
    specs = [(family, spec) for family, spec in gen.WINDOWS]
    specs += [(family, bound) for family, _, _, bound, _ in gen.COFINALITY]
    for family, spec in specs:
        assert sorted(spec) == sorted(families.RECORDS[family].axes), (family, spec)
    for family, upper, lower, bound, slack in gen.COFINALITY:
        spec = families.WindowSpec.make(**{a: tuple(v) if isinstance(v, list) else v for a, v in bound.items()})
        for name in (upper, lower):
            assert families.named_subset_payloads(family, name, spec.widened(slack)), (family, name)


# The argument that holds the command line in the benchmark's CLI calls:
# worker.py's ``command(name, argv)`` and make_digests.py's ``digest(argv)``.
ARGV_ARGUMENT = {"command": 1, "digest": 0}


def command_lines(path: Path) -> list[list[str]]:
    """Every argv list literal the script passes to the CLI, with each item
    that is not a string constant (a seed, a term) replaced by "0"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ARGV_ARGUMENT:
            argv = node.args[ARGV_ARGUMENT[node.func.id]]
            assert isinstance(argv, ast.List), f"{path.name}:{node.lineno}"
            found.append([e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else "0" for e in argv.elts])
    return found


def test_every_command_line_the_benchmark_runs_parses():
    # A deleted subcommand or option would otherwise fail only in a
    # benchmark run.
    from fishbone import cli

    argvs = [argv for path in SCRIPTS for argv in command_lines(path)]
    assert ["verify", "all"] in argvs and ["--seed", "0", "sweep"] in argvs and ["ot", "check", "0"] in argvs
    for argv in argvs:
        cli._build_parser().parse_args(argv)
