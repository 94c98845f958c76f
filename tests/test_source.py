"""The package's source itself: what a refactor can leave behind unnoticed."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kingman"
# public names whose shipped caller is still to come: e_eta_count's is the finite suite
AWAITING_A_CALLER = {"e_eta_count"}
# public names that perfbench/ alone names, for its reference timings and its tracer;
# ROADMAP.md items 18 and 1(a) move or delete them with the next change to the benchmark
BENCHMARK_ONLY = {"sample_waiting_times", "history_from_urn_path", "total_external_length",
                  "window_external_length", "scaled_point_pattern", "sample_urn_path",
                  "statistical_suite"}


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}  # the name an import binds -> its line
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:  # import a.b binds a
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, f"{path.name} imports names it never uses: {unused}"


def named(node) -> Counter:
    """Each name, attribute and word of a string under node, counted."""
    words = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            words[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            words[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            words.update(re.findall(r"\w+", sub.value))
    return words


def uncalled(paths) -> set:
    """The public functions and classes of src/kingman among paths that no file of paths
    names outside their own body."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    everywhere = sum((named(tree) for tree in trees.values()), Counter())
    return {node.name for path, tree in trees.items() if path.parent == PACKAGE
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and everywhere[node.name] == named(node)[node.name]}  # named in its own body alone


def test_every_public_name_has_a_caller_outside_the_tests():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else \
                    [alias.name for alias in node.names]
                assert not {"conftest", "scalar_reference"} & set(modules), \
                    f"{path.name} imports the tests' helpers"
    names = uncalled(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    assert names == AWAITING_A_CALLER, f"only the tests call {sorted(names)}"


def test_only_the_benchmark_keeps_these_public_names_alive():
    names = uncalled(sorted(PACKAGE.glob("*.py")))
    assert names == AWAITING_A_CALLER | BENCHMARK_ONLY, \
        f"nothing in src/kingman calls {sorted(names - AWAITING_A_CALLER)}"


def test_only_urn_steps_the_chain_law():
    # the forward pass is stated once, in urn: every other module reads exact_marginal
    # and exact_joint_marginal (a docstring may still say the word)
    for path in sorted(PACKAGE.glob("*.py")):
        code = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, (ast.Name, ast.Attribute))}
        assert ("step_law" in code) == (path.name == "urn.py"), path.name
