"""The oracles share no code with the path they check.

The axiom verifier may import only ``.errors`` from the package, and the
tableau oracle only ``generate``: anything more would let a fault in the
generator reach the check that is meant to catch it.  The slack oracle
``slack_dicts`` states the extended graph's fringe rule itself, so a fault
in the rule the kernels are compiled from shows as a disagreement.
"""

import ast
from pathlib import Path

import pytest

from ancrystal import Bounds, WeightFunction, axioms, slack_dicts, support

PACKAGE = "ancrystal"


def package_imports(path):
    """``(module, names)`` of every import of the package in the file at path:
    a relative module keeps its leading dots, and a plain ``import`` has no
    names."""
    found = []
    for node in ast.walk(ast.parse(Path(path).read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [
                (alias.name, ())
                for alias in node.names
                if alias.name.split(".")[0] == PACKAGE
            ]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == PACKAGE:
                found.append((module, tuple(alias.name for alias in node.names)))
    return found


def test_the_axiom_verifier_imports_only_errors_from_the_package():
    modules = {module for module, _ in package_imports(axioms.__file__)}
    assert modules == {".errors"}


def test_the_tableau_oracle_imports_only_generate_from_the_package():
    oracle = Path(__file__).with_name("test_tableau_oracle.py")
    assert package_imports(oracle) == [(PACKAGE, ("generate",))]


def scans_disagree_with_slack_dicts(g):
    """True iff some level scan of g, at its zero function under c = (1, ..., n)
    and d = 0, differs from the prefix sums of ``slack_dicts`` there."""
    c, d = tuple(range(1, g.n + 1)), (0,) * g.n
    f = WeightFunction(g, Bounds(c, d), (0,) * len(g.nodes))
    for i in range(1, g.n + 1):
        eps, delta, _, _ = slack_dicts(f, i)
        prefix = [0]
        for j in range(1, i + 2):
            prefix.append(prefix[-1] + eps[j] - delta[j - 1])
        if g.level_scans[i - 1](f.values, c, d)[0] != tuple(prefix):
            return True
    return False


@pytest.mark.parametrize("n", [1, 3])
def test_the_slack_oracle_catches_a_fault_in_the_fringe_rule(n, monkeypatch):
    assert not scans_disagree_with_slack_dicts(support._build.__wrapped__(n))
    term = support._term

    def below_as_right(index, k, i, j):  # files the fringe below G^k as d_k
        if j != 0 and i - j > k - 1:
            return f"d[{k - 1}]"
        return term(index, k, i, j)

    monkeypatch.setattr(support, "_term", below_as_right)
    assert scans_disagree_with_slack_dicts(support._build.__wrapped__(n))  # uncached
