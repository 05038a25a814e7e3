"""The oracles share no code with the path they check, read off their imports.

The axiom verifier may import only ``.errors`` from the package, and the
tableau oracle only ``generate``: anything more would let a fault in the
generator reach the check that is meant to catch it.
"""

import ast
from pathlib import Path

from ancrystal import axioms

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
