"""Every name the package exports has a caller inside the package.

A public helper that only tests call is a second thing to keep in step
with the code that does the work, so each exported name must be used
(as a name or an attribute) in some module other than ``__init__.py``,
or be listed below with the reason it stays.
"""

import ast
from pathlib import Path

import kacdisc

PACKAGE = Path(kacdisc.__file__).parent

# exported for the paper, with no caller in the package
NO_PACKAGE_CALLER = {
    "exact_discriminant": "criterion 04 checks the float route against it",
    "mahler": "criterion 05 compares its two Mahler-measure routes",
    "normalization_identity_check": "criterion 03 checks the prefactor "
                                    "integrates to 1",
    "gaussian_log_moment": "the planned exact finite-n lln mean calls it "
                           "(see ROADMAP)",
}


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _used_names():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_package_caller_or_a_reason():
    uncalled = _exported_names() - _used_names()
    assert uncalled == set(NO_PACKAGE_CALLER), (
        f"exported with no caller in the package: "
        f"{sorted(uncalled - set(NO_PACKAGE_CALLER))}; listed but called or "
        f"not exported: {sorted(set(NO_PACKAGE_CALLER) - uncalled)}")
