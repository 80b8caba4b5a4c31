"""Every name the package exports has a caller inside the package, and
every field of its dataclasses a reader.

A public helper that only tests call is a second thing to keep in step
with the code that does the work, so each exported name must be used
(as a name or an attribute) in some module other than ``__init__.py``,
or be listed below with the reason it stays.  The same holds for result
fields: each field of a dataclass defined in the package must be read as
an attribute in some module other than ``__init__.py``, or its class be
listed with the reason it stays.  And each module-level upper-case
constant must be read somewhere in the package, so none outlives the code
that used it.
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

# dataclasses with fields no package module reads, kept for these readers
WHOLE_CLASS_READERS = {
    "SummaryStats": "the runners write it whole into report.json",
    "MahlerResult": "criterion 05 reads it",
    "DiscriminantBreakdown": "disc and the lln/symmetry records write it whole",
}


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _module_nodes():
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text()))


def _used_names():
    used = set()
    for node in _module_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _is_dataclass(node):
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def _dataclass_fields():
    return {node.name: {item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign)}
            for node in _module_nodes()
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)}


def test_every_export_has_a_package_caller_or_a_reason():
    uncalled = _exported_names() - _used_names()
    assert uncalled == set(NO_PACKAGE_CALLER), (
        f"exported with no caller in the package: "
        f"{sorted(uncalled - set(NO_PACKAGE_CALLER))}; listed but called or "
        f"not exported: {sorted(set(NO_PACKAGE_CALLER) - uncalled)}")


def test_every_result_field_has_a_package_reader():
    read = {node.attr for node in _module_nodes()
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = {cls: sorted(f - read) for cls, f in _dataclass_fields().items()
              if f - read}
    unlisted = {c: f for c, f in unread.items() if c not in WHOLE_CLASS_READERS}
    assert set(unread) == set(WHOLE_CLASS_READERS), (
        f"fields with no reader in the package: {unlisted}; listed but every "
        f"field read: {sorted(set(WHOLE_CLASS_READERS) - set(unread))}")


def test_every_constant_is_read_in_the_package():
    constants = {target.id
                 for path in PACKAGE.glob("*.py")
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for node in _module_nodes()
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    assert constants - read == set(), (
        f"constants never read in the package: {sorted(constants - read)}")
