"""The package attributes the benchmark's tracer wraps still exist.

perfbench/layers.py installs its span wrappers with setattr on package
modules, and reads some package functions by attribute.  A name the package
drops would still be set, on nothing that calls it, and a traced run would
still end correct.  The file is read here with ast, not imported.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# names the tracer sets that the package no longer defines, and why each went
DROPPED = {
    "transforms.canonical_form": "kelmans decides a class change by a closed form, with no certificate",
}


def _targets() -> set[str]:
    """Every `module.attr` the file reads of a package module it imports, and
    every (owner, "attr") entry of its `patches` list, as dotted names."""
    tree = ast.parse(LAYERS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "bicyclic_spectra"
               for alias in node.names}
    found = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    (patches,) = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["patches"]]
    for entry in patches.elts:
        owner, attr = entry.elts[:2]
        found.add(f"{ast.unparse(owner)}.{attr.value}")
    return found


def _exists(dotted: str) -> bool:
    head, *path = dotted.split(".")
    obj = importlib.import_module(f"bicyclic_spectra.{head}")
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_patch_target_exists():
    targets = _targets()
    # the traced runs read these, and the noqa imports of verify keep them
    assert {"verify.enumerate_bicyclic", "verify.targeted_max_degree_family", "verify.base_graph",
            "verify.kelmans", "verify.pendant_shift"} <= targets
    assert {name for name in targets if not _exists(name)} == set(DROPPED)
