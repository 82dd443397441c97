"""Library code that only the tests call is deleted or made real.

Every function and class that ``src/gazescore`` defines must be referenced
from a module of ``src/`` or ``bench/``, outside its own definition: by name,
as an attribute, or as a string naming it (``bench/layertrace.py`` names the
ops it wraps). Dunder methods, which Python calls itself, are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays without a src/ or bench/ reference
ALLOWED = {
    "agreement_counts": "acceptance 4 reproduces the paper's annotator agreement with it",
}

DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def referenced_names(tree):
    """Each name ``tree`` reads, with its count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_NAME.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_every_library_definition_is_referenced_from_src_or_bench():
    sources = sorted((ROOT / "src" / "gazescore").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sources + sorted((ROOT / "bench").glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unreferenced = {}
    for path in sources:
        for node in ast.walk(trees[path]):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and everywhere[node.name] <= referenced_names(node)[node.name]):
                unreferenced[node.name] = path.stem
    unlisted = [f"{module}.{name}" for name, module in unreferenced.items() if name not in ALLOWED]
    assert not unlisted, (f"defined in src/gazescore but referenced from no src/ or bench/ "
                          f"module: {unlisted}; delete it, or give it a caller there")
    # an allowed name that gains a caller, or goes, leaves the list too
    assert sorted(unreferenced) == sorted(ALLOWED)
