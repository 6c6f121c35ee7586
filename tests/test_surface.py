"""The public surface carries no dead names.

Every name that ``lefpen/__init__.py`` or ``lefpen/transversal/__init__.py``
exports, and every public function defined at module level anywhere in
``src/lefpen``, exported or not, is either referenced by the program (the
source outside the ``__init__`` files, read as an AST, or by text the
benchmark scripts and the README's library example), or its docstring
names, as ``tests/<file>.py::<test>``, the tests that are its only
callers.  Each test a docstring names calls what names it, for those
functions, the exports and the public methods of the exported classes
alike.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import lefpen
import lefpen.transversal

ROOT = Path(__file__).resolve().parent.parent
NAMED_TEST = re.compile(r"tests/(test_\w+)\.py::(test_\w+)")


def exports(package):
    tree = ast.parse(Path(package.__file__).read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def source_references():
    """Names loaded, and attributes read, anywhere in src/lefpen outside the __init__ files."""
    names = set()
    for path in (ROOT / "src" / "lefpen").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def library_text():
    """The README's library example and the benchmark scripts."""
    example = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    example = example.split("```python", 1)[1].split("```", 1)[0]
    return example + "".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))


def module_functions():
    """Every public function defined at module level in src/lefpen, as (module, name)."""
    src = ROOT / "src"
    for path in sorted((src / "lefpen").rglob("*.py")):
        module = importlib.import_module(".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__"))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, node.name


def named_tests(obj):
    """The (file, test) pairs that obj's docstring names; each must exist."""
    named = NAMED_TEST.findall(inspect.getdoc(obj) or "")
    for file, test in named:
        tree = ast.parse((ROOT / "tests" / (file + ".py")).read_text())
        assert test in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, (file, test)
    return named


def unreached(owned):
    """'module.name' of each (module, name) in owned that neither the program nor the
    library text references and whose docstring names no test."""
    referenced, text = source_references(), library_text()
    return [
        "%s.%s" % (module.__name__, name)
        for module, name in owned
        if name not in referenced
        and not re.search(r"\b%s\b" % name, text)
        and not named_tests(getattr(module, name))
    ]


def test_every_export_is_used_or_names_its_test():
    assert unreached((p, n) for p in (lefpen, lefpen.transversal) for n in exports(p)) == []


def test_every_module_function_is_used_or_names_its_test():
    assert unreached(module_functions()) == []


def test_docstring_named_tests_call_what_names_them():
    objects = [getattr(p, n) for p in (lefpen, lefpen.transversal) for n in exports(p)]
    objects += [getattr(module, name) for module, name in module_functions()]
    objects += [
        getattr(cls, name)
        for cls in objects
        if inspect.isclass(cls)
        for name in vars(cls)
        if not name.startswith("_") and inspect.isroutine(getattr(cls, name))
    ]
    for obj in objects:
        for file, test in named_tests(obj):
            source = (ROOT / "tests" / (file + ".py")).read_text()
            body = next(n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == test)
            assert re.search(r"\b%s\b" % obj.__name__, ast.get_source_segment(source, body)), (obj, test)
