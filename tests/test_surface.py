"""The public surface carries no dead names.

A public name is an export of ``lefpen`` or ``lefpen.transversal``, a
public function defined at module level anywhere in ``src/lefpen``, or a
public method or property of an exported class.  Each one is reached by
the program or listed in EXCEPTIONS with its reason.  The program is read
as code, never as text:

* the source outside the ``__init__`` files: the names it loads and the
  attributes it reads;
* the README's library example and the scripts under ``perfbench/``: the
  names they import and the attributes they read;
* the qualnames that the traced benchmark run wraps, ``layers.SPANS``.

A module-level name is reached by a name or an attribute, a method or a
property by an attribute; a comment, a string or a local variable of the
same spelling reaches nothing.
"""

import ast
import inspect
import sys
from pathlib import Path

import lefpen
import lefpen.transversal

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402

EXCEPTIONS = {
    "base_twist_automorphism": "criterion 4 checks the paper's mixed automorphism, which no report reaches",
    "standard_curve": "dehn_twist's UnsupportedCycle message tells library users to call it",
}

# reached only because the traced benchmark run wraps them; the next change
# to the benchmark drops those spans, and these names with them
SPANS_ONLY = {"vanishing_label", "eta_transverse_check", "CutoffProfile.d1", "CutoffProfile.d2", "CutoffProfile.d3"}


def exports(package):
    tree = ast.parse(Path(package.__file__).read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def exported_names():
    return {name for package in (lefpen, lefpen.transversal) for name in exports(package)}


def module_functions():
    return {
        node.name
        for path in (ROOT / "src" / "lefpen").rglob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def members():
    """'Class.name' for each public method or property of an exported class."""
    names = set()
    for package in (lefpen, lefpen.transversal):
        for name in exports(package):
            obj = getattr(package, name)
            if inspect.isclass(obj):
                names |= {
                    "%s.%s" % (name, member)
                    for member, value in vars(obj).items()
                    if not member.startswith("_") and (inspect.isroutine(value) or isinstance(value, property))
                }
    return names


def public_names():
    return exported_names() | module_functions() | members()


def readme_example():
    example = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    return example.split("```python", 1)[1].split("```", 1)[0]


def attributes_read(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def references():
    """(names, attributes): the names the source loads and the library code
    imports, and the attributes either reads; SPANS aside."""
    names, attributes = set(), set()
    for path in (ROOT / "src" / "lefpen").rglob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            attributes |= attributes_read(tree)
    for source in [readme_example()] + [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]:
        tree = ast.parse(source)
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        attributes |= attributes_read(tree)
    return names, attributes


def unreached(labels=None, spans=True):
    """The labels (by default every public name) that the program does not
    reach, counting SPANS or not."""
    names, attributes = references()
    wrapped = {qualname for _, _, qualname, _ in layers.SPANS} if spans else set()
    out = set()
    for label in public_names() if labels is None else labels:
        owner, _, name = label.rpartition(".")
        if not (label in wrapped or name in attributes or (not owner and name in names)):
            out.add(label)
    return out


# the export and module-function tests narrow the whole rule to one kind of
# name each, so a failure says which kind it is; an exception stands in each
# kind that holds its name
def test_every_export_is_used_or_names_its_test():
    assert unreached(exported_names()) == set(EXCEPTIONS) & exported_names()


def test_every_module_function_is_used_or_names_its_test():
    assert unreached(module_functions()) == set(EXCEPTIONS) & module_functions()


def test_every_public_name_is_reached_or_excepted():
    # equality both ways: a new public name that nothing reaches fails, and so
    # does an exception that the program comes to reach, which then leaves the dict
    assert unreached() == set(EXCEPTIONS)


def test_names_reached_only_by_spans():
    assert unreached(spans=False) - unreached() == SPANS_ONLY


def test_readme_library_example_runs():
    exec(compile(readme_example(), "README.md", "exec"), {})
