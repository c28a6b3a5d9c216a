"""No module of the package imports a name it never uses, defines a
private module-level name it never reads, or patches a value after building
it by assigning to an attribute of anything but ``self``; only
``qstate.py`` calls ``np.linalg.svd``, behind its one ``NumericsError`` guard;
only ``channel._ascent`` reads ``ASCENT_MAX_ITER`` and ``ASCENT_STILL_ITER``,
so the norm ascent has one loop and one set of stopping rules; and
``channel.rank_one_sample_max`` takes its norms from the SVD and calls none of the ascent's private helpers,
so it stays an independent cross-check.

The first two guards leave ``__init__.py`` out: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gateselftest"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments never loaded."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]


def attribute_patches(source: str) -> list[str]:
    """Stores to ``obj.attr`` with obj not ``self``, by plain, augmented or
    annotated assignment (or any other binding)."""
    found = sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )
    return [f"line {line}: {text}" for line, text in found]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 2: path"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text()) == []


def test_guard_sees_an_unread_private_name():
    source = (
        "_USED = 1\n"
        "_SPARE, _ALSO = 2, 3\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Dead:\n"
        "    pass\n"
        "def public():\n"
        "    _local = _helper()\n"
        "    return _local\n"
        "__all__ = ['public']\n"
    )
    assert unread_private_names(source) == [
        "line 2: _SPARE",
        "line 2: _ALSO",
        "line 5: _Dead",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_patches_no_value_after_building_it(path):
    assert attribute_patches(path.read_text()) == []


def test_guard_sees_an_attribute_patch():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = 1\n"
        "box = Box()\n"
        "box.value = 2\n"
        "box.value += 1\n"
        "box.note: str = 'x'\n"
        "box.items[0] = 3\n"
        "first, box.rest = 4, 5\n"
    )
    assert attribute_patches(source) == [
        "line 5: box.value",
        "line 6: box.value",
        "line 7: box.note",
        "line 9: box.rest",
    ]


def linalg_svd_uses(source: str) -> list[str]:
    """Calls of ``<anything>.linalg.svd`` and imports of ``svd`` from ``numpy.linalg``."""
    found = sorted(
        (node.lineno, ast.unparse(node.func if isinstance(node, ast.Call) else node))
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.svd"))
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy.linalg"
            and any(alias.name == "svd" for alias in node.names)
        )
    )
    return [f"line {line}: {text}" for line, text in found]


NOT_QSTATE = [p for p in SOURCES if p.name != "qstate.py"]


@pytest.mark.parametrize("path", NOT_QSTATE, ids=[p.name for p in NOT_QSTATE])
def test_only_qstate_calls_the_svd(path):
    assert linalg_svd_uses(path.read_text()) == []


def test_guard_sees_an_svd_call():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "np.linalg.svd(m)\n"
        "np.linalg.svd(m, compute_uv=False).sum()\n"
        "np.linalg.eigvalsh(m)\n"
        "qstate.svd(m)\n"
    )
    assert linalg_svd_uses(source) == [
        "line 2: from numpy.linalg import svd",
        "line 3: np.linalg.svd",
        "line 4: np.linalg.svd",
    ]


CAP = "ASCENT_MAX_ITER"
STILL = "ASCENT_STILL_ITER"


def constant_readers(source: str, name: str) -> list[str]:
    """Reads of the constant ``name``, by name or as an attribute, each with
    the dotted name of the function it sits in (``<module>`` outside any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
                if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                    found.append((child.lineno, owner))
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {owner}" for line, owner in sorted(found)]


def package_readers(name: str) -> list[str]:
    return [
        f"{path.name}: {found.split(': ', 1)[1]}"
        for path in SOURCES
        for found in constant_readers(path.read_text(), name)
    ]


def test_only_the_ascent_reads_the_iteration_cap():
    assert package_readers(CAP) == ["channel.py: _ascent"]


def test_only_the_ascent_reads_the_still_count():
    assert package_readers(STILL) == ["channel.py: _ascent"]


def test_guard_sees_every_read_of_the_iteration_cap():
    source = (
        "ASCENT_MAX_ITER = 200\n"
        "LIMIT = ASCENT_MAX_ITER\n"
        "def _ascent():\n"
        "    for _ in range(ASCENT_MAX_ITER):\n"
        "        pass\n"
        "class Search:\n"
        "    def run(self):\n"
        "        def step():\n"
        "            return channel.ASCENT_MAX_ITER\n"
        "        return step\n"
        "def other(ASCENT_MAX_ITER=1):\n"
        "    return 'ASCENT_MAX_ITER'\n"
    )
    expected = ["line 2: <module>", "line 4: _ascent", "line 9: Search.run.step"]
    assert constant_readers(source, CAP) == expected
    # The same reads of the still count, and no read of one for the other.
    assert constant_readers(source.replace(CAP, STILL), STILL) == expected
    assert constant_readers(source, STILL) == []


CROSS_CHECK = "rank_one_sample_max"


def cross_check_calls(source: str) -> list[str]:
    """The calls of ``svd`` and of the module's private functions (the closed
    form and ``_polar`` among them) inside ``rank_one_sample_max``."""
    tree = ast.parse(source)
    private = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    [check] = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == CROSS_CHECK
    ]
    called = {ast.unparse(node.func) for node in ast.walk(check) if isinstance(node, ast.Call)}
    return sorted(name for name in called if name == "svd" or name in private)


def test_the_sampling_cross_check_takes_its_norms_from_the_svd_alone():
    assert cross_check_calls((PACKAGE / "channel.py").read_text()) == ["svd"]


def test_guard_sees_the_cross_check_share_the_ascent_helpers():
    source = (
        "def _polar(m):\n"
        "    return m\n"
        "def _two_by_two(m):\n"
        "    return m\n"
        "def _unused(m):\n"
        "    return m\n"
        "def rank_one_sample_max(m):\n"
        "    a = svd(m, compute_uv=False).sum()\n"
        "    b = _polar(m)[0]\n"
        "    c = _two_by_two(m)[0]\n"
        "    return max(a, b, c, np.linalg.norm(m))\n"
    )
    assert cross_check_calls(source) == ["_polar", "_two_by_two", "svd"]
    closed_form_only = source.replace("svd(m, compute_uv=False).sum()", "0.0")
    assert cross_check_calls(closed_form_only) == ["_polar", "_two_by_two"]
