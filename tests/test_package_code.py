"""The package holds the code its stages and commands run.

Every top-level function and class in ``src/cueflow`` is referenced by code
(not by a string) in the package or in the benchmark harness, somewhere
other than its own definition, and every field and property of its classes
is read there.  A helper only the tests call lives in the tests.  Every
name a module imports is read in that module.  Only ``storage`` and
``config`` touch files.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The aggregate readers: criterion 8 round-trips every written format.
ALLOWED = {"read_grid_csv", "read_histogram_csv", "read_report_csv"}
# Read or built by acceptance criterion 8 alone: it compares a redetected
# trace's cue mask, and builds a WelchResult whose dof the report file drops.
ALLOWED_FIELDS = {"DetectionTrace.cue", "WelchResult.dof"}
# storage owns every data format; config reads the INI file it parses.
FILE_MODULES = {"storage.py", "config.py"}
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "loadtxt"}


def _references(tree: ast.AST):
    """(name, node) for every name and attribute the code of ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _trees() -> dict[Path, ast.Module]:
    """The parsed modules of the package and of the benchmark harness."""
    return {path: ast.parse(path.read_text(), filename=str(path))
            for folder in ("src/cueflow", "perfbench")
            for path in sorted((ROOT / folder).glob("*.py"))}


def test_every_package_definition_is_referenced_outside_itself():
    trees = _trees()
    references = [ref for tree in trees.values() for ref in _references(tree)]
    unreferenced = []
    for path, tree in trees.items():
        if path.parent.name != "cueflow":
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in ALLOWED):
                own = set(map(id, ast.walk(node)))
                if not any(name == node.name and id(ref) not in own
                           for name, ref in references):
                    unreferenced.append(f"{path.name}: {node.name}")
    assert not unreferenced, unreferenced


def _is_property(node: ast.AST) -> bool:
    return (isinstance(node, ast.FunctionDef)
            and any(getattr(d, "id", None) == "property" for d in node.decorator_list))


def test_every_field_and_property_is_read():
    """Every annotated field and every property of a class in ``src/cueflow``
    is read as an attribute (``x.name``) in the package or the harness.
    The check matches by name alone, so a field that shares its name with
    one that is read, such as ``.times``, passes it."""
    trees = _trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "cueflow":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif _is_property(node):
                    name = node.name
                else:
                    continue
                if name not in read and f"{cls.name}.{name}" not in ALLOWED_FIELDS:
                    unread.append(f"{path.name}: {cls.name}.{name}")
    assert not unread, unread


def _imported_names(tree: ast.AST):
    """The names the imports of ``tree`` bind, but ``from __future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_package_import_is_read():
    unread = []
    for path in sorted((ROOT / "src/cueflow").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        names = sorted(set(_imported_names(tree)) - read)
        if names:
            unread.append(f"{path.name}: {', '.join(names)}")
    assert not unread, unread


def test_only_storage_and_config_touch_files():
    """A file read or written anywhere else would be a second place that
    knows a format: no other module calls ``open``, ``read_text``,
    ``write_text``, ``read_bytes``, ``write_bytes`` or ``np.loadtxt``."""
    calls = []
    for path in sorted((ROOT / "src/cueflow").glob("*.py")):
        if path.name in FILE_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in FILE_CALLS:
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert not calls, calls
