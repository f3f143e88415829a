import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "scalevar"


def private_imports(package_dir):
    """(file, module, name) for each `from .<module> import _<name>` in the package."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "scalevar":
                continue
            found += [(path.name, module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    assert private_imports(PACKAGE) == []


def test_private_import_scan_sees_parenthesised_imports(tmp_path):
    (tmp_path / "a.py").write_text("from .b import (\n    public,\n    _hidden,\n)\n")
    (tmp_path / "c.py").write_text("from scalevar.b import _other\nfrom os import _exit\n")
    assert private_imports(tmp_path) == [("a.py", "b", "_hidden"), ("c.py", "scalevar.b", "_other")]
