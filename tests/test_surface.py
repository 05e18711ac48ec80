import ast
import importlib
import pathlib
import pkgutil

import nonscatter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _modules() -> list:
    return [importlib.import_module(f"nonscatter.{m.name}") for m in pkgutil.iter_modules(nonscatter.__path__)]


def test_public_names_resolve():
    # a stale __all__ entry breaks `from nonscatter.<module> import *`
    listed = [mod for mod in _modules() if hasattr(mod, "__all__")]
    assert len(listed) >= 7
    for mod in listed:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_every_public_name_has_a_reader():
    # the package (less its re-exports), the benchmark, the scripts and the
    # acceptance gate; names only, so a local variable or attribute of the same
    # name counts as a reader, and a name read only as a string (the benchmark
    # tracer's patch targets) counts as none
    sources = [p for p in (ROOT / "src" / "nonscatter").glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    for mod in _modules():
        unread = [name for name in getattr(mod, "__all__", ()) if name not in read]
        assert not unread, (mod.__name__, unread)


def test_removed_constants_are_gone():
    # asym_report is the one place that forms C1 and C2
    for mod in (nonscatter, nonscatter.asymptotics):
        for name in ("c1", "c2", "_saddle_samples"):
            assert not hasattr(mod, name), (mod.__name__, name)


def test_unread_surface_is_gone():
    # the area oracle's lam + lt is the one test vector xi
    for mod in (nonscatter, nonscatter.czmath):
        for name in ("TestVector", "xi_vector"):
            assert not hasattr(mod, name), (mod.__name__, name)
    assert not hasattr(nonscatter.TrigCurve, "degree")
