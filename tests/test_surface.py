import importlib
import pkgutil

import nonscatter


def test_public_names_resolve():
    # a stale __all__ entry breaks `from nonscatter.<module> import *`
    modules = [importlib.import_module(f"nonscatter.{m.name}") for m in pkgutil.iter_modules(nonscatter.__path__)]
    listed = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(listed) >= 7
    for mod in listed:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_removed_constants_are_gone():
    # asym_report is the one place that forms C1 and C2
    for mod in (nonscatter, nonscatter.asymptotics):
        for name in ("c1", "c2", "_saddle_samples"):
            assert not hasattr(mod, name), (mod.__name__, name)
