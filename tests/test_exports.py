import importlib
import types

import kraussim

MODULES = ("numerics", "channels", "dilation", "qsp", "simulator", "tomography", "cli")


def test_every_exported_name_resolves():
    exported = set()
    for name in MODULES:
        module = importlib.import_module(f"kraussim.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"kraussim.{name}.__all__ names {missing}"
        exported.update(module.__all__)
    # the package has no __all__, so `from kraussim import *` takes its
    # public names: each must be one a module exports
    public = [
        n for n, v in vars(kraussim).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    ]
    assert public and set(public) <= exported, sorted(set(public) - exported)
