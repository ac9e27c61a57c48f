"""Public names: each module's __all__ lists only what the module defines."""

import importlib

MODULES = ("constants", "fileio", "reconstruct", "scan", "spectrum", "spincore", "texture")


def test_star_import_of_every_module():
    # A name deleted from a module but left in its __all__ fails the star
    # import with AttributeError.
    for name in MODULES:
        namespace = {}
        exec(f"from spinscan.{name} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(importlib.import_module(f"spinscan.{name}").__all__)
