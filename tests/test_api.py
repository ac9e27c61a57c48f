"""Public names: each module's __all__ lists only what the module defines."""

import importlib
import subprocess
import sys

from conftest import CLI_ENV

MODULES = ("constants", "fileio", "reconstruct", "scan", "spectrum", "spincore", "texture")


def test_star_import_of_every_module():
    # A name deleted from a module but left in its __all__ fails the star
    # import with AttributeError.
    for name in MODULES:
        namespace = {}
        exec(f"from spinscan.{name} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(importlib.import_module(f"spinscan.{name}").__all__)


def test_import_leaves_thread_pool_and_config_parser_unloaded():
    # Every fresh process imports spinscan; only scans with workers > 1
    # need concurrent.futures and only config files need configparser.
    code = ("import sys, spinscan; "
            "print(sorted({'concurrent.futures', 'configparser'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=CLI_ENV, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["[]"]
