"""The package root re-exports nothing: each name has one import path."""

import subprocess
import sys
import types

import pytest


# wireless takes the integer rule for its counts from privacy; cli loads
# sim and tasks only when simulate runs
@pytest.mark.parametrize("module, dependencies", [
    ("privacy", ["errors"]),
    ("wireless", ["errors", "privacy"]),
    ("cli", ["config", "errors", "privacy", "solver", "wireless"]),
], ids=["privacy", "wireless", "cli"])
def test_importing_a_module_loads_only_its_dependencies(module, dependencies):
    # a fresh interpreter, so modules other tests imported do not count
    code = (
        f"import sys, binomfl.{module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'binomfl')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == sorted(["binomfl", f"binomfl.{module}", *(f"binomfl.{m}" for m in dependencies)])


def test_package_root_re_exports_nothing():
    import binomfl

    # submodules that other tests imported are attributes of the package
    public = [name for name in vars(binomfl) if not name.startswith("_")]
    assert all(isinstance(getattr(binomfl, name), types.ModuleType) for name in public)
