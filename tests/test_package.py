"""The package root: importing ``locprov`` loads none of its modules, and
each name is imported from the module that defines it."""

import os
import subprocess
import sys
from pathlib import Path

import locprov

_SRC = Path(locprov.__file__).resolve().parent.parent


def test_package_root_loads_no_module():
    """Run in a fresh interpreter: this one has imported every module."""
    code = ("import sys, types; import locprov; "
            "print(sorted(m for m in sys.modules if m.startswith('locprov'))); "
            "import locprov.audit; "
            "print(isinstance(locprov.audit, types.ModuleType))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(_SRC)}).stdout
    assert out.splitlines() == ["['locprov']", "True"]
