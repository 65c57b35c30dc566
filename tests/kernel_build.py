"""Builds the compiled kernel library with ``setup.py``, outside the tree.

``build_compiled(dest)`` runs ``setup.py build_ext`` with its library and
temporary directories under ``dest``, then imports a copy of the ctypes
loader placed next to the library it built, with the ``kernels.c`` the
loader checks the library against. The tests use it to exercise
the compiled kernels when the tree has none built. Importing this module
builds nothing.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOADER = ROOT / "src" / "powersplit" / "_kernels" / "_compiled.py"


def build_compiled(dest: Path):
    """The loader module bound to a library that ``setup.py`` built under
    ``dest``; ``RuntimeError`` with the build log when the build fails."""
    lib_dir = dest / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(lib_dir), "--build-temp", str(dest / "tmp")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup.py build_ext failed ({proc.returncode}):\n{proc.stdout}")
    kernel_dir = lib_dir / "powersplit" / "_kernels"
    shutil.copy(LOADER, kernel_dir)
    shutil.copy(LOADER.parent / "kernels.c", kernel_dir)  # the source it checks against
    spec = importlib.util.spec_from_file_location(
        f"compiled_kernels_{dest.name}", kernel_dir / LOADER.name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
