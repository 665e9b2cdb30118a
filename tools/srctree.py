"""The source tree that the --src of a tool under tools/ names.

A tree is a directory that holds the rsdnet package, rsdnet/__init__.py
included.  A tool given any other directory exits non-zero rather than
report on nothing, or on the rsdnet that PYTHONPATH happens to reach.
"""

from __future__ import annotations

import sys
from pathlib import Path


def package(src) -> Path:
    """The resolved rsdnet package directory under src; exit non-zero
    unless it holds __init__.py."""
    home = Path(src).resolve() / "rsdnet"
    if not (home / "__init__.py").is_file():
        sys.exit(f"error: --src {src} holds no rsdnet/__init__.py")
    return home


def import_rsdnet(src):
    """The rsdnet package of src, imported with src first on sys.path;
    exit non-zero if the import found rsdnet anywhere else."""
    home = package(src)
    sys.path.insert(0, str(home.parent))
    import rsdnet

    found = Path(rsdnet.__file__).resolve().parent
    if found != home:
        sys.exit(f"error: imported rsdnet from {found}, not from --src {src}")
    return rsdnet
