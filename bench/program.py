"""Locate the program under test: the ``querysort`` package in this checkout's ``src``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import ``querysort`` from ``src`` of the checkout holding this file.

    Exits with an error when the checkout has no ``src/querysort``: the
    benchmark must never time an installed copy in its place.
    """
    if not (SRC / "querysort" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no querysort package under {SRC}")
    sys.path.insert(0, str(SRC))
    import querysort

    if Path(querysort.__file__).resolve().parent != SRC / "querysort":
        raise SystemExit(f"benchmark error: imported querysort from {querysort.__file__}, not {SRC}")
    return querysort
