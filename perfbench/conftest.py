"""Test set-up for the benchmark's own tests (``python3 -m pytest perfbench``):
the library is imported from the repository's ``src`` directory."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
