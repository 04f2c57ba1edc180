"""Put the benchmark's modules and the program's sources on the path.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
