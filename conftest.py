"""Repository-level pytest configuration.

Makes ``src/`` importable even when the package has not been installed
(useful in offline environments where editable installs are unavailable);
when the package *is* installed the inserted path is harmless.

Also registers ``--write-results`` here, the one conftest pytest is sure to
have loaded when it parses the command line; ``benchmarks/conftest.py``
reads it.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--write-results",
        action="store_true",
        default=False,
        help="let the benchmarks rewrite benchmarks/results/ (quality.json and the *.txt "
             "tables rendered from it; default: leave the tree clean)",
    )
