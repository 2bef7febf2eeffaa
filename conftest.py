"""Pytest bootstrap: make ``src/`` importable even without an editable install."""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run the perf benchmark harness in its quick (CI smoke) mode",
    )
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="regenerate the committed benchmarks/results/ artefacts "
        "(by default a run writes them to a temporary directory)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench: perf benchmark harness (runs only when selected with -m bench)",
    )
