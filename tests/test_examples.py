"""Every example imports cleanly against the current package.

Each ``examples/*.py`` guards its ``main()`` behind
``if __name__ == "__main__"``, so loading one under another name runs
only its imports and definitions: cheap, and enough to catch an example
that still imports a name the package no longer has.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
