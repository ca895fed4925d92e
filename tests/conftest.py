"""Marks every item of the acceptance module so the fast loop can skip it."""

from pathlib import Path

import pytest

_ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path == _ACCEPTANCE:
            item.add_marker(pytest.mark.acceptance)
