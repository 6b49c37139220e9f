"""Fixtures shared by the test modules."""

import pytest
from testfixtures import clear_memos


@pytest.fixture
def fresh_memos():
    """Every memo emptied before and after the test: a test that patches a
    check sees it run, and no result or verdict cached warm, or under a
    patched check, reaches another test."""
    clear_memos()
    yield
    clear_memos()
