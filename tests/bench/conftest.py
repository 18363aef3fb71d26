"""The paper's evaluation, run once per test session."""

import pytest

from repro.bench.evaluation import run_evaluation


@pytest.fixture(scope="session")
def evaluation():
    """``repro all``'s sections by name, at the commands' defaults."""
    return {section.name: section for section in run_evaluation()}
