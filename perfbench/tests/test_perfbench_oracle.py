"""The committed oracle answers regenerate from the interpreted tier."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from oracle import generate, load_oracle  # noqa: E402

pytest.importorskip("repro")


def test_oracle_covers_the_76_configurations():
    answers = load_oracle()
    assert len(answers) == 76
    assert sum(key.startswith("expert/") for key in answers) == 6
    assert sum(key.startswith("volunteer/") for key in answers) == 70


def test_regenerating_one_configuration_gives_the_committed_answer():
    key = "volunteer/vgroup01/volunteer1-maximalist"
    assert generate([key]) == {key: load_oracle()[key]}
