"""The mutation list of tools/mutation_matrix.py stays applicable to the source."""

from pathlib import Path

import mutation_matrix
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path, old, new, label", mutation_matrix.MUTATIONS, ids=[m[3] for m in mutation_matrix.MUTATIONS])
def test_each_mutation_applies_once(path, old, new, label):
    assert (ROOT / path).read_text().count(old) == 1, label
    assert new != old
