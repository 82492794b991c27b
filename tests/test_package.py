"""The public API: every exported name exists."""

import statmanifold


def test_every_exported_name_resolves():
    missing = [name for name in statmanifold.__all__ if not hasattr(statmanifold, name)]
    assert missing == []
    namespace = {}
    exec("from statmanifold import *", namespace)
    assert set(statmanifold.__all__) <= set(namespace)
