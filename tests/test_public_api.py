"""The package's public surface: every exported name exists, once."""

import nckit


def test_all_names_resolve_and_are_unique():
    assert len(nckit.__all__) == len(set(nckit.__all__))
    missing = [name for name in nckit.__all__ if not hasattr(nckit, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from nckit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(nckit.__all__)
