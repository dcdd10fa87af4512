"""The package's export list names what the package has, each name once."""

import treeflow


def test_star_import_binds_every_export():
    namespace = {}
    exec("from treeflow import *", namespace)
    assert set(treeflow.__all__) <= set(namespace)


def test_every_export_is_an_attribute_and_listed_once():
    assert [name for name in treeflow.__all__ if not hasattr(treeflow, name)] == []
    assert len(treeflow.__all__) == len(set(treeflow.__all__))
