"""The package's public surface: every exported name exists."""

import knotpoly


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from knotpoly import *", namespace)
    for name in knotpoly.__all__:
        assert name in namespace, name
        assert hasattr(knotpoly, name), name
    assert len(set(knotpoly.__all__)) == len(knotpoly.__all__)
