"""The package's export list matches what the package binds."""

import types

import multivital


def test_every_export_resolves_and_star_import_works():
    assert len(multivital.__all__) == len(set(multivital.__all__))
    for name in multivital.__all__:
        assert hasattr(multivital, name), name
    namespace: dict = {}
    exec("from multivital import *", namespace)
    assert set(multivital.__all__) <= set(namespace)


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(multivital).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(multivital.__all__) == set()
