"""The package's public names."""

import trellis


def test_all_resolves_and_star_import_binds_exactly_it():
    assert len(set(trellis.__all__)) == len(trellis.__all__)
    for name in trellis.__all__:
        assert hasattr(trellis, name), name
    namespace = {}
    exec("from trellis import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(trellis.__all__)
