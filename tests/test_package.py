"""The public names of the package."""

import blockade


def test_all_names_resolve_and_star_import_works():
    missing = [name for name in blockade.__all__
               if not hasattr(blockade, name)]
    assert not missing
    namespace = {}
    exec("from blockade import *", namespace)
    assert set(blockade.__all__) <= set(namespace)
