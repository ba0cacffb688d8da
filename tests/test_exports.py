import tcamtree


def test_star_import_binds_exactly_all():
    # a deleted name left in __all__ fails the star import itself
    namespace = {}
    exec("from tcamtree import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tcamtree.__all__)
    assert all(namespace[name] is getattr(tcamtree, name) for name in tcamtree.__all__)
    assert tcamtree.__all__ == sorted(set(tcamtree.__all__))
