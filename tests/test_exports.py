import pclabel


def test_star_import_binds_every_exported_name():
    # A stale string in __all__ breaks `from pclabel import *` but not
    # `import pclabel`.
    namespace = {}
    exec("from pclabel import *", namespace)
    assert [n for n in pclabel.__all__ if n not in namespace] == []
