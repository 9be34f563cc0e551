import sys

import pytest


def clear_package_caches():
    """Empty every lru_cache on the loaded calihecke modules: the shared
    folds, wall tables and blocks."""
    for name, module in list(sys.modules.items()):
        if name == "calihecke" or name.startswith("calihecke."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def cold_caches():
    """The test starts and ends with empty package caches, so that a memo
    built through a monkeypatched function stays inside its test."""
    clear_package_caches()
    yield
    clear_package_caches()
