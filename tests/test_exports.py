"""Every name a package lists in ``__all__`` resolves on that package.

A stale string in ``__all__`` (left behind when a function is deleted)
only fails on ``from pkg import *``; this test makes it fail at once.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert missing == []
