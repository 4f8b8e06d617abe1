"""Every name a ``repro`` package exports in ``__all__`` resolves.

Guards deletions: a symbol removed from a module but still listed by its
package fails here instead of at a user's ``from repro.x import *``.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    names += [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix=f"{repro.__name__}.") if info.ispkg]
    return sorted(names)


PACKAGES = _packages()


def test_every_package_is_found():
    assert {"repro", "repro.simulation", "repro.simulation.native",
            "repro.analysis.lint", "repro.scenarios"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported is not None, f"{name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{name}: duplicate names"
    missing = [symbol for symbol in exported
               if not hasattr(package, symbol)]
    assert missing == [], f"{name}.__all__ names unresolved {missing}"
