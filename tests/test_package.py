"""The package namespace re-exports exactly the public names of its modules."""

import importlib
import pkgutil

import fraclab

# the command front end is reached as ``fraclab.cli``, not re-exported
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(fraclab.__path__) if m.name != "cli"
)


def test_all_is_the_union_of_the_module_lists():
    names = {"__version__"}
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"fraclab.{name}")
        names |= set(module.__all__)
        for public in module.__all__:
            assert getattr(fraclab, public) is getattr(module, public)
    assert set(fraclab.__all__) == names
    assert len(fraclab.__all__) == len(names)
    assert "IDENTITIES" in names and "DEFAULT_SEED" in names
