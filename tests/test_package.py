"""The package namespace re-exports exactly the public names of its
modules, and the README's API examples run against it."""

import importlib
import pathlib
import pkgutil
import re

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


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # later blocks use names the earlier ones define, so all of them run in
    # one namespace, in order
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
