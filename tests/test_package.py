"""The package namespace and the README's library example."""

import pathlib
import types

import luroth
from luroth import contfrac, expansion, extrema, precision, rng, simulation, trimming

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_are_the_union_of_module_exports():
    modules = (contfrac, expansion, extrema, precision, rng, simulation, trimming)
    exported = set().union(*(m.__all__ for m in modules))
    public = {name for name, obj in vars(luroth).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == exported


def test_readme_library_block_runs():
    # run as written, so the example keeps up with the return types
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
