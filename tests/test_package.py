"""The package namespace re-exports exactly the public names of its modules."""

import types

import luroth
from luroth import contfrac, expansion, extrema, precision, rng, simulation, trimming


def test_public_names_are_the_union_of_module_exports():
    modules = (contfrac, expansion, extrema, precision, rng, simulation, trimming)
    exported = set().union(*(m.__all__ for m in modules))
    public = {name for name, obj in vars(luroth).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == exported
