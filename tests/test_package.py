"""The package namespace, what importing the CLI loads, and the README's library example."""

import os
import pathlib
import subprocess
import sys
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
    # the same objects, not copies: the benchmark tracer rebinds wrapped
    # callables in the package by the id of the module's own object
    for m in modules:
        for name in m.__all__:
            assert getattr(luroth, name) is getattr(m, name), (m.__name__, name)


def test_readme_library_block_runs():
    # run as written, so the example keeps up with the return types
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_cli_import_adds_no_pool_or_dataclass_modules():
    # each CLI run is a fresh interpreter, so every module on the import path
    # is start-up cost; these two come from nothing the CLI itself needs
    code = (
        "import sys, numpy.random, fractions, argparse\n"
        "before = set(sys.modules)\n"
        "import luroth.cli\n"
        "print(sorted({'concurrent.futures', 'dataclasses'} & (set(sys.modules) - before)))\n"
    )
    assert run_python(code) == "[]\n"


def test_cli_import_loads_no_argument_parser():
    # the CLI reads its argv from a table; argparse would bring gettext, and
    # gettext's first lookup locale
    code = (
        "import sys, numpy.random, fractions\n"
        "import luroth.cli\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    assert run_python(code) == "[]\n"


def run_python(code):
    """stdout of `python -c code` with this package on the path."""
    src = str(pathlib.Path(luroth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout
