"""The package's export table: __all__, the names each submodule defines,
and the submodules a fresh interpreter loads for what it uses."""

import inspect
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import relaxbound

# the directory this relaxbound was imported from, for the fresh interpreters
SRC = str(Path(relaxbound.__file__).resolve().parents[1])


def test_every_exported_name_resolves():
    assert len(set(relaxbound.__all__)) == len(relaxbound.__all__)
    missing = [name for name in relaxbound.__all__ if not hasattr(relaxbound, name)]
    assert missing == []
    star = {}
    exec("from relaxbound import *", star)
    assert set(relaxbound.__all__) <= set(star)


def test_every_public_class_and_function_is_exported():
    # vars(relaxbound) holds only the names already used, so read each
    # submodule of the export table instead
    unexported = {}
    for module, names in relaxbound._EXPORTS.items():
        mod = import_module(f"relaxbound.{module}")
        public = {name for name, value in vars(mod).items()
                  if not name.startswith("_")
                  and (inspect.isclass(value) or inspect.isfunction(value))
                  and value.__module__ == mod.__name__}
        unexported[module] = public - set(names.split())
    assert unexported == dict.fromkeys(relaxbound._EXPORTS, set())


def fresh(code: str) -> str:
    """Standard output of code run by a fresh interpreter, warnings as errors."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout


def loaded_after(code: str) -> set[str]:
    """The relaxbound modules a fresh interpreter holds after running code."""
    out = fresh(code + "\nimport sys\n"
                "print(*(m for m in sys.modules if m.split('.')[0] == 'relaxbound'))")
    return set(out.split())


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import relaxbound") == {"relaxbound"}


def test_the_benchmark_set_up_loads_only_grid_and_oracles():
    setup = ("import relaxbound\nrelaxbound.Mesh.uniform(101)\n"
             "relaxbound.airy_zero_table(relaxbound.MAX_AIRY_ZEROS)")
    assert loaded_after(setup) == {"relaxbound", "relaxbound.grid", "relaxbound.oracles"}


def test_the_helper_loads_only_the_elimination():
    bootstrap = "from relaxbound.relax import _serve"
    relax_mod = import_module("relaxbound.relax")
    assert bootstrap in inspect.getsource(relax_mod._Helper.batch)
    assert loaded_after(bootstrap) == {"relaxbound", "relaxbound.grid", "relaxbound.relax"}


IMPORTS = ("import relaxbound.relax", "import relaxbound.problems", "from relaxbound import *")


@pytest.mark.parametrize("used_first", [False, True], ids=["import-first", "name-first"])
@pytest.mark.parametrize("first", IMPORTS)
def test_relax_is_the_function_whatever_the_import_order(first, used_first):
    # importing the relax submodule binds it on the package; the name
    # must still give the function, whether or not it was used before
    check = "assert inspect.isfunction(relaxbound.relax), relaxbound.relax"
    lines = ["import inspect, relaxbound"] + [check] * used_first
    for statement in (first,) + tuple(s for s in IMPORTS if s != first):
        lines += [statement, check]
    fresh("\n".join(lines))


def test_dir_lists_every_exported_name():
    fresh("import relaxbound\nassert set(relaxbound.__all__) <= set(dir(relaxbound))")


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    out = fresh("import relaxbound\ntry:\n    relaxbound.no_such_name\n"
                "except AttributeError as exc:\n    print(exc)")
    assert out.strip() == "module 'relaxbound' has no attribute 'no_such_name'"
