"""Start-up imports: the library loads only what scheduling and
``run_batch`` run, and every deferred export still resolves.

Each check runs in a fresh interpreter, since this process has long
since imported everything.
"""

import pytest

from tests.conftest import run_python

#: Offline tooling, and the warp scheduler, that importing the library
#: must not load.
OFFLINE_MODULES = [
    *(f"repro.obs.{name}" for name in (
        "history", "regress", "report", "explain", "export", "render",
    )),
    *(f"repro.experiments.{name}" for name in ("figures", "tables", "report", "export")),
    *(f"repro.frontend.{name}" for name in ("parser", "printer", "transforms")),
    "repro.codegen.emit",
    "repro.service.batch_cli",
    # The §8 comparison scheduler: the driver loads it when a run asks
    # for "warp".
    "repro.core.warp",
]


def _repro_modules_after(*statements):
    """The ``repro`` modules a fresh interpreter holds after ``statements``."""
    return run_python(
        "import sys\n"
        + "".join(f"{statement}\n" for statement in statements)
        + "print(*sorted(name for name in sys.modules if name.startswith('repro')),"
        " sep='\\n')\n"
    )


def test_importing_the_library_loads_no_offline_tooling():
    loaded = _repro_modules_after(
        "import repro",
        "import repro.core",
        "from repro.service import run_batch, cache_key, DirectoryCache",
    )
    assert "repro.service.batch" in loaded
    assert sorted(set(OFFLINE_MODULES) & set(loaded)) == []


#: The back end that only the single-loop CLI's ``--emit`` and
#: ``--simulate`` run.
BACK_END_PACKAGES = ("repro.simulator", "repro.regalloc", "repro.codegen")


def test_the_single_loop_cli_loads_no_back_end():
    loaded = _repro_modules_after("import repro.cli")
    assert "repro.cli" in loaded
    assert [
        name for name in loaded
        if any(name == package or name.startswith(package + ".")
               for package in BACK_END_PACKAGES)
    ] == []


_RESOLVE_EVERY_EXPORT = """
import importlib, pkgutil, sys, types
import repro

packages = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
# Resolve every export before loading any module by hand, so deferred
# names go through their package's __getattr__.
exports = {
    (package.__name__, name): getattr(package, name)
    for package in packages
    for name in package.__all__
    if not name.startswith("__")  # __version__: the package's own
}
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
modules = [
    module for name, module in sys.modules.items()
    if name.startswith("repro.") and not hasattr(module, "__path__")
]
for (package, name), value in sorted(exports.items()):
    if isinstance(value, types.ModuleType) or not any(
        getattr(module, name, None) is value for module in modules
    ):
        print(f"{package}.{name}")
print(len(exports))
"""


def test_every_export_resolves_to_its_definition():
    """Each name in each package's ``__all__`` is the object a module
    of the package defines under that name, never a submodule."""
    *wrong, count = run_python(_RESOLVE_EVERY_EXPORT)
    assert wrong == []
    assert int(count) > 0


@pytest.mark.parametrize(
    "first",
    ["import repro.obs.explain", "from repro.obs.explain import flight_postmortem"],
)
def test_obs_explain_stays_the_function(first):
    """The submodule ``repro.obs.explain`` and the function the package
    exports share a name; loading the module must not rebind it."""
    lines = run_python(
        "import sys\n"
        f"{first}\n"
        "import repro.obs\n"
        "from repro.obs import explain\n"
        "function = sys.modules['repro.obs.explain'].explain\n"
        "print(repro.obs.explain is function, explain is function)\n"
    )
    assert lines == ["True True"]
