"""`import satlink` loads each submodule on first use, so numpy and scipy
stay with `satlink.antenna`.

Each check runs in a fresh interpreter, since this test process has long
since imported every submodule and numpy.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import satlink

SRC = str(Path(satlink.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


SUBMODULES = ("antenna", "capacity", "constellation", "geometry", "linkbudget", "quantities", "scenario")
REEXPORTED = {
    "errors": ("DomainError", "NoFeasibleModcodError", "NoSidelobeError", "NotFoundError",
               "OutOfBandError", "ParseError", "SatlinkError", "ValidationError"),
    "quantities": ("DEFAULT_CONSTANTS", "PhysicalConstants", "Power", "band_lookup",
                   "db_from_linear", "linear_from_db"),
}


def interpreter(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def python(code: str) -> str:
    return interpreter("-c", code).stdout.strip()


def test_core_modules_run_without_numpy_or_scipy():
    out = python(
        "import sys\n"
        "import satlink\n"
        "from satlink import capacity, constellation, linkbudget, scenario\n"
        "linkbudget.link_budget(linkbudget.Transmitter(power_w=2.0, gain_dbi=12.0),\n"
        "                       linkbudget.Receiver(gain_dbi=12.0, nf_db=5.0), 5.5e5, 11.7e9, 1e6)\n"
        "scenario.run_scenario(scenario.fixture('thales'))\n"
        "capacity.select_modcod(6.0)\n"
        "constellation.shell_stats('S1')\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    assert out == "[]"


def test_antenna_loads_on_first_use():
    out = python(
        "import sys\n"
        "import satlink\n"
        "assert 'satlink.antenna' not in sys.modules\n"
        "print(satlink.antenna.ArraySpec.linear(4).elements)\n"
        "print(satlink.antenna is sys.modules['satlink.antenna'])\n"
    )
    assert out.split() == ["4", "True"]


def test_star_import_binds_antenna():
    out = python("from satlink import *\nprint(antenna.__name__)\n")
    assert out == "satlink.antenna"


def test_every_exported_name_resolves():
    """A name deleted from the package cannot stay in `__all__`; the lazy
    `antenna` resolves through the module `__getattr__`."""
    assert "antenna" in satlink.__all__
    assert [name for name in satlink.__all__ if not hasattr(satlink, name)] == []


def test_unknown_attribute_is_still_missing():
    out = python(
        "import satlink\n"
        "print(getattr(satlink, 'nope', None), hasattr(satlink, 'nope'))\n"
        "try:\n"
        "    from satlink import nope\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert out.split() == ["None", "False", "ImportError"]


def test_benchmark_import_probe_times_every_module(monkeypatch):
    """The benchmark's traced runs read an import time for each module it lists."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        run = importlib.import_module("run")
        times = run.import_times_ms()
    finally:  # perfbench's flat module names stay out of later tests
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]
    assert set(times) == {f"import.{name}_ms" for name in run.IMPORTED}
    assert all(ms > 0 for ms in times.values())


def test_bare_import_loads_no_submodule():
    out = python("import sys\nimport satlink\nprint(sorted(m for m in sys.modules if m.startswith('satlink.')))\n")
    assert out == "[]"


def test_a_reexported_name_loads_only_its_submodule():
    out = python(
        "import sys\n"
        "import satlink\n"
        "satlink.PhysicalConstants\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('satlink.'))))\n"
    )
    assert out.split() == ["satlink.errors", "satlink.quantities"]


def test_every_exported_name_is_its_submodules_object():
    names = [name for names in REEXPORTED.values() for name in names]
    assert sorted(satlink.__all__) == sorted([*SUBMODULES, *names, "__version__"])
    out = python(
        "import sys\n"
        "import satlink\n"
        f"for home, names in {REEXPORTED!r}.items():\n"
        "    for name in names:\n"
        "        print(getattr(satlink, name) is getattr(sys.modules['satlink.' + home], name))\n"
        f"for name in {SUBMODULES!r}:\n"
        "    print(getattr(satlink, name) is sys.modules['satlink.' + name])\n"
        "print(satlink.DomainError is satlink.errors.DomainError)\n"
    )
    assert out.split() == ["True"] * (len(names) + len(SUBMODULES) + 1)


def test_a_name_is_a_module_global_after_its_first_access():
    out = python(
        "import satlink\n"
        "print(sorted(set(satlink.__all__) & set(vars(satlink))))\n"
        "for name in satlink.__all__:\n"
        "    getattr(satlink, name)\n"
        "print(sorted(set(satlink.__all__) - set(vars(satlink))))\n"
    )
    assert out.splitlines() == ["['__version__']", "[]"]


def test_dir_lists_every_exported_name_before_any_loads():
    out = python(
        "import sys\n"
        "import satlink\n"
        "print(set(satlink.__all__) <= set(dir(satlink)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('satlink.')))\n"
    )
    assert out.split() == ["True", "[]"]


def test_lazily_loaded_modules_show_in_importtime():
    """The benchmark's import probe reads `-X importtime`, which records
    only modules loaded through `__import__`, not `importlib.import_module`."""
    proc = interpreter("-X", "importtime", "-c", "import satlink; satlink.scenario; satlink.DomainError")
    listed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"satlink", "satlink.scenario", "satlink.errors"} <= listed
