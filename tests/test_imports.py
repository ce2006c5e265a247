"""`import satlink` loads each submodule on first use, numpy loads only when
the antenna pattern cut (`antenna.pattern_csv`) runs, and only the CLI loads
scipy. json and csv load with the first document read or written. The CLI
runs OpenBLAS on one thread unless the caller chose a count; the library
changes no process setting.

Each check runs in a fresh interpreter, since this test process has long
since imported every submodule and numpy.
"""

import ast
import importlib
import os
import pkgutil
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
    "quantities": ("DEFAULT_CONSTANTS", "PhysicalConstants", "band_lookup", "db_from_linear", "linear_from_db"),
}


def interpreter(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter with satlink's sources on the path, run with `env`
    over this process's environment (a None value unsets that variable)."""
    env = {k: v for k, v in {**os.environ, "PYTHONPATH": SRC, **(env or {})}.items() if v is not None}
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def python(code: str, env: dict | None = None) -> str:
    return interpreter("-c", code, env=env).stdout.strip()


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


# --- the antenna pattern cut -------------------------------------------------

PATTERN_NAMES = ("MAX_PATTERN_ROWS", "_pattern_cut", "pattern_csv", "sidelobe_level")
NUMERIC = "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))"


def test_the_antenna_layer_without_its_pattern_loads_neither_numpy_nor_scipy():
    out = python(
        "import sys\n"
        "from satlink import antenna as a\n"
        "spec = a.ArraySpec.linear(8)\n"
        "a.select_array(5.0)\n"
        "a.hpbw_from_directivity(a.directivity(a.ArraySpec.planar(4, 4)))\n"
        "a.hpbw_numeric(spec)\n"
        "a.normalized_array_factor(8, 0.3)\n"
        f"print({NUMERIC})\n"
    )
    assert out == "[]"


def test_the_sidelobe_search_and_the_beamwidths_load_no_numpy():
    out = python(
        "import sys\n"
        "from satlink.antenna import ArraySpec, hpbw_numeric, select_array, sidelobe_level\n"
        "spec = ArraySpec.linear(16)\n"
        "sidelobe_level(spec)\n"
        "hpbw_numeric(spec)\n"
        "select_array(5.0)\n"
        f"print({NUMERIC})\n"
    )
    assert out == "[]"


def test_the_first_pattern_csv_call_loads_numpy_and_no_scipy():
    out = python(
        "import sys\n"
        "from satlink import antenna\n"
        f"print({NUMERIC})\n"
        "antenna.pattern_csv(antenna.ArraySpec.linear(8), 1.0)\n"
        "print('numpy' in sys.modules)\n"
        "print(not any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    assert out.split() == ["[]", "True", "True"]


def test_the_pattern_cut_and_the_sidelobe_search_load_no_scipy():
    out = python(
        "import sys\n"
        "from satlink.antenna import ArraySpec, pattern_csv, sidelobe_level\n"
        "sidelobe_level(ArraySpec.linear(16))\n"
        "pattern_csv(ArraySpec.linear(16), 1.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert out == "[]"


def test_a_pattern_name_imports_from_the_antenna_module():
    out = python(
        "from satlink.antenna import ArraySpec, sidelobe_level\n"
        "print(round(sidelobe_level(ArraySpec.linear(10)), 6))\n"
    )
    assert out == "0.224746"


def test_dir_lists_the_pattern_names_before_they_load():
    out = python(
        "import sys\n"
        "from satlink import antenna\n"
        f"print(set({PATTERN_NAMES!r}) <= set(dir(antenna)))\n"
        f"print({NUMERIC})\n"
    )
    assert out.split() == ["True", "[]"]


def test_a_star_import_brings_every_public_antenna_name():
    """`__all__` lists the module's own public names, the pattern names
    among them, and none that it imports."""
    out = python(
        "import types\n"
        "from satlink import antenna\n"
        "own = {n for n, v in vars(antenna).items() if not n.startswith('_') and not isinstance(v, types.ModuleType)\n"
        "       and getattr(v, '__module__', antenna.__name__) == antenna.__name__}\n"
        "ns = {}\n"
        "exec('from satlink.antenna import *', ns)\n"
        "print(sorted(ns.keys() - {'__builtins__'}) == sorted(own | {'MAX_PATTERN_ROWS', 'pattern_csv', 'sidelobe_level'}))\n"
    )
    assert out == "True"


def test_an_unknown_antenna_attribute_is_still_missing():
    out = python(
        "import sys\n"
        "from satlink import antenna\n"
        "print(getattr(antenna, 'nope', None), hasattr(antenna, 'nope'))\n"
        "try:\n"
        "    from satlink.antenna import nope\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
        f"print({NUMERIC})\n"
    )
    assert out.split() == ["None", "False", "ImportError", "[]"]


def test_the_cli_still_loads_every_module_the_benchmark_times():
    """perfbench's import probe reads each name in its `IMPORTED` from one
    `-X importtime -c "import satlink.cli"` process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    imported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "IMPORTED")
    assert "scipy.optimize" in imported
    out = python(f"import sys\nimport satlink.cli\nprint([m for m in {imported!r} if m not in sys.modules])\n")
    assert out == "[]"


def test_a_pattern_call_shows_numpy_in_importtime():
    proc = interpreter("-X", "importtime", "-c",
                       "import satlink; satlink.antenna.pattern_csv(satlink.antenna.ArraySpec.linear(8), 1.0)")
    listed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"satlink.antenna", "numpy"} <= listed
    assert "scipy.optimize" not in listed


# --- what a process starts ----------------------------------------------------

def test_the_cli_runs_openblas_on_one_thread():
    """numpy's and scipy's OpenBLAS copies would each start a worker pool."""
    out = python(
        "import os\n"
        "import satlink.cli\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 'unknown')\n",
        env={"OPENBLAS_NUM_THREADS": None},
    )
    value, threads = out.split()
    assert value == "1"
    if threads != "unknown":  # no /proc/self/task to count threads in
        assert threads == "1"


def test_the_cli_keeps_a_thread_count_the_caller_set():
    out = python("import os\nimport satlink.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n",
                 env={"OPENBLAS_NUM_THREADS": "2"})
    assert out == "2"


def test_the_library_changes_no_process_setting():
    out = python(
        "import os\n"
        "import satlink\n"
        "satlink.antenna.pattern_csv(satlink.antenna.ArraySpec.linear(8))\n"
        "print('OPENBLAS_NUM_THREADS' in os.environ)\n",
        env={"OPENBLAS_NUM_THREADS": None},
    )
    assert out == "False"


def test_the_library_loads_json_and_csv_only_for_a_document():
    modules = sorted(m.name for m in pkgutil.iter_modules(satlink.__path__) if m.name != "cli")
    assert {"quantities", "capacity", "scenario"} <= set(modules)
    out = python(
        "import sys\n"
        "import satlink\n"
        f"for name in {modules!r}:\n"
        "    __import__('satlink.' + name)\n"
        "satlink.PhysicalConstants()\n"
        "print(sorted(m for m in ('json', 'csv') if m in sys.modules))\n"
    )
    assert out == "[]"


def test_the_library_loads_neither_dataclasses_nor_inspect():
    """`quantities.record` writes each record class itself. The dataclass view
    of a record loads `dataclasses` at its first read."""
    modules = sorted(m.name for m in pkgutil.iter_modules(satlink.__path__) if m.name != "cli")
    out = python(
        "import sys\n"
        "import satlink\n"
        f"for name in {modules!r}:\n"
        "    __import__('satlink.' + name)\n"
        "satlink.PhysicalConstants()\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
        "import dataclasses\n"
        "print(' '.join(f.name for f in dataclasses.fields(satlink.PhysicalConstants)))\n"
    )
    assert out.splitlines() == [
        "[]", "c_m_per_s boltzmann_j_per_k earth_radius_km earth_perimeter_km earth_surface_km2 t_ref_k",
    ]
