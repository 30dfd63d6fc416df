"""The repository's pytest settings, run on a small test file of their own,
and how the test modules behave while pytest collects them."""

import json
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent

FAIL_AND_PASS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(k):
    assert k < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_lets_the_run_go_on(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns; under warnings-as-errors that stopped pytest with an internal
    # error, and the tests after it never ran
    (tmp_path / "test_two.py").write_text(FAIL_AND_PASS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


# replaces every function of the package but pt and frac, which build
# points, by one that raises, then imports each test module and prints the
# error of each one whose import failed
IMPORT_WITHOUT_THE_PACKAGE = '''
import importlib, inspect, json, pkgutil, sys
from pathlib import Path

tests = Path(sys.argv[1])
sys.path[:0] = [str(tests.parent / "src"), str(tests)]
import contactgeom
for info in pkgutil.iter_modules(contactgeom.__path__):
    importlib.import_module(f"contactgeom.{info.name}")
kept = {("contactgeom.geometry", "pt"), ("contactgeom.geometry", "frac")}


def refusing(name):
    def refuse(*args, **kwargs):
        raise RuntimeError(f"{name} ran while the module was imported")
    return refuse


for module in [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "contactgeom"]:
    for name, obj in list(vars(module).items()):
        where = getattr(obj, "__module__", None) or ""
        if (inspect.isfunction(inspect.unwrap(obj))
                and where.split(".")[0] == "contactgeom"
                and (where, obj.__name__) not in kept):
            setattr(module, name, refusing(f"{where}.{obj.__name__}"))
failed = {}
for path in sorted(tests.glob("test_*.py")):
    try:
        importlib.import_module(path.stem)
    except Exception as e:
        failed[path.stem] = repr(e)
print(json.dumps(failed))
'''


def test_no_test_module_runs_the_package_while_it_is_collected():
    # a module that calls the package at import time (a hypothesis
    # @example, a parametrize list, a module constant) fails to collect
    # when that call fails, and hides the results of all its tests
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_WITHOUT_THE_PACKAGE, str(TESTS)],
        cwd=TESTS, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {}
