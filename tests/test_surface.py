"""The callers outside the test suite: the public names, the demos and the
benchmark's self-test, so that a deletion that breaks one of them fails here."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["trigpoly", "bounds", "discrete", "rounding", "concentrator"]


def run_script(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_no_orphaned_private_functions():
    # a module-level _helper that nothing in the package names is dead code
    trees = [ast.parse(path.read_text()) for path in (ROOT / "src" / "concentra").glob("*.py")]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")}
    assert sorted(private - used) == []


def test_no_private_attribute_reads():
    # a module reads its own private names and those of self or cls, never
    # the private attributes of another object or module
    hits = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
            for path in sorted((ROOT / "src" / "concentra").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    assert hits == []


def test_grid_transform_only_in_trigpoly():
    # grid evaluation has one implementation, eval_grid, checked against
    # eval_point and counted by the benchmark's span on it: every transform
    # call is in trigpoly, but the one rfft of the torus integrals
    hits = [(path.name, getattr(top, "name", None), ast.unparse(node.func))
            for path in sorted((ROOT / "src" / "concentra").glob("*.py"))
            if path.name != "trigpoly.py"
            for top in ast.parse(path.read_text()).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and "fft" in ast.unparse(node.func)]
    assert hits == [("concentrator.py", "_integrals", "np.fft.rfft")]


def test_search_policy_only_in_discrete():
    # the choice between the exact and the heuristic plain-grid level is
    # made in one place, discrete.gamma_sharp
    hits = sorted(path.name for path in (ROOT / "src" / "concentra").glob("*.py")
                  if "exact_gamma_sharp" in path.read_text()
                  or "heuristic_gamma_sharp" in path.read_text())
    assert hits == ["__init__.py", "discrete.py"]


def powers_of_p(path):
    """The top-level function around each power whose exponent uses p: a
    ``**`` or an ``np.power``/``math.pow``/``pow`` call."""
    owners = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                exponent = node.right
            elif (isinstance(node, ast.Call) and len(node.args) == 2
                  and ast.unparse(node.func) in ("np.power", "math.pow", "pow")):
                exponent = node.args[1]
            else:
                continue
            if any(isinstance(n, ast.Name) and n.id == "p" for n in ast.walk(exponent)):
                owners.add(getattr(top, "name", None))
    return owners


@pytest.mark.parametrize("module, owners", [
    ("discrete.py", {"_pow_abs"}),
    # moment_check forms a p-th moment, not a grid norm
    ("rounding.py", {"_lp_norm", "moment_check"})])
def test_one_power_rule_per_module(module, owners):
    # |f|^p has one scale-free implementation in each module that forms it
    assert powers_of_p(ROOT / "src" / "concentra" / module) == owners


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"concentra.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# demo 03 (13 s) is left out for time
@pytest.mark.parametrize("demo", ["01_named_constants.py", "02_finite_group_search.py",
                                  "04_torus_concentration.py"])
def test_demo_runs(demo):
    proc = run_script(ROOT / "demos" / demo)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_selftest():
    pytest.importorskip("mpmath")
    proc = run_script(ROOT / "benchmarks" / "selftest.py")
    assert proc.returncode == 0, proc.stderr


def test_import_starts_no_threads():
    # the bounds worker pool starts on first use, so an import (the
    # benchmark's setup) stays single-threaded
    code = ("import threading; n = threading.active_count(); import concentra; "
            "print(threading.active_count() - n)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_no_thread_count_knob():
    # the worker count comes from the CPU affinity alone: every environment
    # access of the package reads one fixed name, the cache directory
    uses, keys = 0, []
    for path in sorted((ROOT / "src" / "concentra").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            uses += (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                     and isinstance(node.value, ast.Name) and node.value.id == "os")
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "os.environ.get", "os.getenv"):
                keys.append(ast.unparse(node.args[0]))
            elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
                keys.append(ast.unparse(node.slice))
    assert uses == len(keys) and keys == ["'CONCENTRA_CACHE'"]
