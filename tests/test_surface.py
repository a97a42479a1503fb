"""The callers outside the test suite: the public names, the demos and the
benchmark's self-test, so that a deletion that breaks one of them fails here."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_pool_only_in_parallel():
    # work runs on threads one way: every call of bounds._pool is in
    # bounds._parallel, and no module starts or locks threads of its own
    calls, imports = [], []
    for path in sorted((ROOT / "src" / "concentra").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_pool"):
                    calls.append((path.name, getattr(top, "name", None)))
                elif isinstance(node, ast.Import):
                    imports += [(path.name, a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imports.append((path.name, node.module))
    assert calls == [("bounds.py", "_parallel")]
    assert [hit for hit in imports if hit[1] == "threading"] == []


def test_search_policy_only_in_discrete():
    # the choice between the exact and the heuristic plain-grid level is
    # made in one place, discrete.gamma_sharp
    hits = sorted(path.name for path in (ROOT / "src" / "concentra").glob("*.py")
                  if "exact_gamma_sharp" in path.read_text()
                  or "heuristic_gamma_sharp" in path.read_text())
    assert hits == ["__init__.py", "discrete.py"]


def test_rational_route_decided_once_in_core():
    # whether t takes the rational path, or the mode path's residue head, is
    # decided in one place, bounds._core: as names in the code (docstrings do
    # not count), limit_denominator and _RATIONAL_CAP occur only there and in
    # the constant's own definition
    names = {"limit_denominator", "_RATIONAL_CAP"}
    owners = sorted({(path.name, getattr(top, "name", None)
                      or ast.unparse(getattr(top, "targets", [top])[0]))
                     for path in (ROOT / "src" / "concentra").glob("*.py")
                     for top in ast.parse(path.read_text()).body for node in ast.walk(top)
                     if getattr(node, "id", getattr(node, "attr", None)) in names})
    assert owners == [("bounds.py", "_RATIONAL_CAP"), ("bounds.py", "_core")]


def test_sine_and_exact_t_formed_once_in_core():
    # S = sin(pi t) and the exact value Fraction(t) of the double t are formed
    # in bounds._core alone among the functions it reaches, and passed to the
    # paths; _pref_error forms its own, as its model of eval_B's rounding
    tree = ast.parse((ROOT / "src" / "concentra" / "bounds.py").read_text())
    defs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    reached, todo = set(), ["_core"]
    while todo:
        name = todo.pop()
        if name in reached or name == "_pref_error":
            continue
        reached.add(name)
        todo += [node.id for node in ast.walk(defs[name])
                 if isinstance(node, ast.Name) and node.id in defs]
    assert {"_core_envelope_path", "_mode_tail", "_mode_table", "_direct_scaled_sum",
            "_sum_slack", "_residue_head", "_core_rational"} <= reached
    owners = sorted({name for name in reached for node in ast.walk(defs[name])
                     if isinstance(node, ast.Call)
                     and ast.unparse(node.func) in ("math.sin", "Fraction")})
    assert owners == ["_core"]


def test_search_reads_decided_once_in_cli():
    # which flags a search reads, and so keeps in its record inputs, is decided
    # in one place in cli: every call of discrete.is_exact there is in _search_reads
    tree = ast.parse((ROOT / "src" / "concentra" / "cli.py").read_text())
    calls = [getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("is_exact")]
    assert calls == ["_search_reads"]


def test_record_format_only_in_cache():
    # a record's name hash and the seal of its outputs are made in one module:
    # cache is the only one that imports hashlib
    importers = sorted(path.name for path in (ROOT / "src" / "concentra").glob("*.py")
                       for node in ast.walk(ast.parse(path.read_text()))
                       if (isinstance(node, ast.Import)
                           and "hashlib" in [a.name for a in node.names])
                       or (isinstance(node, ast.ImportFrom) and node.module == "hashlib"))
    assert importers == ["cache.py"]


def test_concentrator_needs_no_series():
    # the gapped witness is the best admissible row of the interval table:
    # the torus layer reads the grid levels of discrete, not the series of bounds
    tree = ast.parse((ROOT / "src" / "concentra" / "concentrator.py").read_text())
    names = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]]
    assert [name for name in names if "bounds" in name.split(".")] == []


def test_only_the_store_and_main_write_files():
    # a run's record goes through ResultsCache.put, and cli.main writes the
    # --output and --trace files; nothing else in the package writes one
    writes = {"open", "write_text", "write_bytes", "mkdir", "touch", "unlink", "rename",
              "rmdir", "remove", "makedirs", "save", "savez", "tofile", "dump"}
    owners = set()
    for path in sorted((ROOT / "src" / "concentra").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            defs = ([(f"{top.name}.{getattr(fn, 'name', None)}", fn) for fn in top.body]
                    if isinstance(top, ast.ClassDef) else [(getattr(top, "name", None), top)])
            owners |= {(path.name, name) for name, fn in defs for node in ast.walk(fn)
                       if isinstance(node, ast.Call)
                       and ast.unparse(node.func).split(".")[-1] in writes}
    assert owners == {("cache.py", "ResultsCache.put"), ("cli.py", "main")}


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


# each memo of the package with arguments to call it by: the functions
# under functools.cache or lru_cache, and bounds._mode_coeffs, which keeps
# one growing array a lam
MEMOS = {("bounds", "_pool"): (), ("bounds", "_scan_table"): (False,),
         ("bounds", "_mode_coeffs"): (1.5, 256), ("cli", "_build_parser"): ()}


def test_memoised_arrays_are_read_only():
    # a memo hands one array to every caller: a write by one would change
    # what the others compute
    cached = set()
    for path in sorted((ROOT / "src" / "concentra").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(getattr(d, "func", d)).split(".")[-1] in ("cache", "lru_cache")
                    for d in node.decorator_list):
                cached.add((path.stem, node.name))
    assert cached <= set(MEMOS)
    arrays = 0
    for (module, name), args in MEMOS.items():
        out = getattr(importlib.import_module(f"concentra.{module}"), name)(*args)
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, np.ndarray):
                arrays += 1
                assert not a.flags.writeable, f"{module}.{name}"
    assert arrays == 4


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
