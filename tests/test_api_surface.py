"""The public names the package exports and the benchmark tracer wraps."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import geodyn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the independent checks the tests hold the engine to; the engine calls none
ORACLES = {"fd_jets", "gauge_route_check", "curvature_of_potential", "bianchi_residual",
           "transform_potential", "higgs_covariant_derivative", "integrate_scalar"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    # the package and every module in it, so no deleted name stays exported
    modules = [geodyn] + [importlib.import_module(f"geodyn.{info.name}")
                          for info in pkgutil.iter_modules(geodyn.__path__)]
    assert len(modules) > 10
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_tracer_installs_and_uninstalls_against_the_package():
    # install looks up every traced function and raises if one is gone
    tracer_mod = _tracer_module()
    originals = {}
    for mod_name, names in tracer_mod.FUNCTIONS.items():
        module = importlib.import_module(f"geodyn.{mod_name}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            originals[f"{mod_name}.{name}"] = (owner, attr, vars(owner)[attr])
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for key, (owner, attr, original) in originals.items():
            assert vars(owner)[attr] is not original, key
    finally:
        tracer.uninstall()
    for key, (owner, attr, original) in originals.items():
        assert vars(owner)[attr] is original, key


def test_every_definition_is_named_in_the_package_or_kept_on_purpose():
    # a function, class or method that no code in the package names is dead
    # surface, unless it is exported, a reference oracle or traced.  A method
    # is named only through an attribute (".name"): a local variable or a
    # parameter of the same name does not keep it alive
    defined, named, attributes = [], set(), set()
    for path in sorted(Path(geodyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(item): f"{node.name}." for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.name}:{node.lineno} {owner.get(id(node), '')}{node.name}"
                defined.append((node.name, where, id(node) in owner))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    assert ORACLES <= {name for name, _, _ in defined}
    traced = {name.rpartition(".")[2] for names in _tracer_module().FUNCTIONS.values()
              for name in names}
    kept = set(geodyn.__all__) | ORACLES | traced
    unreached = sorted(where for name, where, method in defined
                       if name not in (attributes if method else named | attributes) | kept
                       and not (name.startswith("__") and name.endswith("__")))
    assert unreached == []
