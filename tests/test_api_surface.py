"""The public names the package exports and the benchmark tracer wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import geodyn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
