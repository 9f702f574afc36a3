"""Record classes: what ``@record`` gives every class the package declares
with it, and the guard that importing the engine generates no code."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geodyn
from geodyn.action import ActionReport
from geodyn.connection import CurvatureForm, LagrangianBreakdown
from geodyn.geodesics import Trajectory
from geodyn.library import flat
from geodyn.records import record
from geodyn.scenarios import TaskResult
from geodyn.tensors import Point


def _declared():
    """{class name: frozen} of every class the package's source decorates
    with ``@record``."""
    declared = {}
    for path in sorted(Path(geodyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                name = (call.func if call else deco)
                if isinstance(name, ast.Name) and name.id == "record":
                    declared[node.name] = any(
                        k.arg == "frozen" and getattr(k.value, "value", None) is True
                        for k in (call.keywords if call else ()))
    return declared


DECLARED = _declared()
RECORDS = sorted({cls for info in pkgutil.iter_modules(geodyn.__path__)
                  for cls in vars(importlib.import_module(f"geodyn.{info.name}")).values()
                  if isinstance(cls, type) and "_record_fields" in vars(cls)},
                 key=lambda cls: cls.__name__)
# two instances of each record class with a default_factory field
SAMPLES = {
    "Vielbein": lambda: flat(2),
    "TaskResult": lambda: TaskResult(0, "t", "pass", 0.0, 0.0, (), []),
    "ActionReport": lambda: ActionReport({}, 0.0),
    "Trajectory": lambda: Trajectory(*[np.zeros(1)] * 4),
    "LagrangianBreakdown": lambda: LagrangianBreakdown(Point((0.0,)), {}, 0.0),
}


def test_every_declared_record_is_a_record_class():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted(DECLARED)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_class_semantics(cls):
    names = [f.name for f in cls._record_fields]
    bare = object.__new__(cls)
    if DECLARED[cls.__name__]:
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bare, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(bare, name)
    else:
        assert cls.__hash__ is None
        setattr(bare, names[0], 0)
    # a shared default_factory container would hand one instance's memo or
    # summary to the next (a shared Vielbein.invariants is a stale-memo bug)
    shared = [f.name for f in cls._record_fields
              if f.default_factory is not dataclasses.MISSING]
    assert bool(shared) == (cls.__name__ in SAMPLES)
    if shared:
        one, two = SAMPLES[cls.__name__](), SAMPLES[cls.__name__]()
        for name in shared:
            assert getattr(one, name) is not getattr(two, name)
            assert getattr(one, name) == {}
    if cls is CurvatureForm:
        # the inherited CurvatureTensors fields come first, in their order
        assert names == ["point", "riemann", "ricci", "scalar", "gamma", "gamma_inv",
                         "det", "b_f", "w_f", "g_f", "higgs_kinetic", "higgs_value",
                         "higgs_potential", "higgs_c", "couplings", "alpha"]
        values = [object() for _ in names]
        form = cls(*values)
        assert all(getattr(form, name) is value for name, value in zip(names, values))


def test_record_init_repr_eq_and_replace():
    @record(frozen=True)
    class Pair:
        a: int
        b: tuple = ()
        memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                       compare=False)

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a < 0")

    p = Pair(1, b=(2,))
    assert repr(p) == f"{Pair.__qualname__}(a=1, b=(2,))"
    assert p == Pair(1, (2,)) and p != Pair(2, (2,)) and hash(p) == hash(Pair(1, (2,)))
    assert Pair(1).b == () and p.memo == {}
    q = p.replace(a=3)
    assert (q.a, q.b) == (3, (2,)) and q.memo is not p.memo
    with pytest.raises(ValueError):
        p.replace(a=-1)
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"a": 1}),
                         ((1,), {"c": 1}), ((1,), {"memo": {}})]:
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)


def test_importing_the_engine_compiles_no_code_per_class():
    # compile audit events while `import geodyn.cli` runs, numpy already
    # imported; the import system compiling a module's .py file (when no
    # up-to-date .pyc exists) is not counted.  The 5 that remain:
    # - 1: jets.RULES' ten dispatchers, compiled at once as "<jet functions>";
    # - 4: the config._Context NamedTuple, its __new__ and the three string
    #   annotations typing turns into ForwardRefs.
    # dataclasses.dataclass compiled 144 more, one per method it wrote.
    script = ("import sys, numpy\n"
              "names = []\n"
              "sys.addaudithook(lambda event, args: event == 'compile'"
              " and names.append(str(args[1])))\n"
              "import geodyn.cli\n"
              "print(sum(not name.endswith('.py') for name in names))\n")
    src = os.path.dirname(os.path.dirname(geodyn.__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert int(done.stdout) <= 5
