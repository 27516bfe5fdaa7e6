"""Every top-level name in ``src/repro`` has a caller outside the tests.

The scan parses every ``src/repro`` module and follows name mentions
from the entry points (``repro/__main__.py``, ``benchmarks/`` and
``examples/``) plus the module-level statements of every module, which
run on import.  It is deliberately coarse:

- a mention of a name reaches every top-level definition of that name, in
  any module, and a reached class reaches all of its methods;
- strings and comments are not mentions, so a docstring cannot keep a
  function alive;
- an import is not a use, so a re-export cannot keep one alive either
  (``import a as b`` makes a mention of ``b`` reach ``a``).

A definition the scan does not reach has only test callers: delete it, or
give it a caller.  Run the module to list what is unreached::

    python tests/test_callers.py

Two tables are keyed by something the name scan cannot follow, so they
have their own guards, which run the zoo instead of reading it:

- the registry's op types are strings: every one must appear in a graph
  built from a zoo model (split or not; training or inference; compiled
  or not);
- autograd ``Function`` subclasses are reached through ``Tensor``'s
  operator bindings and names they share with layers and kernels: every
  one must be applied by an eager training or eval step of a zoo model.

Options get the same treatment as names: every defaulted parameter of a
function, method or constructor in ``src/repro`` must be set by some call
outside the tests, or it is a constant with a keyword in front of it.  The
option scan is as coarse as the name scan:

- a keyword ``k=`` at any call sets every parameter named ``k``;
- a positional argument in slot *i* of a call to ``F`` sets parameter *i*
  (after ``self``) of every definition named ``F``; a class name reaches
  its ``__init__``, ``super().__init__(...)`` calls the class's bases, and
  a ``*args`` argument fills every slot;
- strings, comments and test calls set nothing.

The same run of the module lists the unset options after the unreached
names.

Methods get a finer check than "a reached class reaches its methods":
every method or property of a ``src/repro`` class must be mentioned by
name somewhere outside its own body (a recursive call is not a caller).
Dunder methods are called by the language and are exempt.  The run of
the module lists the uncalled methods last.

Lines are the finest grain, and the slowest: ``python
tests/test_callers.py --lines`` runs the examples, CI's command lines and
the smoke benchmarks under ``sys.settrace`` and lists every line of
``src/repro`` none of them ran (see "Line reach" below).
"""

import ast
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import product
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

# (module relative to src/repro, name) -> why it stays without a caller.
ALLOWED = {
    ("data/cifar.py", "load_cifar10"):
        "the only reader of the paper's dataset; experiments/accuracy.py "
        "names it as the entry point for CIFAR-10 on disk",
    ("data/cifar.py", "ArrayDataset"):
        "what load_cifar10 returns; no dataset is in the tree",
    ("data/cifar.py", "_parse_batch_file"):
        "load_cifar10's decoder of the CIFAR-10 binary batch format",
}

# (module, Class.method) -> why it stays though only tests call it.
ALLOWED_METHODS = {
    ("serve/engine.py", "ServingEngine.logits_for"):
        "the only reader of a numeric engine's served logits; the serving "
        "and compile tests compare outputs through it",
    ("hmms/verify.py", "VerificationReport.families_violated"):
        "what the verifier's kill matrix reads: which invariant family a "
        "mutated plan breaks",
}

# Op type -> why no zoo graph contains it.
UNBUILT_OPS = {
    "split_bwd":
        "emitted for every split region, then pruned as dead: to_split_cnn "
        "splits a prefix, so it only carries grad(input); a region behind "
        "another layer keeps it",
}

# Parameters a test sets without any other caller: the seams that swap in a
# small device, a fake pricing or a shared cache, and randomness inputs.
TEST_SEAMS = {"device", "cost_model", "cache", "rng", "seed"}

Definition = Tuple[str, str]  # (module, name)
Option = Tuple[str, str, str]  # (module, qualified function name, parameter)
# (qualified name, callee names, positional slot or None, parameter)
Defaulted = Tuple[str, List[str], Optional[int], str]


def _mentions(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name and attribute the code under ``nodes`` mentions."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _defined_names(node: ast.stmt) -> List[str]:
    """The names a top-level statement defines (empty: run on import)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        if not all(isinstance(e, ast.Name) for e in elements):
            return []
        names += [e.id for e in elements]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def scan(modules: Mapping[str, str], entry_points: Iterable[str],
         keep: Iterable[Definition] = ()) -> Dict[Definition, int]:
    """Top-level definitions in ``modules`` that nothing reaches.

    ``modules`` maps a module label to its source; every mention in an
    ``entry_points`` source is a root, and so is every name in ``keep``.
    Returns each unreached definition with its line count.
    """
    roots = _mentions(ast.parse(source) for source in entry_points)
    roots.update(name for _, name in keep)
    bodies: Dict[str, List[Tuple[Definition, int, Set[str]]]] = {}
    aliases: Dict[str, Set[str]] = {}
    for label, source in modules.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        aliases.setdefault(alias.asname, set()).add(
                            alias.name.rsplit(".", 1)[-1])
        for node in tree.body:
            names = _defined_names(node)
            if not names:
                roots |= _mentions([node])  # module-level code runs on import
                continue
            decorators = getattr(node, "decorator_list", [])
            roots |= _mentions(decorators)
            body = [child for child in ast.iter_child_nodes(node)
                    if child not in decorators]
            lines = node.end_lineno - node.lineno + 1
            for name in names:
                bodies.setdefault(name, []).append(
                    ((label, name), lines, _mentions(body)))

    reached: Set[str] = set()
    work = list(roots)
    while work:
        name = work.pop()
        if name in reached:
            continue
        reached.add(name)
        work.extend(aliases.get(name, ()))
        for _, _, used in bodies.get(name, ()):
            work.extend(used)
    return {definition: lines
            for name, entries in bodies.items() if name not in reached
            for definition, lines, _ in entries}


def _mention_counts(tree: ast.AST) -> Counter:
    """How often the code under ``tree`` mentions each name and
    attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def scan_methods(modules: Mapping[str, str],
                 sources: Iterable[str]) -> List[Definition]:
    """Methods and properties of the classes in ``modules`` whose name no
    source in ``sources`` (which should include ``modules``) mentions
    outside the method itself, as ``(module, "Class.method")``."""
    mentions: Counter = Counter()
    for source in sources:
        mentions.update(_mention_counts(ast.parse(source)))
    uncalled = []
    for label, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                        and not method.name.startswith("__")
                        and mentions[method.name]
                        == _mention_counts(method)[method.name]):
                    uncalled.append((label, f"{cls.name}.{method.name}"))
    return uncalled


def _callee(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted(tree: ast.AST) -> Iterator[Defaulted]:
    """Every defaulted parameter under ``tree``.  A method is also named
    by its class when it is ``__init__``; its slots count from after
    ``self``, and a keyword-only parameter has no slot."""
    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                bound = cls is not None and "staticmethod" not in map(
                    _callee, child.decorator_list)
                names = [child.name]
                if cls is not None and child.name == "__init__":
                    names.append(cls)
                qualname = prefix + child.name
                first = len(positional) - len(args.defaults)
                for slot in range(first, len(positional)):
                    yield qualname, names, slot - bound, positional[slot]
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualname, names, None, arg.arg
                yield from visit(child, f"{qualname}.", None)
            else:
                yield from visit(child, prefix, cls)
    return visit(tree, "", None)


def _setters(sources: Iterable[str]) -> Tuple[Set[str], Dict[str, float]]:
    """Every keyword the calls in ``sources`` pass, and for each callee name
    the most positional slots one call fills (``inf`` for ``*args``)."""
    keywords: Set[str] = set()
    slots: Dict[str, float] = {}

    def visit(node, bases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [_callee(b) for b in child.bases])
                continue
            if isinstance(child, ast.Call):
                keywords.update(k.arg for k in child.keywords if k.arg)
                filled = (float("inf") if any(isinstance(a, ast.Starred)
                                              for a in child.args)
                          else len(child.args))
                name = _callee(child.func)
                for callee in bases if name == "__init__" else [name]:
                    slots[callee] = max(slots.get(callee, 0), filled)
            visit(child, bases)

    for source in sources:
        visit(ast.parse(source), [])
    return keywords, slots


def scan_options(modules: Mapping[str, str], callers: Iterable[str],
                 keep: Iterable[Definition] = ()) -> List[Option]:
    """Defaulted parameters in ``modules`` that no call in ``callers`` sets.

    Parameters in ``TEST_SEAMS`` and every parameter of a top-level
    definition in ``keep`` are exempt.
    """
    keywords, slots = _setters(callers)
    keep = set(keep)
    unset = []
    for label, source in modules.items():
        for qualname, names, slot, param in _defaulted(ast.parse(source)):
            if (param in TEST_SEAMS or param in keywords
                    or (label, qualname.split(".")[0]) in keep):
                continue
            if slot is not None and any(slot < slots.get(name, 0)
                                        for name in names):
                continue
            unset.append((label, qualname, param))
    return unset


def _sources() -> Tuple[Dict[str, str], List[Path]]:
    """``src/repro`` modules by label, and the entry points outside it."""
    modules = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    entries = [*sorted((ROOT / "benchmarks").rglob("*.py")),
               *sorted((ROOT / "examples").rglob("*.py"))]
    return modules, entries


def scan_repo(keep: Iterable[Definition] = ()) -> Dict[Definition, int]:
    modules, entries = _sources()
    main = modules.pop("__main__.py")
    return scan(modules, [main, *(path.read_text() for path in entries)],
                keep)


def scan_repo_options() -> List[Option]:
    modules, entries = _sources()
    callers = [*modules.values(), *(path.read_text() for path in entries)]
    return scan_options(modules, callers, keep=ALLOWED)


def scan_repo_methods() -> List[Definition]:
    modules, entries = _sources()
    return scan_methods(modules, [*modules.values(),
                                  *(path.read_text() for path in entries)])


def test_every_definition_has_a_caller():
    stale = sorted(set(ALLOWED) - set(scan_repo()))
    assert not stale, f"allow-listed but reached (drop the entry): {stale}"
    missing = sorted(scan_repo(keep=ALLOWED))
    assert not missing, (
        "only tests reach these definitions; delete them or give them a "
        f"caller: {missing}")


def test_every_option_has_a_setter():
    unset = scan_repo_options()
    assert not unset, (
        "only tests set these options; make each its default as a "
        f"constant, or give it a caller: {unset}")


def test_every_method_has_a_caller():
    uncalled = set(scan_repo_methods())
    stale = sorted(set(ALLOWED_METHODS) - uncalled)
    assert not stale, f"allow-listed but called (drop the entry): {stale}"
    missing = sorted(uncalled - set(ALLOWED_METHODS))
    assert not missing, (
        "only tests call these methods; delete them or give them a "
        f"caller: {missing}")


def test_scan_reports_an_uncalled_function():
    module = (
        '"""Mentions dead() in a docstring."""\n'
        "LIMIT = 3\n"
        "def used():\n"
        "    return f'{helper() + LIMIT}'  # dead()\n"
        "def helper():\n"
        "    return 1\n"
        "def dead():\n"
        "    return helper()\n"
        "class Box:\n"
        "    def dead(self):\n"
        "        return 'dead()'\n"
        "print(Box)\n")
    reexport = 'from mod import dead, used\n__all__ = ["dead", "used"]\n'
    assert scan({"mod.py": module, "pkg.py": reexport},
                ["from pkg import used\nused()\n"]) == {("mod.py", "dead"): 2}


def test_scan_reports_an_uncalled_method():
    module = (
        "class Box:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def dead(self, n):\n"
        "        return self.dead(n - 1) if n else 'used()'  # helper()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def __len__(self):\n"
        "        return self.size\n"
        "print(Box().used())\n")
    assert scan_methods({"mod.py": module}, [module]) == [
        ("mod.py", "Box.dead")]


def test_scan_reports_an_unset_option():
    module = (
        '"""Sets fit(limit=2) in a docstring."""\n'
        "def fit(x, scale=1.0, limit=4, *, strict=True):\n"
        "    return helper(x, 2)  # fit(x, 1, 2, strict=False)\n"
        "def helper(x, factor=1, offset=0, rng=None):\n"
        "    return x * factor + offset\n"
        "def spread(*values, step=1):\n"
        "    return values\n"
        "class Base:\n"
        "    def __init__(self, size=1, name='base'):\n"
        "        self.size = size\n"
        "class Box(Base):\n"
        "    def __init__(self, capacity=8, label=''):\n"
        "        super().__init__(capacity)\n"
        "    def fill(self, n=1):\n"
        "        return 'fill(3)'\n"
        "    @staticmethod\n"
        "    def empty(depth=0):\n"
        "        return depth\n")
    caller = ("fit(1.0, 2.0)\nBox(4).fill()\nBox.empty(1)\n"
              "spread(*range(3))\nfit(0, strict=False)\n")
    assert sorted(scan_options({"mod.py": module}, [module, caller])) == [
        ("mod.py", "Base.__init__", "name"),
        ("mod.py", "Box.__init__", "label"),
        ("mod.py", "Box.fill", "n"),
        ("mod.py", "fit", "limit"),
        ("mod.py", "helper", "offset"),
        ("mod.py", "spread", "step"),
    ]


def test_line_scan_reports_an_unrun_branch(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Module docstring,\n   two lines."""\n'
        "def check(x):\n"
        '    """Docstring."""\n'
        "    if x < 0:\n"
        "        raise ValueError(\n"
        "            'negative')\n"
        "    if x > 9:\n"
        "        x = 9\n"
        "    return [y for y in range(x) if y > 7]\n"
        "def unused():\n"
        "    return 1\n"
        "check(2)\n")
    code, ran = trace_run(tmp_path, ["path", str(module)],
                          tmp_path / "out.json", tmp_path, os.environ)
    assert code == 0
    assert unrun_lines(module, ran[str(module)]) == {
        "check": [9], "unused": [12]}


def test_unrun_entries_name_counted_functions():
    """Every ``UNRUN`` key names a module, or a function of it that has
    counted lines (whether they ran is the slow listing's question)."""
    bad = []
    for key in UNRUN:
        module, _, function = key.partition(":")
        path = SRC / module
        if not path.is_file() or (
                function and function not in unrun_lines(path, set())):
            bad.append(key)
    assert not bad, f"UNRUN keys that name nothing: {bad}"


def _built_op_types() -> Set[str]:
    """Op types of every graph built from the zoo: model x split
    {1, 4} x {training, inference} x {plain, compiled}."""
    from repro.compile import compile_graph
    from repro.core.transform import build_zoo_model
    from repro.graph import build_inference_graph, build_training_graph
    from repro.graph.executor import GraphExecutor
    from repro.models import MODEL_REGISTRY

    builds = (build_training_graph, build_inference_graph)
    built = set()
    for name in MODEL_REGISTRY:
        for split in (1, 4):
            model = build_zoo_model(name, split=split)
            for build, compiled in product(builds, (False, True)):
                graph = build(model, 1)
                if compiled:
                    params = GraphExecutor.parameters_from_model(graph, model)
                    compile_graph(graph, params)
                built.update(op.op_type for op in graph.ops)
    return built


def test_every_op_type_is_built():
    from repro.graph.registry import REGISTRY

    unbuilt = set(REGISTRY) - _built_op_types()
    stale = sorted(set(UNBUILT_OPS) - unbuilt)
    assert not stale, f"allow-listed but built (drop the entry): {stale}"
    missing = sorted(unbuilt - set(UNBUILT_OPS))
    assert not missing, (
        "no zoo graph contains these registered op types; delete them or "
        f"build them: {missing}")


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_autograd_function_is_applied(monkeypatch):
    """One eager training step and one eval step per model; batch norm's
    training Function is applied through ``nn.norm._apply_function``."""
    from repro.core import to_split_cnn
    from repro.models import build_model
    from repro.nn import CrossEntropyLoss, init, norm
    from repro.tensor import Function, Tensor, no_grad

    applied = set()
    apply = Function.apply.__func__
    apply_function = norm._apply_function

    def recording_apply(cls, *args, **kwargs):
        applied.add(cls)
        return apply(cls, *args, **kwargs)

    def recording_apply_function(fn, *args, **kwargs):
        applied.add(type(fn))
        return apply_function(fn, *args, **kwargs)

    monkeypatch.setattr(Function, "apply", classmethod(recording_apply))
    monkeypatch.setattr(norm, "_apply_function", recording_apply_function)
    rng = np.random.default_rng(0)
    for name, split in (("small_vgg", 1), ("small_resnet", 1),
                        ("small_resnet", 4), ("vgg11", 1), ("alexnet", 1)):
        with init.fast_init():
            model = build_model(name)
            if split > 1:
                model = to_split_cnn(model, depth=0.5, num_splits=(2, 2))
        side = model.input_size
        x = Tensor(rng.standard_normal((1, 3, side, side)).astype(np.float32))
        model.train()
        CrossEntropyLoss()(model(x), np.array([0])).backward()
        model.eval()
        with no_grad():
            model(x)
    missing = sorted(cls.__name__ for cls in _subclasses(Function)
                     if cls.__module__.startswith("repro.")
                     and cls not in applied)
    assert not missing, (
        "no zoo training or eval step applies these autograd Functions; "
        f"delete them or apply them: {missing}")


# ----------------------------------------------------------------------
# Line reach: which lines of src/repro run outside the tests
# ----------------------------------------------------------------------
# ``python tests/test_callers.py --lines`` runs every example, every
# ``python -m repro`` line of CI, the figure and graph commands at their
# defaults, the smoke benchmarks and one traced child of each e2e
# workload, each under ``sys.settrace``, and lists the lines of
# ``src/repro`` that none of them ran.  Lines inside a ``raise`` (the
# typed-error contract) and docstrings are not counted.  It takes tens of
# minutes, so it is a CI job, not a tier-1 test.

#: Non-raise lines of src/repro that the run set leaves unexecuted (1,037
#: before the first deletions it found, 901 after them).  The listing fails
#: when the count rises above this; lower it when it falls.
LINE_BUDGET = 815

#: ``module:function`` or a whole ``module`` -> why its unexecuted lines
#: stay.  The listing marks these; they still count against
#: ``LINE_BUDGET``.  An unmarked line has not been triaged yet.
_CHECKER = ("a finding branch only a broken plan or graph reaches; the "
            "mutation tests reach it")
_REPR = "debugging text for a REPL; no program prints it"
_DROPOUT = "dropout sits in the ImageNet classifiers, which no run trains"
_RETIRE = ("idle-replica retirement: no run's trace idles a scaled-up "
           "replica; the fleet golden digests do")
UNRUN: Dict[str, str] = {
    "hmms/verify.py": _CHECKER,
    "analysis/lowering.py": _CHECKER,
    "analysis/lint.py": _CHECKER,
    "analysis/races.py": _CHECKER,
    "analysis/determinism.py": _CHECKER,
    "analysis/mesh.py": _CHECKER,
    "analysis/diagnostics.py": _CHECKER,
    "sim/engine.py:GPUSimulator._residency_error": _CHECKER,
    "cli.py": "options CI's lines leave at their defaults, and usage "
              "errors; test_cli.py runs them",
    "data/cifar.py": "reads CIFAR-10 from disk; no dataset is in the tree",
    "experiments/accuracy.py:table1_run":
        "benchmarks/test_table1_accuracy.py, an eager accuracy file the "
        "listing skips",
    "infer/merger.py:BlendMerger._importance":
        "blend modes; the frozen e2e harness builds BlendMerger('valid')",
    "infer/merger.py:BlendMerger.merge":
        "blend modes; the frozen e2e harness builds BlendMerger('valid')",
    "graph/executor.py:GraphExecutor._run_wavefront":
        "the wavefront executor, kept for the frozen harness (item 2)",
    "graph/registry.py:_k_split_bwd": UNBUILT_OPS["split_bwd"],
    "compile/rewrites.py:fold_constants":
        "a batch norm whose gamma or variance has no value: every caller "
        "passes the model's parameters; test_builder_identity.py compiles "
        "without them",
    "graph/registry.py:_k_bn_affine":
        "the folded batch norm of a compiled BN model; no run executes "
        "one numerically, test_compile.py does",
    "graph/registry.py:_k_dropout": _DROPOUT,
    "graph/registry.py:_k_dropout_bwd": _DROPOUT,
    "graph/executor.py:GraphExecutor.dropout_op_seed": _DROPOUT,
    "tensor/ops_nn.py:Dropout.forward": _DROPOUT,
    "tensor/ops_nn.py:Dropout.backward": _DROPOUT,
    "tensor/ops_nn.py:dropout": _DROPOUT,
    "nn/activation.py:Dropout.forward": _DROPOUT,
    "serve/fleet.py:FleetScheduler._autoscale_tick": _RETIRE,
    "serve/fleet.py:FleetScheduler._retire_replica": _RETIRE,
    "serve/fleet.py:DeviceLedger.release": _RETIRE,
    "hmms/planner.py:PlanCache.get_or_build":
        "eviction: no run plans more than the cache's 64 entries",
    "mesh/topology.py:build_mesh": "the bus and p2p topologies; CI's "
                                   "mesh lines pick ring",
    "mesh/partition.py:MeshPartitioner._allreduce_transfers":
        "the p2p topology; CI's mesh lines pick ring",
    "nn/module.py:Module.__repr__": _REPR,
    "nn/module.py:Module.extra_repr": _REPR,
    "nn/activation.py:ReLU.extra_repr": _REPR,
    "nn/activation.py:Dropout.extra_repr": _REPR,
    "nn/conv.py:Conv2d.extra_repr": _REPR,
    "nn/linear.py:Linear.extra_repr": _REPR,
    "nn/linear.py:Flatten.extra_repr": _REPR,
    "nn/norm.py:BatchNorm2d.extra_repr": _REPR,
    "nn/pool.py:MaxPool2d.extra_repr": _REPR,
    "core/region.py:SplitRegion.extra_repr": _REPR,
    "graph/ir.py:Graph.__repr__": _REPR,
    "graph/ir.py:OpNode.__repr__": _REPR,
    "graph/ir.py:TensorValue.__repr__": _REPR,
    "hmms/tso.py:TSO.__repr__": _REPR,
    "tensor/tensor.py:Tensor.__repr__": _REPR,
}

#: Benchmarks that train models eagerly for minutes even in smoke mode;
#: ``examples/train_split_cnn.py`` runs the same experiment code.
SLOW_BENCHMARKS = {"test_fig4_depth.py", "test_fig5_num_splits.py",
                   "test_fig6_stochastic.py", "test_table1_accuracy.py"}
#: Commands CI does not run, at their defaults.
DEFAULT_COMMANDS = [["info", "vgg11"], ["plan", "vgg11"],
                    ["export", "vgg11"], ["fig1"], ["fig8"], ["fig9"],
                    ["fig10"], ["fig11"]]

# The child: ``python -c _TRACER OUT PREFIX (path|module) TARGET ARGS...``
# runs TARGET as ``__main__`` and writes the lines it ran in files under
# PREFIX to OUT as JSON.  A code object stops being traced once all of
# its lines have run.
_TRACER = r"""
import json, os, runpy, sys, threading
out, prefix, kind, target, *argv = sys.argv[1:]
hits, left = {}, {}

def lines_of(code):
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines

def trace(frame, event, arg):
    code = frame.f_code
    pending = left.get(code)
    if pending is None:
        pending = left[code] = (lines_of(code)
                                if code.co_filename.startswith(prefix)
                                else set())
    if not pending:
        return None
    hit = hits.setdefault(code.co_filename, set())

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
            pending.discard(frame.f_lineno)
            if not pending:
                return None
        return local
    return local

sys.argv = [target, *argv]
threading.settrace(trace)
sys.settrace(trace)
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.path.insert(0, os.path.dirname(target))
        runpy.run_path(target, run_name="__main__")
finally:
    sys.settrace(None)
    threading.settrace(None)
    with open(out, "w") as handle:
        json.dump({f: sorted(h) for f, h in hits.items()}, handle)
"""


def trace_run(prefix: Path, target: Sequence[str], out: Path, cwd: Path,
              env: Mapping[str, str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run ``target`` (``["path", script, *args]`` or ``["module", name,
    *args]``) under the tracer; its exit code and the lines it ran in
    files under ``prefix``, by file name."""
    done = subprocess.run(
        [sys.executable, "-c", _TRACER, str(out), f"{prefix}{os.sep}",
         *target], cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    hits = json.loads(out.read_text()) if out.exists() else {}
    return done.returncode, {f: set(h) for f, h in hits.items()}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _uncounted(tree: ast.AST) -> Set[int]:
    """Lines inside a ``raise`` and docstring lines."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        spans = []
        if isinstance(node, ast.Raise):
            spans.append(node)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(first)
        for span in spans:
            out.update(range(span.lineno, span.end_lineno + 1))
    return out


def unrun_lines(path: Path, ran: Set[int]) -> Dict[str, List[int]]:
    """The counted lines of the module at ``path`` that are not in
    ``ran``, by function (a nested function, lambda or comprehension
    counts as the function it is in; module and class bodies as
    ``<module>`` and the class)."""
    source = path.read_text()
    owner: Dict[int, str] = {}
    for code in _code_objects(compile(source, str(path), "exec")):
        name = code.co_qualname.split(".<", 1)[0]
        for _, _, line in code.co_lines():
            if line and (code.co_name == "<module>"
                         or line != code.co_firstlineno):
                owner[line] = name  # inner code objects come later
    out: Dict[str, List[int]] = {}
    skip = _uncounted(ast.parse(source)) | ran
    for line in sorted(set(owner) - skip):
        out.setdefault(owner[line], []).append(line)
    return out


def _ci_commands() -> List[Tuple[List[str], bool]]:
    """Every ``python -m repro`` line of CI: its arguments, and whether it
    runs with ``REPRO_SMOKE=1``."""
    commands = []
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    for line in ci.read_text().splitlines():
        head, marker, rest = line.partition("python -m repro ")
        if marker:
            rest = re.split(r"\s(?:\||2?>)", rest)[0]
            commands.append((shlex.split(rest), "REPRO_SMOKE=1" in head))
    return commands


def _line_runs(scratch: Path) -> List[Tuple[str, List[str], bool]]:
    """(label, tracer target, smoke) for every run of the listing.  The
    pytest benchmarks run from ``scratch``, a copy, so their snapshots
    stay; the e2e children need the checkout and write only to its
    ignored ``out/``."""
    benchmarks = scratch / "benchmarks"
    runs = [(f"examples/{path.name}", ["path", str(path)], False)
            for path in sorted((ROOT / "examples").glob("*.py"))]
    for args, smoke in _ci_commands() + [(c, False)
                                          for c in DEFAULT_COMMANDS]:
        runs.append(("repro " + " ".join(args), ["module", "repro", *args],
                     smoke))
    for path in sorted(benchmarks.glob("test_*.py")):
        if path.name not in SLOW_BENCHMARKS:
            runs.append((f"benchmarks/{path.name}",
                         ["module", "pytest", str(path), "-q",
                          "--benchmark-disable", "-p", "no:cacheprovider"],
                         True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        runs.append((f"e2e {workload}", [
            "path", str(ROOT / "benchmarks" / "e2e" / "run.py"), "child",
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", "1", "--spawned-at", repr(time.time()),
            "--ops", "3"], False))
    return runs


def line_listing() -> int:
    """Print the unexecuted lines per function and their total; exit 1 if
    the total is above ``LINE_BUDGET`` or an ``UNRUN`` entry is stale."""
    ran: Dict[str, Set[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        shutil.copytree(ROOT / "benchmarks", scratch / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for index, (label, target, smoke) in enumerate(_line_runs(scratch)):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "PYTHONHASHSEED": "0"}
            if smoke:
                env["REPRO_SMOKE"] = "1"
            start = time.monotonic()
            code, hits = trace_run(SRC, target, scratch / f"{index}.json",
                                   scratch / "benchmarks", env)
            for name, lines in hits.items():
                ran.setdefault(name, set()).update(lines)
            print(f"# {time.monotonic() - start:6.1f} s  exit {code}  "
                  f"{label}", file=sys.stderr, flush=True)
    total = allowed = 0
    seen = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for function, lines in unrun_lines(path,
                                           ran.get(str(path), set())).items():
            key = next((k for k in (f"{module}:{function}", module)
                        if k in UNRUN), None)
            reason = UNRUN.get(key)
            seen.add(key)
            total += len(lines)
            allowed += len(lines) if reason else 0
            print(f"{len(lines):5d}  {module}:{function}  "
                  f"{','.join(map(str, lines))}"
                  + (f"  # {reason}" if reason else ""))
    print(f"{total:5d}  total ({allowed} allow-listed, "
          f"budget {LINE_BUDGET})")
    stale = sorted(set(UNRUN) - seen)
    for key in stale:
        print(f"stale  {key} (every line ran)")
    return 1 if total > LINE_BUDGET or stale else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        sys.exit(line_listing())
    found = scan_repo(keep=ALLOWED)
    for (module, name), lines in sorted(found.items()):
        print(f"{lines:5d}  {module}:{name}")
    print(f"{sum(found.values()):5d}  total")
    unset = scan_repo_options()
    for module, function, param in unset:
        print(f"unset  {module}:{function}({param}=)")
    uncalled = sorted(set(scan_repo_methods()) - set(ALLOWED_METHODS))
    for module, method in uncalled:
        print(f"uncalled  {module}:{method}")
    sys.exit(1 if found or unset or uncalled else 0)
