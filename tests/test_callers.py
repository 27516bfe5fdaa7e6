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
  built from a zoo model (split or not; training, inference or eval-BN
  inference; compiled or not);
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
"""

import ast
import sys
from functools import partial
from itertools import product
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple,
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


def _built_op_types() -> Set[str]:
    """Op types of every graph built from the zoo: model x split
    {1, 4} x {training, inference, eval-BN inference} x {plain, compiled}."""
    from repro.compile import compile_graph
    from repro.core.transform import build_zoo_model
    from repro.graph import build_inference_graph, build_training_graph
    from repro.graph.executor import GraphExecutor
    from repro.models import MODEL_REGISTRY

    builds = (build_training_graph, build_inference_graph,
              partial(build_inference_graph, eval_batchnorm=True))
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


if __name__ == "__main__":
    found = scan_repo(keep=ALLOWED)
    for (module, name), lines in sorted(found.items()):
        print(f"{lines:5d}  {module}:{name}")
    print(f"{sum(found.values()):5d}  total")
    unset = scan_repo_options()
    for module, function, param in unset:
        print(f"unset  {module}:{function}({param}=)")
    sys.exit(1 if found or unset else 0)
