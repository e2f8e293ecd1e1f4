"""Every top-level function or class of the package, and every method or
property of its classes, is reached, and every parameter with a default
is set by some call.

A name counts as used when an ``ast.Name`` or ``ast.Attribute`` outside
its own definition refers to it, anywhere in ``src/fatou_lab/`` or
``perfbench/``, or when ``perfbench/layers.py`` names it as the
attribute of a ``(module, attribute)`` pair in ``LAYERS`` (the layer
names, the keys of ``LAYERS``, do not count).  A method counts by its name alone, whatever the object it
is read from; dunder methods, which Python calls itself, are exempt.
Code only the tests call belongs in ``tests/`` (reference implementations
live in ``tests/reference.py``).  A default that no call in those
directories overrides is a knob with one value in use: the value belongs
in the body, not in the signature.  A default that every call overrides
is never used: the parameter loses it.

The same holds for the experiment config: a settable key that takes one
value in every config in use (the acceptance battery and the benchmark
workloads), among the runners that read it, is a constant.
"""

import ast
import importlib
from collections import Counter, defaultdict
from dataclasses import fields
from pathlib import Path

from fatou_lab.config import ExperimentConfig, reads
from fatou_lab.experiments import acceptance_configs

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "fatou_lab").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = set()  # definitions exempt from the check: none

ALLOWED_DEFAULTS = {
    # the console entry point calls main() and lets argparse read sys.argv
    "cli.main(argv)",
}

# config keys that may take one value in use, each with its reason
ALLOWED_ONE_VALUE_KEYS = {
    "p": "a parameter of the theorem, with alpha and n; the sharpness "
         "fits of ROADMAP items 2-3 run a second (alpha, p)",
    "alpha": "a parameter of the theorem, with p and n; the sharpness fits "
             "of ROADMAP items 2-3 run a second (alpha, p)",
}


def _names(node) -> Counter:
    """Names referred to by Name and Attribute nodes under node, counted."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(label, name, node) of each top-level function or class of tree and
    of each method or property of its classes, dunders left out."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("__")):
                    yield f"{stmt.name}.{sub.name}", sub.name, sub


def _layer_attributes(tree) -> set:
    """The attribute of each (module, attribute) pair in LAYERS."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in stmt.targets)):
            return {pair.elts[1].value for pair in ast.walk(stmt.value)
                    if isinstance(pair, ast.Tuple) and len(pair.elts) == 2}
    return set()


def unreached() -> list:
    """Definitions in src/fatou_lab/ (see _definitions) that nothing
    outside themselves uses."""
    uses = Counter()  # name -> references in all FILES
    defined = []
    for path in FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += _names(tree)
        if path.name == "layers.py":
            uses.update(_layer_attributes(tree))
        if path.parent.name == "fatou_lab":
            defined += [(path, *d) for d in _definitions(tree)]
    return sorted(f"{path.stem}.{label}" for path, label, name, node in defined
                  if name not in ALLOWED and uses[name] == _names(node)[name])


def test_every_package_definition_is_used_outside_itself():
    assert unreached() == []


def _passes(call: ast.Call, index: int, name: str) -> bool:
    """Whether call sets the parameter at positional index (None when it
    is keyword-only) called name; *args and **kwargs may set any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def _defaults():
    """(label, calls, index, name) of each parameter with a default in
    src/fatou_lab/: label is "module.function(param)", calls the calls in
    FILES to a function of that name, and index and name as _passes takes
    them."""
    calls = defaultdict(list)  # callee name -> [ast.Call]
    defs = []
    for path in FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(
                    fn, "attr", None)
                calls[name].append(node)
            elif (isinstance(node, ast.FunctionDef)
                    and path.parent.name == "fatou_lab"):
                defs.append((path, node))
    for path, fn in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        params = [(i - bound, positional[i].arg) for i in
                  range(len(positional) - len(args.defaults), len(positional))]
        params += [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                   if d is not None]
        for index, name in params:
            yield (f"{path.stem}.{fn.name}({name})", calls[fn.name], index,
                   name)


def unset_defaults() -> list:
    """Parameters with a default in src/fatou_lab/ that no call in
    src/fatou_lab/ or perfbench/ passes, as "module.function(param)"."""
    return sorted({label for label, calls, index, name in _defaults()
                   if not any(_passes(c, index, name) for c in calls)}
                  - ALLOWED_DEFAULTS)


def always_set_defaults() -> list:
    """Parameters with a default in src/fatou_lab/ that every call in
    src/fatou_lab/ or perfbench/ passes, as "module.function(param)";
    dunder methods, which Python calls itself, are exempt."""
    return sorted({label for label, calls, index, name in _defaults()
                   if calls and not label.split(".")[1].startswith("__")
                   and all(_passes(c, index, name) for c in calls)})


def test_every_parameter_default_is_overridden_by_some_call():
    assert unset_defaults() == []


def test_no_parameter_default_is_overridden_by_every_call():
    assert always_set_defaults() == []


def configs_in_use(monkeypatch) -> list:
    """acceptance_configs() and every config that a workload of
    perfbench/workloads.py builds."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    built = []
    # every workload hands each of its configs to experiment_op
    monkeypatch.setattr(workloads, "experiment_op",
                        lambda cfg, *_: built.append(cfg))
    for build in workloads.WORKLOADS.values():
        build(0, "out")
    return acceptance_configs() + built


def test_every_config_key_takes_two_values_in_use(monkeypatch):
    values = defaultdict(set)  # key -> its values where a runner reads it
    for cfg in configs_in_use(monkeypatch):
        for key in reads(cfg.experiment):
            values[key].add(getattr(cfg, key))
    settable = [f.name for f in fields(ExperimentConfig)
                if f.name not in ("experiment", "output_dir")]
    assert [key for key in settable if len(values[key]) < 2
            and key not in ALLOWED_ONE_VALUE_KEYS] == []
