"""Every function, class and method in src/adexpand/ has a caller outside its
own definition in src/, perfbench/ or scripts/, every parameter with a
default is passed by some call there, every name a module of src/adexpand/
imports is used in that module, and every flag of every CLI subcommand is
passed by an argv in perfbench/ or scripts/ or by an ``adexpand`` command in
README.md: code and options that only tests use belong in the tests. No
module of src/adexpand/ coerces a value read from a document with int(),
float(), str() or bool(), and only snapshot_store.py calls into gc."""

import argparse
import ast
import os
import re

from adexpand.cli import build_parser

from conftest import SRC_DIR

_ROOT = os.path.dirname(SRC_DIR)
PACKAGE_DIR = os.path.join(SRC_DIR, "adexpand")
CALLER_DIRS = [SRC_DIR, os.path.join(_ROOT, "perfbench"), os.path.join(_ROOT, "scripts")]
README = os.path.join(_ROOT, "README.md")

# name -> why it stays without a caller in the program
ALLOWED = {
    "log_message": "BaseHTTPRequestHandler calls it",
    "send_error": "BaseHTTPRequestHandler calls it on a request it cannot parse",
    "process_request": "socketserver calls it for each accepted connection",
    "error": "argparse calls it; the CLI's override turns usage errors into exit 1",
}
# "name(parameters)" -> why those defaulted parameters stay though no call
# in the program passes them
ALLOWED_PARAMETERS = {
    "send_error(message, explain)": "the stdlib signature BaseHTTPRequestHandler calls",
}
# "subcommand --flag", or "* --flag" for every subcommand -> why the flag
# stays though no argv and no README command passes it
ALLOWED_FLAGS = {
    "* --config": "a config file supplies any subcommand's parameters; README's config"
                  " paragraph describes it and tests/test_cli.py drives it",
    "train-adjust --adjustment-trees": "reads the PipelineConfig parameter adjustment_trees,"
                                       " which fixtures/config.json sets",
    "train-adjust --adjustment-depth": "reads the PipelineConfig parameter adjustment_depth,"
                                       " which fixtures/config.json sets",
}
# "module:Qual.name", the form perfbench/tracer.py names its targets in
_TARGET = re.compile(r"^[\w.]+:([\w.]+)$")


def _py_files(dirs):
    for top in dirs:
        for base, _, names in os.walk(top):
            yield from (os.path.join(base, n) for n in sorted(names) if n.endswith(".py"))


def _references(tree):
    """(name, line) for each identifier the module looks up."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _TARGET.match(node.value)
            if match:
                yield from ((part, node.lineno) for part in match.group(1).split("."))


def _called_by_python(name):
    """Dunder methods, and the do_* handlers http.server dispatches to."""
    return name.startswith("do_") or (name.startswith("__") and name.endswith("__"))


def unreferenced_definitions():
    """Each definition in the package with no caller, as "path:line name"."""
    refs = {}
    for path in _py_files(CALLER_DIRS):
        with open(path, encoding="utf-8") as fh:
            refs[path] = list(_references(ast.parse(fh.read(), path)))
    found = []
    for path in _py_files([PACKAGE_DIR]):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _called_by_python(node.name):
                continue
            used = any(
                name == node.name
                and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, names in refs.items()
                for name, line in names
            )
            if not used:
                found.append(f"{os.path.relpath(path, _ROOT)}:{node.lineno} {node.name}")
    return found


def test_every_definition_has_a_caller():
    found = unreferenced_definitions()
    assert [f for f in found if f.split()[-1] not in ALLOWED] == []


def test_allow_list_is_current():
    """An allowed name that gains a caller, or is deleted, leaves the list."""
    assert {f.split()[-1] for f in unreferenced_definitions()} >= set(ALLOWED)


def unused_imports():
    """Each name a module of the package imports but never looks up, as
    "path:line name"; ``from __future__`` imports aside."""
    found = []
    for path in _py_files([PACKAGE_DIR]):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{os.path.relpath(path, _ROOT)}:{node.lineno} {name}")
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def coerced_document_values():
    """Each int(), float(), str() or bool() call in the package whose
    argument is a string-keyed subscript, such as ``int(doc["id"])``, as
    "file:line call". Such a call turns a value of the wrong JSON kind into
    a wrong value (``int(5.7)`` is 5, ``bool("false")`` is True), where
    errors.typed refuses it."""
    found = []
    for path in _py_files([PACKAGE_DIR]):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("int", "float", "str", "bool") and node.args
                    and isinstance(node.args[0], ast.Subscript)
                    and isinstance(node.args[0].slice, ast.Constant)
                    and isinstance(node.args[0].slice.value, str)):
                found.append(f"{os.path.basename(path)}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_document_value_is_coerced():
    assert coerced_document_values() == []


# the module that keeps the one collector policy: load_runtime pauses
# collection for a load and freezes the bundle it returns
COLLECTOR_MODULES = {"snapshot_store.py"}


def collector_imports():
    """Each module of the package that imports gc, with ``import gc``,
    ``from gc import ...`` or a call naming the module "gc" (``__import__``,
    ``importlib.import_module``), as "file:line"."""
    found = []
    for path in _py_files([PACKAGE_DIR]):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "gc"
                    or isinstance(node, ast.Call)
                    and any(isinstance(a, ast.Constant) and a.value == "gc" for a in node.args)):
                found.append(f"{os.path.basename(path)}:{node.lineno}")
    return found


def test_only_the_collector_modules_call_into_gc():
    found = collector_imports()
    assert [f for f in found if f.split(":")[0] not in COLLECTOR_MODULES] == []
    assert {f.split(":")[0] for f in found} == COLLECTOR_MODULES


def _defaulted(func):
    """(position, name) of each parameter with a default; the position a
    call passes it at, or None for a keyword-only one."""
    args = func.args
    positional = args.posonlyargs + args.args
    offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    out = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, position, name):
    """Whether the call passes the parameter: by position, by keyword, or
    through a *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def unpassed_parameters():
    """Each function in the package with defaulted parameters that no call
    passes, as "path:line name(parameters)"."""
    calls = {}
    for path in _py_files(CALLER_DIRS):
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read(), path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    found = []
    for path in _py_files([PACKAGE_DIR]):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            unpassed = [
                name for position, name in _defaulted(node)
                if not any(_passes(call, position, name) for call in calls.get(node.name, []))
            ]
            if unpassed:
                found.append(f"{os.path.relpath(path, _ROOT)}:{node.lineno}"
                             f" {node.name}({', '.join(unpassed)})")
    return found


def test_every_defaulted_parameter_is_passed():
    found = unpassed_parameters()
    assert [f for f in found if f.split(" ", 1)[1] not in ALLOWED_PARAMETERS] == []


def test_parameter_allow_list_is_current():
    assert {f.split(" ", 1)[1] for f in unpassed_parameters()} == set(ALLOWED_PARAMETERS)


def _cli_flags():
    """Each (subcommand, option string) the CLI accepts, argparse's own
    -h/--help aside."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (name, option)
        for name, sub in commands.choices.items()
        for action in sub._actions if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }


def _own_lists(scope):
    """The list displays of a module or function, in source order, those
    of the functions and classes it defines aside."""
    found = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.List):
            found.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda n: (n.lineno, n.col_offset))


def _argv_flags(commands):
    """(subcommand, flag) for each flag an argv in perfbench/ or scripts/
    passes: a list that starts with a subcommand's name holds its argv, and
    so do the lists after it in the same function, which extend it."""
    found = set()
    for path in _py_files(CALLER_DIRS[1:]):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        scopes = [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            command = None
            for node in _own_lists(scope):
                words = [e.value for e in node.elts
                         if isinstance(e, ast.Constant) and isinstance(e.value, str)]
                if node.elts and isinstance(node.elts[0], ast.Constant) \
                        and node.elts[0].value in commands:
                    command = node.elts[0].value
                if command is not None:
                    found |= {(command, w) for w in words if w.startswith("--")}
    return found


def _readme_flags():
    """(subcommand, flag) for each flag of an ``adexpand <subcommand>``
    command in README.md's bash blocks, continued lines joined."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```bash\n(.*?)```", fh.read(), re.S)
    found = set()
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split()
            if len(words) > 1 and words[0] == "adexpand":
                found |= {(words[1], w.split("=")[0]) for w in words[2:] if w.startswith("--")}
    return found


def flags_without_caller():
    """Each CLI flag that no caller passes, as "subcommand --flag"."""
    flags = _cli_flags()
    passed = _argv_flags({command for command, _ in flags}) | _readme_flags()
    return sorted(f"{command} {flag}" for command, flag in flags - passed)


def _allowed_by(flag):
    """The ALLOWED_FLAGS key that allows ``flag``, or None."""
    wildcard = "* " + flag.split(" ", 1)[1]
    return next((key for key in (flag, wildcard) if key in ALLOWED_FLAGS), None)


def test_every_cli_flag_has_a_caller():
    assert [f for f in flags_without_caller() if _allowed_by(f) is None] == []


def test_flag_allow_list_is_current():
    assert {_allowed_by(f) for f in flags_without_caller()} - {None} == set(ALLOWED_FLAGS)
