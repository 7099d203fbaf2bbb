"""Every public function, class and method of the package is reached from a
caller that exists outside the test suite's unit tests.

The callers are `cfedit.cli.main`, the benchmark under `perfbench/` and the
acceptance tests.  Reachability is transitive through the package's own
code and matched by name: a top-level definition is reached when a reached
body names it, and a method when its class is reached and a reached body
names the attribute (dunder methods come with their class).  Imports, type
annotations and attributes of imported modules (`json.load`) are not
references, so a re-export in `__init__`, a type hint or a library call of
the same name keeps nothing alive.  Module-level statements outside
`__init__` run on import and count as reached code.

A function can be reached while one of its options is set only by unit
tests, so a second rule checks options: every defaulted parameter of a
public function, method or constructor is set, by keyword, by position or
through `*args`/`**kwargs`, at some call site in the package, the benchmark
or the acceptance tests.  Call sites are matched by name as above.
"""

import ast
import os

import cfedit

PACKAGE_DIR = os.path.dirname(os.path.abspath(cfedit.__file__))
REPO = os.path.dirname(os.path.dirname(PACKAGE_DIR))
PERFBENCH_DIR = os.path.join(REPO, "perfbench")
ACCEPTANCE = os.path.join(REPO, "tests", "test_acceptance.py")


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def references(nodes, modules=frozenset()):
    """Identifiers that `nodes` name, skipping imports, type annotations and
    attributes of the imported `modules`."""
    found = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                found.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            stack.extend(v for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST))
    return found


def imported_modules(tree):
    """Names that `import` statements in `tree` bind to modules."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def root_references():
    """Names used by the benchmark and the acceptance tests, `from` imports included."""
    paths = [os.path.join(PERFBENCH_DIR, f) for f in sorted(os.listdir(PERFBENCH_DIR)) if f.endswith(".py")]
    found = set()
    for path in paths + [ACCEPTANCE]:
        tree = parse(path)
        found |= references([tree], imported_modules(tree))
        found |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    return found


def definitions():
    """{qualified name: (node, class qualified name or None)} for every
    top-level function and class and every method; each module's top-level
    statements other than imports and definitions; and the names that
    `import` statements bind to modules."""
    defs, module_code, modules = {}, [], set()
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        tree = parse(os.path.join(PACKAGE_DIR, fname))
        modules |= imported_modules(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = (node, None)
            elif isinstance(node, ast.ClassDef):
                cls = f"{module}.{node.name}"
                defs[cls] = (node, None)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{cls}.{item.name}"] = (item, cls)
            elif module != "__init__" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_code.append(node)
    return defs, module_code, frozenset(modules)


def class_level_code(node):
    """A class's decorators, bases and non-method statements (field defaults)."""
    body = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
    return node.decorator_list + node.bases + body


def unreached_public_names():
    defs, module_code, modules = definitions()
    names = {"main"} | root_references() | references(module_code, modules)
    reached = set()
    changed = True
    while changed:
        changed = False
        for qual, (node, cls) in defs.items():
            if qual in reached:
                continue
            short = qual.rsplit(".", 1)[1]
            if cls is None:
                hit = short in names
            else:
                dunder = short.startswith("__") and short.endswith("__")
                hit = cls in reached and (dunder or short in names)
            if hit:
                reached.add(qual)
                body = class_level_code(node) if isinstance(node, ast.ClassDef) else [node]
                names |= references(body, modules)
                changed = True
    return sorted(
        qual
        for qual in defs
        if qual not in reached and not any(part.startswith("_") for part in qual.split(".")[1:])
    )


def test_every_public_name_is_reached():
    unreached = unreached_public_names()
    assert not unreached, f"public names no command, benchmark or acceptance test reaches: {unreached}"


def call_sites():
    """{callee name: [(positional count, keyword names, open-ended)]} for
    every call in the package, the benchmark and the acceptance tests.  A
    callee is named by its last identifier (`f(...)`, `mod.f(...)`,
    `obj.f(...)`), through `from ... import f as g` aliases; a call that
    passes `*args` or `**kwargs` is open-ended and may set any parameter."""
    paths = [os.path.join(PACKAGE_DIR, f) for f in sorted(os.listdir(PACKAGE_DIR)) if f.endswith(".py")]
    paths += [os.path.join(PERFBENCH_DIR, f) for f in sorted(os.listdir(PERFBENCH_DIR)) if f.endswith(".py")]
    sites = {}
    for path in paths + [ACCEPTANCE]:
        tree = parse(path)
        imports = [a for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
        aliases = {a.asname: a.name for a in imports if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            open_ended = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            sites.setdefault(aliases.get(name, name), []).append((len(node.args), keywords, open_ended))
    return sites


def defaulted_parameters(node, method):
    """(position, name) of each parameter of `node` that has a default;
    position counts from the first argument a caller passes, None for a
    keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    if method:
        positional = positional[1:]  # self or cls, bound by the call
    first = len(positional) - len(args.defaults)
    found = [(p, positional[p].arg) for p in range(first, len(positional))]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def unset_defaulted_parameters():
    defs, _, _ = definitions()
    sites = call_sites()
    unset = []
    for qual, (node, cls) in defs.items():
        if isinstance(node, ast.ClassDef):
            continue
        parts = qual.split(".")[1:]
        if any(part.startswith("_") and part != "__init__" for part in parts):
            continue
        callee = parts[-2] if parts[-1] == "__init__" else parts[-1]  # a class is called by its name
        calls = sites.get(callee, [])
        for pos, name in defaulted_parameters(node, cls is not None):
            if not any(
                open_ended or name in keywords or (pos is not None and count > pos)
                for count, keywords, open_ended in calls
            ):
                unset.append(f"{qual}({name})")
    return sorted(unset)


def test_every_defaulted_parameter_is_set_somewhere():
    """An option that no command, benchmark or acceptance test sets is an
    option only unit tests reach; the name-based reachability above cannot
    see it, because its function is reached either way."""
    unset = unset_defaulted_parameters()
    assert not unset, f"defaulted parameters no command, benchmark or acceptance test sets: {unset}"
