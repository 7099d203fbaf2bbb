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
