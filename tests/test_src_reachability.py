"""Every top-level name in src/ldpput is reached by a command or by the benchmark.

The walk is by name over the AST, not by import: it starts at `cli.main`,
at every module-level statement other than a def or class, and at every
library name that perfbench/ reads (the `TRACED` keys of spans.py, the
`sys.modules["ldpput.X"].attr` reads there, and the attributes checks.py
takes from the ldpput modules it imports).  A reached def or class reaches
every name its body mentions, resolved through the module's imports.  A
name that is only mentioned counts as used, so the walk over-approximates
what runs and never flags live code.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ldpput"
PERFBENCH = ROOT / "perfbench"

# Names kept with no command path yet, each tagged with the ROADMAP item
# that gives it one; they are walked as roots.
ALLOWLIST = {
    "decision.mutual_information": 7,
    "decision.mutual_information_linear_coefficients": 7,
    "decision.f_divergence_utility": 7,
    "decision.f_divergence_linear_coefficients": 7,
    "ldp_geometry.dominating_maximal": 3,
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _library():
    """Per module: its top-level definitions and its import bindings.

    `defs[module][name]` is the defining node; `imports[module][local]`
    is `(source module, name)`, with name None for a module alias.
    """
    defs, imports, modules = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = modules[module] = _parse(path)
        defs[module], imports[module] = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[module][name.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        imports[module][local] = (alias.name, None)
                    else:
                        imports[module][local] = (node.module, alias.name)
    return defs, imports, modules


def _traced() -> list[str]:
    """The "module.function" keys of `TRACED` in perfbench/spans.py."""
    spans = _parse(PERFBENCH / "spans.py")
    table = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    return [key.value for key in table.keys]


def _perfbench_roots(defs) -> set[str]:
    """Library names that perfbench/ reads."""
    roots = set(_traced())
    for node in ast.walk(_parse(PERFBENCH / "spans.py")):
        # sys.modules["ldpput.linalg"].rank
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript) \
                and isinstance(node.value.slice, ast.Constant) \
                and str(node.value.slice.value).startswith("ldpput."):
            roots.add(f"{node.value.slice.value[len('ldpput.'):]}.{node.attr}")
    checks = _parse(PERFBENCH / "checks.py")
    used = [node for node in ast.walk(checks) if isinstance(node, ast.ImportFrom)
            and node.module == "ldpput"]
    imported = {alias.name for node in used for alias in node.names}
    attrs = {node.attr for node in ast.walk(checks) if isinstance(node, ast.Attribute)}
    roots.update(f"{module}.{name}" for module in imported for name in attrs
                 if name in defs[module])
    return roots


def _reached(extra_roots=()) -> tuple[set[str], set[str]]:
    """The reached top-level names, and all of them, as "module.name"."""
    defs, imports, modules = _library()
    seen: set[str] = set()
    todo = ["cli.main", *_perfbench_roots(defs), *extra_roots]

    def resolve(module: str, name: str) -> str | None:
        if name in defs[module]:
            return f"{module}.{name}"
        if name in imports[module]:
            source, original = imports[module][name]
            if original is not None:
                return resolve(source, original) if source in defs else None
        return None

    def mentions(module: str, nodes):
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    target = resolve(module, node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and imports[module].get(node.value.id, ("", ""))[1] is None:
                    target = resolve(imports[module][node.value.id][0], node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    for alias in node.names:
                        todo.append(f"{node.module}.{alias.name}")
                    continue
                else:
                    continue
                if target is not None:
                    todo.append(target)

    for module, tree in modules.items():
        mentions(module, [node for node in tree.body
                          if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                                   ast.Import, ast.ImportFrom))])
        mentions(module, [dec for node in tree.body
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          for dec in node.decorator_list])
    while todo:
        key = todo.pop()
        module, _, name = key.partition(".")
        key = resolve(module, name) if module in defs else None
        if key is None or key in seen:
            continue
        seen.add(key)
        module, _, name = key.partition(".")
        mentions(module, [defs[module][name]])
    names = {f"{module}.{name}" for module in defs for name in defs[module]
             if not (name.startswith("__") and name.endswith("__"))}
    return seen, names


def test_every_top_level_name_is_reached():
    seen, names = _reached(ALLOWLIST)
    assert sorted(names - seen) == []


def test_allowlist_names_have_no_command_path_yet():
    seen, names = _reached()
    assert set(ALLOWLIST) <= names
    assert sorted(set(ALLOWLIST) & seen) == []


def test_traced_names_resolve():
    for key in _traced():
        module, _, name = key.partition(".")
        assert callable(getattr(importlib.import_module(f"ldpput.{module}"), name)), key
