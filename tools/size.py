"""Size ledger of the ``xlab`` package: its lines, its names and what a caller can set.

    python tools/size.py [checkout]

Walks the syntax trees of ``src/xlab``, ``perfbench``, ``tools`` and ``tests`` in the
checkout (by default the one this script sits in) and prints one ``key: value`` line
per key, the names it counts after the number:

- ``src_lines``: lines of the ``src/xlab`` modules;
- ``public_names``: top-level functions, classes and assigned names of those modules
  that do not start with ``_``;
- ``test_only_names``: the public names that only ``tests/`` reach;
- ``unreached_names``: the public names that nothing reaches;
- ``settable_values``: the fields of public dataclasses plus the defaulted parameters
  of public functions and of public classes' public methods;
- ``scalar_parameters``: the parameters of public functions and of public classes'
  ``__init__`` and public methods annotated ``int``, ``float``, ``str`` or ``bool``,
  alone or ``| None``, which the argument rule of ``xlab.util`` checks;
- ``noqa_alias_lines``: ``src`` lines that carry a ``noqa`` or bind a second name to
  a top-level class or function of the same module.

A file reaches a name when it imports it, reads it as an attribute, or names it in a
dotted string (as ``perfbench`` names the functions it traces); a module also reaches
the names it reads itself.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

DOTTED = re.compile(r"[A-Za-z_][\w.]*")
SCALARS = ("int", "float", "str", "bool")


def _public_defs(tree: ast.Module) -> dict[str, ast.stmt]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((n, node) for n in names if not n.startswith("_"))
    return out


def _reached(tree: ast.Module, own_module: bool) -> set[str]:
    """The names ``tree`` imports, reads as attributes or names in dotted strings, and,
    in a name's own module, reads."""
    docstrings = {id(scope.body[0].value) for scope in ast.walk(tree)
                  if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and scope.body and isinstance(scope.body[0], ast.Expr)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Name) and own_module and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _methods(node: ast.ClassDef) -> list[ast.FunctionDef]:
    """A class's ``__init__`` and public methods."""
    return [s for s in node.body if isinstance(s, ast.FunctionDef)
            and (s.name == "__init__" or not s.name.startswith("_"))]


def _settable(name: str, node: ast.stmt) -> list[str]:
    if isinstance(node, ast.FunctionDef):
        args = node.args
        defaulted = args.posonlyargs + args.args
        out = [a.arg for a in defaulted[len(defaulted) - len(args.defaults):]]
        out += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        return [f"{name}({a})" for a in out]
    if not isinstance(node, ast.ClassDef):
        return []
    out = []
    if _is_dataclass(node):
        out += [f"{name}.{s.target.id}" for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                and "ClassVar" not in ast.unparse(s.annotation)]
    for s in _methods(node):
        out += _settable(f"{name}.{s.name}", s)
    return out


def _is_scalar(annotation: ast.expr | None) -> bool:
    """Whether an annotation reads ``int``, ``float``, ``str`` or ``bool``, alone or
    ``| None``."""
    kinds = ast.unparse(annotation).split(" | ") if annotation else [""]
    return kinds[0] in SCALARS and kinds[1:] in ([], ["None"])


def _scalar_parameters(name: str, node: ast.stmt) -> list[str]:
    if isinstance(node, ast.ClassDef):
        return [p for s in _methods(node) for p in _scalar_parameters(f"{name}.{s.name}", s)]
    if not isinstance(node, ast.FunctionDef):
        return []
    args = node.args
    return [f"{name}({a.arg})" for a in args.posonlyargs + args.args + args.kwonlyargs
            if _is_scalar(a.annotation)]


def ledger(root: Path) -> dict[str, list[str] | int]:
    src = sorted((root / "src" / "xlab").glob("*.py"))
    others = {part: sorted((root / part).rglob("*.py")) for part in ("perfbench", "tools", "tests")}
    texts = {p: p.read_text() for p in src + sum(others.values(), [])}
    trees = {p: ast.parse(text, str(p)) for p, text in texts.items()}
    public, settable, scalar, flagged = [], [], [], []
    for p in src:
        defs = _public_defs(trees[p])
        public += [(p, n) for n in defs]
        settable += [s for n, node in defs.items() for s in _settable(f"{p.stem}.{n}", node)]
        scalar += [s for n, node in defs.items()
                   for s in _scalar_parameters(f"{p.stem}.{n}", node)]
        top = {n.name for n in trees[p].body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        flagged += [(p.stem, node.lineno) for node in trees[p].body
                    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                    and node.value.id in top]
        flagged += [(p.stem, i) for i, line in enumerate(texts[p].splitlines(), 1)
                    if "noqa" in line]
    own = {p: _reached(trees[p], own_module=True) for p in src}
    imported = {p: _reached(trees[p], own_module=False) for p in src}
    outside = {part: set().union(*(_reached(trees[p], own_module=False) for p in paths))
               for part, paths in others.items()}
    test_only, unreached = [], []
    for p, name in public:
        if name in own[p] or name in outside["perfbench"] | outside["tools"] or any(
                name in imported[q] for q in src if q != p):
            continue
        (test_only if name in outside["tests"] else unreached).append(f"{p.stem}.{name}")
    return {
        "src_lines": sum(len(texts[p].splitlines()) for p in src),
        "public_names": [f"{p.stem}.{n}" for p, n in public],
        "test_only_names": test_only,
        "unreached_names": unreached,
        "settable_values": settable,
        "scalar_parameters": scalar,
        "noqa_alias_lines": [f"{stem}:{line}" for stem, line in sorted(flagged)],
    }


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for key, value in ledger(root).items():
        print(f"{key}: {value}" if isinstance(value, int)
              else f"{key}: {len(value)} {' '.join(value)}".rstrip())


if __name__ == "__main__":
    main(sys.argv[1:])
