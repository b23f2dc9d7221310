"""The package holds only what the program runs: no test-only public names."""

import ast
import io
import pathlib
import tokenize

import gpcq

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "gpcq"
CALLERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((REPO / "scripts").glob("*.py")),
    *sorted((REPO / "perfbench").glob("*.py")),
]


def _name_tokens(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, name) of each identifier token outside import statements.

    Tokenizing skips comments and strings, and an import alone is not a use.
    """
    source = path.read_text()
    import_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            import_lines.update(range(node.lineno, node.end_lineno + 1))
    return [
        (tok.start[0], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NAME and tok.start[0] not in import_lines
    ]


def _public_definitions(path: pathlib.Path):
    """(reported name, token, lines of its own definition) of each public name.

    The public names are the module-level ones and the public methods and
    properties of module-level classes; dunder methods are exempt.
    """
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, range(node.lineno, node.end_lineno + 1)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, range(item.lineno, item.end_lineno + 1)


def test_every_public_name_is_exported_or_used_by_the_program():
    tokens = {path: _name_tokens(path) for path in CALLERS}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, token, own_lines in _public_definitions(path):
            if name in gpcq.__all__:
                continue
            used = any(
                tok == token and (caller != path or line not in own_lines)
                for caller, found in tokens.items()
                for line, tok in found
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    assert unused == []
