"""Guards on the package source itself, read as syntax trees."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "votemanip"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each module-level private def, class or assigned name, with the
    statement that defines it."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.append((stmt.name, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found += [(node.id, stmt) for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)]
    return [(name, stmt) for name, stmt in found if _private(name)]


def names_read(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, as a name or as an attribute."""
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_private_module_name_is_read_outside_its_definition():
    # A private helper left behind once its last caller is gone is read
    # nowhere but in itself.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    statements = [(module, stmt, names_read(stmt))
                  for module, tree in trees.items() for stmt in tree.body]
    definitions = [(module, name, stmt) for module, tree in trees.items()
                   for name, stmt in private_definitions(tree)]
    assert len(definitions) > 50  # the package source was found and parsed
    unread = [f"{module}: {name}" for module, name, own in definitions
              if not any(name in read for _, stmt, read in statements if stmt is not own)]
    assert not unread


def test_every_method_of_a_private_class_is_read_outside_its_body():
    # A method left behind once its last caller is gone is read nowhere but
    # in itself; a public class's methods are the package's interface.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    classes = [(module, stmt) for module, tree in trees.items() for stmt in tree.body
               if isinstance(stmt, ast.ClassDef) and _private(stmt.name)]
    assert {"_Colex", "_Orbits", "_ClassKernel", "_Outcomes", "_Counts", "_Switched"} <= {
        cls.name for _, cls in classes}
    unread = []
    for module, cls in classes:
        # every statement of the package but the class, and the class's own
        # statements but the method
        rest = [names_read(stmt) for tree in trees.values() for stmt in tree.body
                if stmt is not cls]
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                continue
            reads = rest + [names_read(stmt) for stmt in cls.body if stmt is not method]
            if not any(method.name in read for read in reads):
                unread.append(f"{module}: {cls.name}.{method.name}")
    assert not unread


def test_only_rows_reads_the_block_size():
    # Each pass bounded by ``methods.BLOCK_CELLS`` states its cells per row
    # and takes its rows from ``methods._rows``, or its slices from
    # ``methods._runs``, so that the block size is decided in one place.
    readers = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):  # an import of the name
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name == "BLOCK_CELLS":
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                readers.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert readers == ["methods._rows"]


def test_a_census_never_calls_a_scalar_method():
    # The census scores methods through their batched forms alone: each
    # ``.fn`` it reads is the base of one of the marks below, read as an
    # attribute or through ``hasattr``/``getattr``, and never called or
    # passed on, so that no row-by-row fallback can return unseen.
    marks = {"on_counts", "voter", "neutral", "pairwise"}
    tree = ast.parse((SOURCE / "census.py").read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "fn"]

    def marked(node: ast.Attribute) -> bool:
        parent = parents[node]
        if isinstance(parent, ast.Attribute):
            return parent.attr in marks
        return (isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name)
                and parent.func.id in ("hasattr", "getattr") and parent.args[0] is node
                and isinstance(parent.args[1], ast.Constant) and parent.args[1].value in marks)

    assert len(reads) >= 4  # the census's reads of the marks were found
    assert [node.lineno for node in reads if not marked(node)] == []


def test_a_census_loads_only_what_it_runs():
    # ``votemanip`` imports a submodule when one of its names is first read,
    # and the writers and weighted sets import what only they need.
    unused = ("votemanip.verify", "votemanip.fixtures", "votemanip.pscf",
              "json", "csv", "fractions", "decimal", "string")
    code = (
        "import sys\n"
        "import votemanip.census\n"
        f"print(sorted(set({unused!r}) & set(sys.modules)))\n"
        "import votemanip\n"
        "print([name for name in votemanip.__all__ if not hasattr(votemanip, name)])\n"
        "from votemanip import *\n"
    )
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]"]


def compared_with_frame_names(tree: ast.Module) -> list[tuple[int, str]]:
    """Each string constant, with its line, that a comparison sets against
    a frame's ``f_code.co_name``: the function a test's spy looks for."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(isinstance(side, ast.Attribute) and side.attr == "co_name" for side in sides):
            continue
        found += [(leaf.lineno, leaf.value) for side in sides for leaf in ast.walk(side)
                  if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)]
    return found


def test_every_spied_frame_names_a_function_of_the_package():
    # A spy that waits for a frame of a function no longer defined never
    # fires, so the test it serves would pass without checking anything.
    defined = {node.name for path in SOURCE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    tests = Path(__file__).resolve().parent
    names = [(path.name, line, name) for path in sorted(tests.glob("test_*.py"))
             for line, name in compared_with_frame_names(ast.parse(path.read_text()))]
    assert names  # the spies were found
    assert [f"{file}:{line}: {name}" for file, line, name in names if name not in defined] == []
