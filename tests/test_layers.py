"""The checks in `typesys` and `srcsets` take the runs the harness
enumerates; only the entry points may depend on the harness.  The checks
classify runs by derivation, never by copy lineage, and ask for it only
through the memo of ``lineage.derivation``.  Every module states
its dependencies at its top, none inside a function.  `srcsets` reads
typings only through a `StartRuns`, and the entry points type no stack,
so the origin transfer's assumption sets are its own.  Saturation and
the goal space find drops only through the realizer index.  Only `core`
reads a collapse link by index.  Every function the benchmark's tracer
wraps is a function of the module it is named under.  No module or test
imports a name it does not use.  No module imports `dataclasses`, and
importing hopad loads neither it nor `inspect`.  The package's
`__init__` imports nothing, so importing a module loads just the modules
it imports, directly or through them.  The text formats live
in `text`, which imports only `core`, so each hand-built machine is
defined once, as text: `cli` defines no parser, and only the automaton
parser and the random machine generator build an `Automaton` or a
`Transition`, and only core's `pop`, `push` and `collapse` an `Op`."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import hopad

PACKAGE = pathlib.Path(hopad.__file__).parent


def imported_names(tree: ast.AST, module: str) -> set[str]:
    """The names imported from hopad's or the standard library's `module`,
    "*" for the module itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if source in (module, f"hopad.{module}"):
                names |= {a.name for a in node.names}
            elif source in ("", "hopad") and any(a.name == module for a in node.names):
                names.add("*")
        elif isinstance(node, ast.Import) and any(a.name in (module, f"hopad.{module}") for a in node.names):
            names.add("*")
    return names


def test_only_the_entry_points_import_the_harness():
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "harness.py" and imported_names(ast.parse(path.read_text()), "harness")
    }
    assert importers <= {"cli.py"}, sorted(importers)


def test_the_checks_use_only_the_derivations_of_lineage():
    # the derivation memo and its key have one owner, lineage.derivation;
    # the harness imports besides it only the definitions it tests it against
    allowed = {"derivation", "is_normalized", "DecompositionTree"}
    tested = {"instrument_lineage", "is_k_upper", "is_k_return", "remark_k_return", "classification_table"}
    for name, extra in (("typesys.py", set()), ("srcsets.py", set()), ("harness.py", tested)):
        used = imported_names(ast.parse((PACKAGE / name).read_text()), "lineage")
        assert used <= allowed | extra, (name, sorted(used - allowed - extra))


def function_local_imports(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_no_module_imports_inside_a_function():
    found = {
        path.name: lines
        for path in PACKAGE.glob("*.py")
        if (lines := function_local_imports(ast.parse(path.read_text())))
    }
    assert not found, found


def test_srcsets_reads_typings_only_through_start_runs():
    tree = ast.parse((PACKAGE / "srcsets.py").read_text())
    used = imported_names(tree, "typesys")
    assert not used & {"*", "stack_typing", "type_of_stack"}, sorted(used)
    builds = [
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, (ast.Name, ast.Attribute))
        and (call.func.id if isinstance(call.func, ast.Name) else call.func.attr) == "StackTyping"
    ]
    assert not builds, builds


def test_the_entry_points_type_no_stack():
    # the final typing the origin transfer assumes is worked out in srcsets
    typers = {"typing", "type_of_stack", "stack_typing"}
    found = [
        f"{name}:{call.lineno}"
        for name in ("harness.py", "cli.py")
        for call in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(call, ast.Call)
        and (call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)) in typers
    ]
    assert not found, found


def test_every_traced_function_exists():
    # the benchmark's tracer wraps these by name and reports them under
    # it; a rename, or a name that only re-exports another module's
    # function or is a class, must fail here
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{function}"
        for module, function in tracer.TRACED
        if not inspect.isfunction(fn := getattr(importlib.import_module(f"hopad.{module}"), function, None))
        or fn.__module__ != f"hopad.{module}"
    ]
    assert tracer.TRACED and not missing, missing


def functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def drop_calls(node: ast.AST) -> int:
    return sum(
        isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "drop"
        for call in ast.walk(node)
    )


def test_drops_are_found_through_the_realizer_index():
    # rules 1a/1b and the goal space ask `Universe.realizers`; only the
    # promotion of one typing descriptor and the composer oracle drop
    # on their own
    callers, outside = set(), 0
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        outside += drop_calls(tree)
        for name, fn in functions(tree):
            if found := drop_calls(fn):
                callers.add(f"{path.stem}.{name}")
                outside -= found
    assert callers == {
        "typesys.Universe.realizers", "typesys.combine_types", "typesys.check_composer"
    }, sorted(callers)
    assert outside == 0, "a drop outside every function and method"


def test_only_core_indexes_collapse_links():
    # lineage follows the recorded step; it never reads a link itself
    found = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "links"
    ]
    assert not found, found


def unused_imports(tree: ast.Module) -> list[str]:
    """The names `tree` imports, outside `__future__`, that no name in it uses."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def test_no_module_or_test_imports_a_name_it_does_not_use():
    paths = [*PACKAGE.glob("*.py"), *pathlib.Path(__file__).parent.glob("*.py")]
    found = {path.name: names for path in paths if (names := unused_imports(ast.parse(path.read_text())))}
    assert not found, found


# public definitions kept for the tests: the tuple model's bridge, the
# inverse of `spine`, and two oracles
KEPT_FOR_THE_TESTS = {"from_nested", "to_nested", "recompose", "replay", "check_composer"}


def test_every_public_definition_has_a_use_in_the_package():
    # a use is a name read by another definition or statement at module
    # level; a definition that only calls itself has none
    uses: dict[str, set] = {}
    public = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for name in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
                uses.setdefault(name, set()).add((path.stem, node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((path.stem, node))
    unused = sorted(
        f"{module}.{node.name}"
        for module, node in public
        if not uses.get(node.name, set()) - {(module, node)}
    )
    # exactly the kept names: one that gains a use in the package leaves the list
    assert {name.split(".")[1] for name in unused} == KEPT_FOR_THE_TESTS, unused


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, and each decorator
    # execs the methods it makes: records are named tuples or slotted classes
    found = [
        path.name
        for path in PACKAGE.glob("*.py")
        if imported_names(ast.parse(path.read_text()), "dataclasses")
    ]
    assert not found, found


def fresh_interpreter(code: str, *args: str) -> subprocess.Popen:
    """A new Python process running `code` with hopad on its path."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE, text=True,
    )


def printed(process: subprocess.Popen) -> list[str]:
    out = process.communicate(timeout=60)[0]
    assert process.returncode == 0, out
    return out.split()


def test_importing_hopad_loads_neither_dataclasses_nor_inspect():
    # a fresh process, since this one has imported both already
    code = "import sys, hopad, hopad.cli; print(*{'dataclasses', 'inspect'} & set(sys.modules))"
    assert printed(fresh_interpreter(code)) == []


def hopad_sources(tree: ast.AST) -> set[str]:
    """The hopad modules `tree` imports from, "" for the package itself."""
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "hopad"):
            sources.add((node.module or "").removeprefix("hopad").lstrip("."))
        elif isinstance(node, ast.Import):
            sources |= {a.name.removeprefix("hopad").lstrip(".") for a in node.names if a.name.split(".")[0] == "hopad"}
    return sources


def test_the_text_formats_import_only_core():
    assert hopad_sources(ast.parse((PACKAGE / "text.py").read_text())) == {"core"}


def test_cli_defines_no_parser():
    # the formats are parsed in `text`, below every module that defines a machine
    found = [
        node.name
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.lstrip("_").startswith("parse_")
    ]
    assert not found, found


def builds(node: ast.AST, classes: tuple[str, ...]) -> int:
    return sum(
        isinstance(call, ast.Call)
        and (call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None))
        in classes
        for call in ast.walk(node)
    )


def builders(classes: tuple[str, ...]) -> tuple[set[str], int]:
    """The functions and methods of the package that call one of `classes`,
    and the number of such calls outside every function and method."""
    callers, outside = set(), 0
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        outside += builds(tree, classes)
        for name, fn in functions(tree):
            if found := builds(fn, classes):
                callers.add(f"{path.stem}.{name}")
                outside -= found
    return callers, outside


def test_only_the_parser_and_the_random_machines_build_automata():
    # a hand-built machine is a text that the parser reads
    callers, outside = builders(("Automaton", "Transition"))
    assert callers == {"text.parse_automaton_text", "harness.random_machine"}, sorted(callers)
    assert outside == 0, "an Automaton or a Transition built outside every function and method"


def test_only_the_three_constructors_build_operations():
    # the parser and the random machines ask core's pop, push and collapse
    callers, outside = builders(("Op",))
    assert callers == {"core.pop", "core.push", "core.collapse"}, sorted(callers)
    assert outside == 0, "an Op built outside every function and method"


def imported_closure(module: str) -> set[str]:
    """`module` and the hopad modules it imports, directly or through them."""
    seen, todo = set(), [module]
    while todo:
        if (name := todo.pop()) not in seen:
            seen.add(name)
            todo += hopad_sources(ast.parse((PACKAGE / f"{name}.py").read_text())) - {""}
    return seen


def test_importing_a_module_loads_only_the_modules_it_builds_on():
    # one fresh process per module, all started at once: the layers that
    # test_layers checks in source are the modules loaded at run time
    code = "import importlib, sys; importlib.import_module(sys.argv[1]); print(*sorted(sys.modules))"
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    started = {name: fresh_interpreter(code, name) for name in ["hopad"] + [f"hopad.{m}" for m in modules]}
    loaded = {name: [m for m in printed(p) if m.startswith("hopad.")] for name, p in started.items()}
    assert loaded == {
        "hopad": [],
        **{f"hopad.{m}": sorted(f"hopad.{x}" for x in imported_closure(m)) for m in modules},
    }
