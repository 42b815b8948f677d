"""The package resolves its public names lazily and commands load only what they use."""

import ast
import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType
from unittest import mock

import pytest

import dflab
from dflab import cli
from test_golden import CASES, GOLDEN_DIR, run_case

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
SUBMODULES = ("core", "equation", "bounds", "abc_triples", "formulas")
# the golden cases that read no table: the closed forms, and verify thm24,
# which builds its own runs of smooth integers
CLOSED_FORM_CASES = {
    "bound-thm12ii", "bound-ineq3", "verify-known-factorials", "verify-val2", "verify-thm24"
}
# the package modules each module imports: core and formulas are the base,
# equation, bounds and abc_triples sit on them, and only cli reaches them all
LAYERS = {
    "__init__": set(),
    "__main__": {"cli"},
    "core": set(),
    "formulas": set(),
    "equation": {"core"},
    "bounds": {"core", "formulas"},
    "abc_triples": {"core", "formulas"},
    "cli": {"core", "formulas", "equation", "bounds", "abc_triples"},
}


def test_public_names_are_the_defining_modules_objects():
    assert len(dflab.__all__) == len(set(dflab.__all__)) == 51
    for name in dflab.__all__:
        home = importlib.import_module(f"dflab.{dflab._HOME[name]}")
        assert getattr(dflab, name) is getattr(home, name), name
    assert set(dflab.__all__) <= set(dir(dflab))


def test_every_public_name_has_one_home():
    homes = {}
    for name in SUBMODULES + ("cli",):
        mod = importlib.import_module(f"dflab.{name}")
        for attr in mod.__all__:
            homes.setdefault(attr, []).append(name)
            obj = getattr(mod, attr)
            if isinstance(obj, (FunctionType, type)):
                assert obj.__module__ == mod.__name__, (attr, name)
    assert {attr: found for attr, found in homes.items() if len(found) > 1} == {}
    # dflab files each name under the module whose __all__ lists it
    assert {name: homes.get(name) for name, home in dflab._HOME.items() if homes.get(name) != [home]} == {}


def test_modules_import_in_layers():
    graph = {}
    for path in sorted((Path(SRC_DIR) / "dflab").glob("*.py")):
        edges = set()
        # every import statement, function-level ones included
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                edges |= {node.module} if node.module else {alias.name for alias in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):  # never dflab by its absolute name
                assert "dflab" not in ast.unparse(node), (path.name, ast.unparse(node))
        graph[path.stem] = edges
    # cli reads the library functions its rows name from their homes as it
    # runs, through importlib, so no import statement names those homes
    graph["cli"] |= {dflab._HOME[name] for name in _row_functions() if name in dflab._HOME}
    assert graph == LAYERS


def _row_functions() -> set:
    """The name of every function a COMMANDS row calls."""
    return {command.call.split()[0] for command in cli.COMMANDS.values()}


def test_each_row_calls_a_function_with_its_own_flags_and_table():
    for path, command in cli.COMMANDS.items():
        name, *params = command.call.split()
        home = dflab._HOME.get(name)
        fn = getattr(importlib.import_module(f"dflab.{home}") if home else cli, name)
        # _read's namespace holds only the leaf's own flags and the shared ones
        flags = {flag[2:].replace("-", "_") for names, *_ in cli._specs(command.flags) for flag in names}
        assert set(params) <= flags | {"table"}, path
        inspect.signature(fn).bind(*params)


# the public functions no golden command calls, each with the reason it stays
NOT_RUN_BY_A_COMMAND = {
    "bounds.valuation2_block_bound_check": "acceptance criterion C07 checks the single block",
}


def test_every_public_function_is_run_by_a_command(tmp_path):
    functions = {}
    for name in SUBMODULES:
        mod = importlib.import_module(f"dflab.{name}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                functions[obj.__code__] = f"{name}.{attr}"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for case in CASES:
            run_case(case, "jsonl", tmp_path)
    finally:
        sys.setprofile(None)
    never = {label for code, label in functions.items() if code not in called}
    assert never == set(NOT_RUN_BY_A_COMMAND)


# the leaves that run the search, and so read --node-budget
SEARCHING = {"search", "verify lemma22", "verify lemma23"}
# the leaves that read no table (test_only_closed_forms_never_ask_for_the_table)
NO_TABLE = {"bound thm12ii", "bound ineq3", "verify known-factorials", "verify val2", "verify thm24"}
# the flags a leaf accepts but does not read: each flag, the leaves, and why it stays
ACCEPTED_NOT_READ = {
    "--threads": (set(cli.COMMANDS), "ROADMAP items 6 and 9 decide it; the bench records what 0 resolves to"),
    "--sieve-limit": (NO_TABLE, "the bench's cli-short set-up runs verify known-factorials with it"),
    "--cache-dir": (NO_TABLE, "goes with --sieve-limit once the bench set-up no longer passes that"),
}


def test_each_leaf_accepts_the_flags_it_reads_and_the_allowed_rest():
    for path, command in cli.COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(path.split() + ["--help"]) == 0
        accepted = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out.getvalue())) - {"--help"}
        own = {flag for key in command.flags for flag in (key if isinstance(key, tuple) else (key,))}
        table = set() if path in NO_TABLE else {"--sieve-limit", "--cache-dir"}
        unread = accepted - own - table - {"--format"}
        assert unread == {flag for flag, (leaves, _) in ACCEPTED_NOT_READ.items() if path in leaves}, path
        assert own | table <= accepted, path
        assert ("--node-budget" in accepted) == (path in SEARCHING), path
        assert "--max-n" not in accepted, path


# the handlers that raise, each with the reason: an argument the leaf does not
# take is its parser's error and a value out of domain the library's, so a
# handler that checks either again keeps a second copy of that rule
HANDLERS_THAT_RAISE = {}


def test_no_handler_checks_its_arguments():
    # the handlers are _call, which runs every row, and the cli functions rows name
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    own = _row_functions() - set(dflab._HOME)
    assert own <= set(functions) and not any(name.startswith("_cmd_") for name in functions)
    handlers = {name: functions[name] for name in own | {"_call"}}
    assert len(own) <= 9
    raising = {name for name, node in handlers.items() if any(isinstance(n, ast.Raise) for n in ast.walk(node))}
    assert raising == set(HANDLERS_THAT_RAISE)
    # nor builds a payload: each returns library results, and _record makes their records
    dicts = (ast.Dict, ast.DictComp)
    assert {name for name, node in handlers.items() if any(isinstance(n, dicts) for n in ast.walk(node))} == set()


def test_only_record_constructs_output_records():
    tree = ast.parse(Path(cli.__file__).read_text())
    assert list(_scopes_constructing(tree, "OutputRecord", "cli")) == ["cli._record"]


def test_commands_call_what_the_home_module_holds_when_they_run(tmp_path, monkeypatch):
    # patched as bench/tracing.py wraps them, at the home module's attribute,
    # after the package has resolved (and cached) one of them
    from dflab import abc_triples, core
    assert dflab.analyze_block is core.analyze_block
    called = []
    for module, name in ((core, "analyze_block"), (abc_triples, "make_triple")):
        def spy(*args, _real=getattr(module, name), _name=name):
            called.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, spy)
    for case in ("block-analyze", "abc-triple"):
        _, out = run_case(case, "jsonl", tmp_path)
        assert out.encode() == (GOLDEN_DIR / f"{case}.jsonl").read_bytes()
    assert called == ["analyze_block", "make_triple"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dflab.no_such_name
    assert not hasattr(dflab, "__no_such_dunder__")


def test_import_loads_no_submodule_and_no_numpy():
    script = (
        "import sys, dflab; "
        "print(sorted(m for m in sys.modules if m.startswith(('dflab', 'numpy'))))"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "['dflab']\n"


def test_no_module_and_no_dependency_names_numpy():
    tomllib = pytest.importorskip("tomllib")
    modules = sorted((Path(SRC_DIR) / "dflab").glob("*.py"))
    assert modules and [p.name for p in modules if "numpy" in p.read_text()] == []
    with open(Path(SRC_DIR).parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    deps = project["dependencies"] + [
        dep for extra in project.get("optional-dependencies", {}).values() for dep in extra
    ]
    assert [dep for dep in deps if "numpy" in dep] == []


def _leaf(argv) -> str:
    """The COMMANDS path argv names."""
    return next(path for path in cli.COMMANDS if argv[: path.count(" ") + 1] == path.split())


def test_only_closed_forms_never_ask_for_the_table(tmp_path):
    asked = set()
    real_upto = cli._TableOnDemand.upto

    def spy(table, hi, what=None):
        asked.add(leaf)
        return real_upto(table, hi, what)

    with mock.patch.object(cli._TableOnDemand, "upto", spy):
        for name, argv in CASES.items():
            leaf = _leaf(argv)
            run_case(name, "jsonl", tmp_path)
    assert {_leaf(argv) for argv in CASES.values()} == set(cli.COMMANDS)
    assert set(cli.COMMANDS) - asked == NO_TABLE


def _scopes_constructing(node, name: str, scope: str):
    """The dotted scope of every call of name under node, node's own scope being scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _scopes_constructing(child, name, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func) == name:
            yield scope
        yield from _scopes_constructing(child, name, scope)


def test_sieve_range_error_has_one_home_and_commands_declare_no_needs():
    raised = []
    for path in sorted((Path(SRC_DIR) / "dflab").glob("*.py")):
        raised += _scopes_constructing(ast.parse(path.read_text()), "SieveRangeError", path.stem)
    assert raised == ["core.PrimeTable.upto"]
    assert cli.Command._fields == ("call", "flags")


@pytest.mark.parametrize("name", sorted(CASES))
def test_only_closed_form_commands_leave_the_cache_empty(name, tmp_path):
    # every golden case needs a table small enough to sieve in memory
    run_case(name, "jsonl", tmp_path / "small")
    assert not (tmp_path / "small").exists()
    # with no need below the in-memory bound, every command but those with no
    # need reads its table through the cache, with the same output
    cache = tmp_path / "cache"
    with mock.patch.object(cli, "_IN_MEMORY_MAX", 1):
        _, out = run_case(name, "jsonl", cache)
    assert out.encode() == (GOLDEN_DIR / f"{name}.jsonl").read_bytes()
    empty = not cache.exists() or not any(cache.iterdir())
    assert empty == (name in CLOSED_FORM_CASES)
