"""Layering rules over the package source, checked with ``ast``, and what
importing the package and the adapter loads, checked in a fresh interpreter."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import coopcache

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coopcache"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

ENVIRONMENT = ("core", "interface", "traffic", "episode")
UPPER = {"policies", "harness", "dataset", "reward", "verification", "cli"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules ``tree`` imports from, relative or absolute."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("coopcache." if node.level else "") + (node.module or "")
            dotted += [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("coopcache.")}


def _enclosing(tree: ast.Module, found) -> list[str | None]:
    """The innermost enclosing function of each node for which ``found(node)`` holds."""
    places = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if found(child):
                places.append(where)
            visit(child, where)

    visit(tree, None)
    return places


def _callers(tree: ast.Module, call: str) -> list[str | None]:
    """The innermost enclosing function of each ``call(...)``, such as ``json.load``."""
    return _enclosing(tree, lambda node: isinstance(node, ast.Call)
                      and ast.unparse(node.func) == call)


def _raisers(text: str) -> list[tuple[str, str | None]]:
    """``(module, function)`` of each ``raise`` in the package whose source holds ``text``."""
    return [(path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
            for where in _enclosing(_tree(path), lambda node: isinstance(node, ast.Raise)
                                    and text in ast.unparse(node))]


@pytest.mark.parametrize("module", ENVIRONMENT)
def test_the_environment_layer_imports_no_upper_layer(module):
    assert _package_imports(_tree(PACKAGE / f"{module}.py")) & UPPER == set()


def test_the_frame_module_imports_only_the_standard_library():
    """An adapter needs only ``frames``, so it must start without numpy or the
    environment: no package module and no third-party module."""
    tree = _tree(PACKAGE / "frames.py")
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [("." * node.level) + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == []


def test_the_package_loads_no_module_and_the_adapter_no_numpy():
    """``import coopcache`` loads no submodule, and the adapter, which loads
    the package too when run with ``-m``, starts without numpy."""
    probe = ("import sys\n"
             "import coopcache\n"
             "print(sorted(m for m in sys.modules if m.startswith('coopcache.')))\n"
             "import coopcache.extern_stub\n"
             "print('numpy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)  # conftest puts src on PYTHONPATH
    assert done.stdout == "[]\nFalse\n"


def test_every_package_name_is_its_defining_modules_own_object():
    """Each name ``coopcache`` exports is the object of the one module whose top
    level binds it other than by import."""
    defined = {path.stem: {name for name, node in _bound_names(_tree(path)).items()
                           if not isinstance(node, (ast.Import, ast.ImportFrom))}
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    assert "build_instance" in coopcache.__all__ and "traffic" not in coopcache.__all__
    for name in coopcache.__all__:
        homes = [module for module, names in defined.items() if name in names]
        assert len(homes) == 1, (name, homes)
        module = importlib.import_module(f"coopcache.{homes[0]}")
        assert getattr(coopcache, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        coopcache.no_such_name  # noqa: B018


def test_json_input_is_read_only_by_core_read_json():
    """Files go through ``read_json``; only the dataset audit parses JSONL lines itself."""
    readers = [(path.stem, call, caller) for path in sorted(PACKAGE.glob("*.py"))
               for call in ("json.load", "json.loads") for caller in _callers(_tree(path), call)]
    assert readers == [("core", "json.load", "read_json"),
                       ("dataset", "json.loads", "audit_dataset")]


def test_output_directories_are_made_only_by_core_make_out_dir():
    makers = [(path.stem, caller) for path in sorted(PACKAGE.glob("*.py"))
              for caller in _callers(_tree(path), "os.makedirs")]
    assert makers == [("core", "make_out_dir")]


def test_csv_tables_are_written_only_by_harness_write_csv():
    writers = [(path.stem, caller) for path in sorted(PACKAGE.glob("*.py"))
               for caller in _callers(_tree(path), "csv.writer")]
    assert writers == [("harness", "_write_csv")]


def test_the_per_bs_oracle_is_called_only_by_the_joint_oracle_and_the_warm_up():
    """``warm_start`` asks one BS at a time, as BS b+1 must see BS b's swap;
    every other look-ahead decision goes through ``core.oracle_joint_action``."""
    callers = [(path.stem, caller) for path in sorted(PACKAGE.glob("*.py"))
               for caller in _callers(_tree(path), "oracle_best_action")]
    assert callers == [("core", "oracle_joint_action"), ("traffic", "warm_start")]


def test_harness_builds_warms_and_rolls_only_in_evaluate():
    """``run`` and ``sweep`` share ``_evaluate``, the one loop that draws each
    topology, builds, warms and rolls; a second caller is a second loop."""
    tree = _tree(PACKAGE / "harness.py")
    calls = ("draw_graph", "build_instance", "warm_start", "rollout")
    assert {call: _callers(tree, call) for call in calls} == dict.fromkeys(calls, ["_evaluate"])


def test_reward_scores_only_in_its_one_pass():
    """``score_group``, ``score_completion`` and ``verify_pbrs`` all score
    through ``reward._scored``; a second caller of a scoring step is a second copy."""
    tree = _tree(PACKAGE / "reward.py")
    steps = ("parse", "apply", "check_transition", "_breakdown")
    assert {call: _callers(tree, call) for call in steps} == dict.fromkeys(steps, ["_scored"])
    assert sorted(_callers(tree, "lookahead_values")) == ["_scored", "lookahead_value"]


@pytest.mark.parametrize("text", ["seeds repeat", "at least one seed", "instance file holds seed"])
def test_each_seed_rule_is_raised_in_one_function(text):
    """``traffic.check_seeds`` and ``traffic.load_seeded_instance`` hold the seed
    rules that every command asks before its first build; a raise elsewhere is a
    second copy. Each seed itself is a count, which ``core.check_count`` refuses."""
    home = "load_seeded_instance" if text.startswith("instance") else "check_seeds"
    assert _raisers(text) == [("traffic", home)]


def test_the_gamma_rule_is_raised_only_in_core_check_gamma():
    """``RewardConfig``, ``OraclePolicy`` and ``warm_start`` ask ``core.check_gamma``,
    which asks ``check_finite``; a raise elsewhere is a second copy."""
    assert _raisers("gamma must be") == [("core", "check_gamma")]


@pytest.mark.parametrize("text, home", [
    ("must be an integer >=", "check_count"),
    ("must be a finite number", "check_finite"),
    ("must be > 0", "check_positive"),
    # check_horizon words its refusal through check_count; check_peek, asked on
    # every oracle question, keeps its own plain comparison
    ("horizon must be", "check_peek"),
])
def test_each_number_rule_is_raised_only_in_its_core_function(text, home):
    """Every count, horizon, finite and positive setting asks its ``core`` rule;
    a raise of the rule's text elsewhere is a second copy."""
    assert _raisers(text) == [("core", home)]


@pytest.mark.parametrize("module", ["cli", "policies"])
def test_cli_and_policies_read_numbers_only_through_core(module):
    """Flags, config values, sweep values and ``oracle:<H>`` specs are text
    that ``core.integer`` and ``core.real`` read; a call of ``int`` or
    ``float``, or a flag typed by one, would take Python's wider syntax."""
    def reads(node) -> bool:
        return isinstance(node, ast.Call) and any(
            ast.unparse(value) in ("int", "float")
            for value in (node.func, *(k.value for k in node.keywords if k.arg == "type")))

    assert _enclosing(_tree(PACKAGE / f"{module}.py"), reads) == []


def test_run_leaves_its_out_dir_and_instance_file_to_evaluate():
    """``_evaluate`` checks the out dir once, then loads the instance file, so
    ``run`` asks neither itself."""
    tree = _tree(PACKAGE / "harness.py")
    assert "run" not in _callers(tree, "check_out_dir") + _callers(tree, "load_instance")
    assert _callers(tree, "check_out_dir") == _callers(tree, "load_seeded_instance") == [
        "_evaluate"]


def test_build_instance_places_users_only_through_draw_graph():
    """The topology stream is read only by ``draw_graph``, so the graph
    ``_evaluate`` checks first is the graph ``build_instance`` builds on."""
    tree = _tree(PACKAGE / "traffic.py")
    assert _callers(tree, "draw_graph") == ["build_instance"]
    assert _enclosing(tree, lambda node: isinstance(node, ast.Name)
                      and node.id == "_STREAM_TOPOLOGY" and isinstance(node.ctx, ast.Load)) == [
        "draw_graph"]
    assert _callers(tree, "AssociationGraph.build") == ["draw_graph", "_graph"]


def _reachable_names(tree: ast.Module, root: ast.AST) -> set[str]:
    """The names ``root`` reads, with those of each top-level function of
    ``tree`` that it names, and so on."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names, todo = set(), [root]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name) and node.id not in names:
                names.add(node.id)
                if node.id in functions:
                    todo.append(functions[node.id])
    return names


def test_a_trace_has_one_constructor_and_a_loaded_trace_one_id_check():
    """``traffic._trace`` builds the slots of every trace, drawn or loaded, and
    ``core.request_slot`` the slot of loose pairs; a second caller of
    ``slot_from_row`` is a second constructor. The loader reads a trace's ids
    once, through ``request_row``: not through ``request_slot`` or ``whole``."""
    callers = [(path.stem, caller) for path in sorted(PACKAGE.glob("*.py"))
               for caller in _callers(_tree(path), "slot_from_row")]
    assert callers == [("core", "request_slot"), ("traffic", "_trace")]
    tree = _tree(PACKAGE / "traffic.py")
    assert _callers(tree, "_trace") == ["build_instance", "instance_from_payload"]
    loader = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "instance_from_payload")
    read, = [node for node in ast.walk(loader) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "key" and ast.unparse(node.args[0]) == "'trace'"]
    names = _reachable_names(tree, read)
    assert "request_row" in names
    assert names & {"request_slot", "whole", "_wholes", "slot_from_row"} == set()


def test_the_peek_is_checked_only_by_core_check_peek():
    checkers = [(path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
                for where in _enclosing(_tree(path), lambda node: isinstance(node, ast.Constant)
                                        and "peek holds" in str(node.value))]
    assert checkers == [("core", "check_peek")]


def _pairs_reads(tree: ast.Module) -> list[str | None]:
    """The innermost enclosing function of each ``<expr>.pairs`` read."""
    return _enclosing(tree, lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "pairs" and isinstance(node.ctx, ast.Load))


def test_no_package_code_reads_a_slots_pairs():
    """``RequestSlot.pairs`` rebuilds a tuple per request on every read, for
    outside callers and tests; package code reads the slot's ``row``."""
    assert _pairs_reads(ast.parse("def f(s):\n    return [p for p in s.pairs]")) == ["f"]
    readers = [(path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
               for where in _pairs_reads(_tree(path))]
    assert readers == []


RULES = {"RULE_ADMISSIBILITY", "RULE_DUPLICATION", "RULE_CONSISTENCY"}
# the field holding the name a node mentions
_NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _rule_uses(tree: ast.Module) -> list[tuple[str, str]]:
    """(where, rule) for each mention of a feasibility rule constant: "import"
    for an import, else the name the enclosing top-level statement binds."""
    uses = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            where = "import"
        elif isinstance(stmt, ast.Assign):
            where = ast.unparse(stmt.targets[0])
        else:
            where = getattr(stmt, "name", type(stmt).__name__)
        for node in ast.walk(stmt):
            name = getattr(node, _NAME_FIELD.get(type(node), ""), None)
            if name in RULES:
                uses.append((where, name))
    return sorted(uses)


def test_the_swap_rules_live_in_core_and_interface_only_names_them():
    """``core.swap_fault`` checks the three rules for ``parse`` and ``apply``;
    another module naming a rule is the start of a second copy."""
    uses = {path.stem: _rule_uses(_tree(path)) for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "core"}
    expected = sorted([("import", r) for r in RULES] + [("PARSE_REASONS", r) for r in RULES])
    assert {module: found for module, found in uses.items() if found} == {"interface": expected}


def _bound_names(tree: ast.Module) -> dict[str, ast.AST]:
    """The names a module or class body binds at its own level: defs, classes,
    assignments and imports."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(((a.asname or a.name).split(".")[0], node) for a in node.names)
    return names


def _perfbench_bound_names() -> list[tuple[str, str]]:
    """(module, attribute path) of every name perfbench traces or imports from coopcache."""
    bound = []
    for node in _tree(PERFBENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            bound += [(module, path) for module, path, _span in ast.literal_eval(node.value)]
    for node in ast.walk(_tree(PERFBENCH / "workloads.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coopcache."):
            bound += [(node.module.split(".")[1], alias.name) for alias in node.names]
    return bound


def _class_attribute(node, name: str, top: dict):
    """``name`` on the class ``node`` or, as Python looks it up, on a base
    class the same module defines; None when neither binds it."""
    if not isinstance(node, ast.ClassDef):
        return None
    found = _bound_names(node).get(name)
    for base in node.bases:
        if found is None and isinstance(base, ast.Name):
            found = _class_attribute(top.get(base.id), name, top)
    return found


def test_every_perfbench_bound_name_resolves_in_the_package():
    """perfbench patches or imports these names; renaming or deleting one
    fails the benchmark run, so it fails here first."""
    bound = _perfbench_bound_names()
    assert ("policies", "LruPolicy.decide") in bound  # read from tracing.py
    assert ("traffic", "InstanceConfig") in bound  # read from workloads.py
    missing = []
    for module, path in bound:
        top = _bound_names(_tree(PACKAGE / f"{module}.py"))
        first, *rest = path.split(".")
        node = top.get(first)
        for part in rest:
            node = _class_attribute(node, part, top)
        if node is None:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_built_in_policies_name_neither_serialize_nor_parse():
    """The built-in controllers answer with the ``JointAction`` they build, and
    the rollout applies it as it is; only the extern adapter's text goes
    through the grammar."""
    classes = {node.name: node for node in _tree(PACKAGE / "policies.py").body
               if isinstance(node, ast.ClassDef)}

    def is_policy(node) -> bool:
        return node.name == "Policy" or any(
            isinstance(base, ast.Name) and base.id in classes and is_policy(classes[base.id])
            for base in node.bases)

    built_in = sorted(name for name, node in classes.items()
                      if is_policy(node) and name != "ExternPolicy")
    assert {"NoopPolicy", "LruPolicy", "LfuPolicy", "FifoPolicy", "OraclePolicy"} < set(built_in)
    named = sorted((name, word) for name in built_in for node in ast.walk(classes[name])
                   if (word := getattr(node, "id", None) or getattr(node, "attr", None))
                   in ("serialize", "parse"))
    assert named == []


LOOKAHEAD = {"horizon", "gamma", "oracle_horizon", "oracle_gamma"}


def _number(node) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:  # a name, a call: anything but a literal
        return False
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _literal_lookahead_defaults(tree: ast.Module) -> list[str]:
    """``name=default`` for each parameter or class field named in LOOKAHEAD
    whose default is a literal number, sorted."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            pairs += [(arg.arg, default) for arg, default in
                      zip(positional[len(positional) - len(node.defaults):], node.defaults)]
            pairs += [(arg.arg, default) for arg, default in zip(node.kwonlyargs, node.kw_defaults)]
        elif isinstance(node, ast.ClassDef):
            pairs += [(stmt.target.id, stmt.value) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return sorted(f"{name}={ast.unparse(default)}" for name, default in pairs
                  if name in LOOKAHEAD and default is not None and _number(default))


def test_the_expert_lookahead_defaults_are_named_only_in_core():
    """``core.EXPERT_HORIZON`` and ``EXPERT_GAMMA`` are the one copy of the
    expert's look-ahead; a literal default elsewhere is the start of a second."""
    sample = ("def f(horizon=10, *, gamma=-0.9, oracle_gamma=G): pass\n"
              "class C:\n    oracle_horizon: int = 1\n    lambda_fmt: float = -1.0")
    assert _literal_lookahead_defaults(ast.parse(sample)) == [
        "gamma=-0.9", "horizon=10", "oracle_horizon=1"]
    found = {path.stem: _literal_lookahead_defaults(_tree(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "core"}
    assert {module: names for module, names in found.items() if names} == {}
