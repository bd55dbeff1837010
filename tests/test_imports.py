"""Modules of the package use each other's public names only."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "radicalroots"


def private_imports(path: Path) -> list[str]:
    """``from .module import _name`` statements in one source file (dunder
    names such as ``__version__`` are public)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and not module.startswith("radicalroots"):
            continue
        found += [f"{path.name}: from {module} import {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_private_imports_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    assert [line for path in paths for line in private_imports(path)] == []


def test_private_import_is_detected(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("from .radical import emit, _text\n"
                      "from radicalroots.pipeline import _as_generators\n"
                      "from . import __version__\n"
                      "from __future__ import annotations\n")
    assert private_imports(source) == [
        "module.py: from .radical import _text",
        "module.py: from radicalroots.pipeline import _as_generators"]


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unused_exports(package: Path) -> list[str]:
    """Functions in a module's ``__all__`` that no other module of the
    package imports and that the package's ``__all__`` does not re-export."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    reexported = set(_all_names(trees.pop("__init__")))
    imported = {(stem, node.module, alias.name)
                for stem, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    found = []
    for stem, tree in trees.items():
        functions = {node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        found += [f"{stem}.py: {name}" for name in _all_names(tree)
                  if name in functions and name not in reexported
                  and not any(module == stem and alias == name and by != stem
                              for by, module, alias in imported)]
    return found


def test_every_exported_function_has_a_caller_in_the_package():
    # cli.main is called by the console script that pyproject.toml declares
    assert unused_exports(SRC) == ["cli.py: main"]


def test_unused_export_is_detected(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .a import shown\n__all__ = ["shown"]\n')
    (tmp_path / "a.py").write_text(
        '__all__ = ["shown", "used", "unused", "Thing"]\n'
        "def shown(): pass\ndef used(): pass\ndef unused(): pass\n"
        "class Thing: pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n")
    assert unused_exports(tmp_path) == ["a.py: unused"]


def _parameter_names(args: ast.arguments) -> list[str]:
    """Names of a function's parameters other than ``*args``/``**kwargs``."""
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def unread_parameters(package: Path) -> list[str]:
    """Parameters, apart from ``self`` and ``cls``, that their function's
    body never reads."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = _parameter_names(args)
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            read = {name.id for stmt in node.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            found += [f"{path.name}: {node.name}({param})" for param in params
                      if param not in ("self", "cls") and param not in read]
    return found


def test_every_parameter_is_read():
    assert unread_parameters(SRC) == []


def test_unread_parameter_is_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, unused, *, key=None, **rest):\n"
        "    def inner(y):\n"
        "        return x + y + key\n"
        "    unused = 1\n"
        "    return inner(rest)\n"
        "class Thing:\n"
        "    def method(self, other):\n"
        "        return self\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return cls(n)\n")
    assert unread_parameters(tmp_path) == ["a.py: f(unused)",
                                           "a.py: method(other)"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def write_only_fields(package: Path, readers: list[Path]) -> list[str]:
    """Fields of the package's dataclasses that no file under ``readers``
    reads as an attribute."""
    read = {node.attr for root in readers for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{path.name}: {node.name}.{stmt.target.id}"
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)
                          and stmt.target.id not in read]
    return found


def test_every_dataclass_field_is_read():
    root = SRC.parent.parent
    assert write_only_fields(SRC, [SRC, root / "tests", root / "perfbench"]) == []


def test_write_only_field_is_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    shown: int\n"
        "    stored: int\n"
        "@dataclass\n"
        "class Counter:\n"
        "    count: int = 0\n"
        "    def add(self):\n"
        "        self.count += 1\n"
        "class Plain:\n"
        "    ignored: int\n")
    (tmp_path / "b.py").write_text(
        "def show(report, other):\n"
        "    other.stored = 1\n"
        "    return report.shown\n")
    assert write_only_fields(tmp_path, [tmp_path]) == [
        "a.py: Report.stored", "a.py: Counter.count"]


def id_uses(path: Path) -> list[str]:
    """Calls of ``id`` and passes of it, as in ``map(id, terms)``.  Nodes
    compare and hash by identity, so a memo keys by the node itself; an
    id-keyed memo would have to keep its nodes alive so that their ids are
    not reused."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Name) and node.id == "id"]


def test_radical_keys_its_memos_by_node():
    assert id_uses(SRC / "radical.py") == []


def test_id_use_is_detected(tmp_path):
    (tmp_path / "radical.py").write_text(
        "def walk(expr, memo):\n"
        "    if expr in memo:\n"
        "        return memo[expr]\n"
        "    memo[id(expr)] = (expr, expr.id)\n"
        "    return tuple(map(id, expr.terms))\n")
    assert id_uses(tmp_path / "radical.py") == ["radical.py:4", "radical.py:5"]


def self_naming_functions(path: Path) -> list[str]:
    """Functions whose body names the function itself, by a call or by
    passing it on as in ``_memo(_text, child, memo)``: each is a walker of
    its own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(name, ast.Name) and name.id == node.name
                for stmt in node.body for name in ast.walk(stmt)):
            found.append(f"{path.name}: {node.name}")
    return found


def test_radical_has_one_walker_of_the_expression_dag():
    # evaluation and the renderers are visit functions of _walk, which keeps
    # its own stack; parsing the JSON AST builds nodes, so it walks the
    # JSON, not the DAG
    assert self_naming_functions(SRC / "radical.py") == [
        "radical.py: _from_json_obj"]


def test_second_walker_is_detected(tmp_path):
    (tmp_path / "radical.py").write_text(
        "def _walk(visit, expr, memo):\n"
        "    return visit(expr, [_walk(visit, c, memo) for c in expr])\n"
        "def _memo(render, expr, memo):\n"
        "    return render(expr, memo)\n"
        "def _text(expr, memo):\n"
        "    return ''.join(_memo(_text, c, memo) for c in expr)\n"
        "def _depth(expr):\n"
        "    return 1 + max(map(_depth, expr), default=0)\n"
        "def _size(expr):\n"
        "    return _walk(lambda e, kids: 1 + sum(kids), expr, {})\n")
    assert self_naming_functions(tmp_path / "radical.py") == [
        "radical.py: _walk", "radical.py: _text", "radical.py: _depth"]


def digit_carriers(path: Path) -> list[str]:
    """Functions with a ``digits`` parameter, and dataclasses with a
    ``digits`` field.  What works from the roots' values computes at the
    caller's ``mp.dps`` instead; a record of the solve's budget derives it
    in a property."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "digits" in _parameter_names(node.args):
                found.append(f"{path.name}: {node.name}(digits)")
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f"{path.name}: {node.name}.digits" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)
                      and stmt.target.id == "digits"]
    return found


def test_the_transforms_and_expressions_carry_no_digit_budget():
    # root finding and the functions given a RootSet read a budget; the
    # forward and backward passes compute at the solve's working precision
    assert [line for name in ("resolvent.py", "radical.py")
            for line in digit_carriers(SRC / name)] == []


def test_digit_carrier_is_detected(tmp_path):
    (tmp_path / "radical.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Tensor:\n"
        "    data: tuple\n"
        "    digits: int\n"
        "@dataclass(frozen=True)\n"
        "class PrecisionPlan:\n"
        "    required_digits: int\n"
        "    @property\n"
        "    def digits(self):\n"
        "        return self.required_digits + 6\n"
        "class Cache:\n"
        "    def __init__(self, digits):\n"
        "        self.digits = digits\n"
        "def evaluate(expr, *, digits=None):\n"
        "    return expr\n"
        "def emit(expr, width):\n"
        "    return expr.digits\n")
    assert digit_carriers(tmp_path / "radical.py") == [
        "radical.py: Tensor.digits", "radical.py: evaluate(digits)",
        "radical.py: __init__(digits)"]


def parameters_named(package: Path, name: str) -> list[str]:
    """Functions with a parameter called ``name``."""
    return [f"{path.name}: {node.name}({name})"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and name in _parameter_names(node.args)]


def test_no_function_takes_a_rounding_tolerance():
    # every rounding gate reads resolvent.DEFAULT_ROUNDING_TOLERANCE, so no
    # caller can widen one
    assert parameters_named(SRC, "tolerance") == []


def test_tolerance_parameter_is_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "TOLERANCE = 0.25\n"
        "def round_theta_m(theta, tolerance=TOLERANCE):\n"
        "    return theta\n"
        "def gate(value, *, tolerance):\n"
        "    return value < tolerance\n"
        "def fixed(value):\n"
        "    return value < TOLERANCE\n")
    assert parameters_named(tmp_path, "tolerance") == [
        "a.py: round_theta_m(tolerance)", "a.py: gate(tolerance)"]


def test_no_function_takes_a_margin():
    # a digit budget is either planned, with resolvent.DEFAULT_MARGIN, or
    # given as digits; no caller pads the plan
    assert parameters_named(SRC, "margin") == []


def test_margin_parameter_is_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "DEFAULT_MARGIN = 6\n"
        "def plan_precision(series, x0_bound, margin):\n"
        "    return series.required + margin\n"
        "def solve(poly, *, digits=None, margin=DEFAULT_MARGIN):\n"
        "    return digits or margin\n"
        "def planned(required):\n"
        "    return required + DEFAULT_MARGIN\n")
    assert parameters_named(tmp_path, "margin") == [
        "a.py: plan_precision(margin)", "a.py: solve(margin)"]


def pairwise_loops(path: Path) -> list[str]:
    """Functions that iterate over ``combinations``, by name or as
    ``itertools.combinations``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{path.name}: {node.name}"
                      for call in ast.walk(node) if isinstance(call, ast.Call)
                      and (getattr(call.func, "id", None) == "combinations"
                           or getattr(call.func, "attr", None) == "combinations")]
    return found


def test_rootfinder_has_one_pairwise_loop():
    # the separation rule, the hardware alpha-test and the budget
    # certificate all ask _apart whether discs around the roots are disjoint
    assert pairwise_loops(SRC / "rootfinder.py") == ["rootfinder.py: _apart"]


def test_second_pairwise_loop_is_detected(tmp_path):
    (tmp_path / "rootfinder.py").write_text(
        "import itertools\n"
        "from itertools import combinations\n"
        "def _apart(points, radii):\n"
        "    return all(abs(points[i] - points[j]) > radii[i] + radii[j]\n"
        "               for i, j in combinations(range(len(points)), 2))\n"
        "def _close_pair(raw, separation):\n"
        "    pairs = itertools.combinations(raw, 2)\n"
        "    return any(abs(a - b) <= separation for a, b in pairs)\n")
    assert pairwise_loops(tmp_path / "rootfinder.py") == [
        "rootfinder.py: _apart", "rootfinder.py: _close_pair"]


def names_called(path: Path, function: str) -> set[str]:
    """Names that the body of ``function`` calls or passes on."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {name.id for stmt in node.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)}
    raise LookupError(f"{path.name} defines no {function}")


def test_polish_roots_takes_no_residuals():
    # the returned roots are certified by the radii of their last Newton
    # steps; residuals are computed only on request, for the roots command
    assert {"eval_poly", "root_residuals"} & names_called(
        SRC / "rootfinder.py", "polish_roots") == set()


def test_residual_in_polish_roots_is_detected(tmp_path):
    (tmp_path / "rootfinder.py").write_text(
        "def polish_roots(p, start, digits):\n"
        "    raw = list(start)\n"
        "    residuals = [abs(eval_poly(p.coeffs, z)) for z in raw]\n"
        "    return max(map(root_residuals, raw)), residuals\n"
        "def root_residuals(p, rs):\n"
        "    return [eval_poly(p.coeffs, z) for z in rs.roots]\n")
    assert {"eval_poly", "root_residuals"} & names_called(
        tmp_path / "rootfinder.py", "polish_roots") == {
        "eval_poly", "root_residuals"}


def evaluations_outside_the_alpha_test(path: Path) -> set[str]:
    """Polynomial evaluators that ``_certified_step`` calls, and an
    ``_exact_value`` that ``path`` defines: the Newton step from each
    hardware root takes f/f' from the alpha-test's own evaluation."""
    found = {"eval_poly", "horner", "_exact_value"} & names_called(
        path, "_certified_step")
    found |= {node.name for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and node.name == "_exact_value"}
    return found


def test_certified_step_evaluates_nothing_itself():
    assert evaluations_outside_the_alpha_test(SRC / "rootfinder.py") == set()


def test_second_evaluation_in_the_step_is_detected(tmp_path):
    (tmp_path / "rootfinder.py").write_text(
        "def _exact_value(coeffs, z):\n"
        "    return z\n"
        "def _certified_step(coeffs, deriv, z):\n"
        "    data = _alpha_test(coeffs, z)\n"
        "    return [x - eval_poly(coeffs, x) / horner(deriv, x, 53)\n"
        "            for x in z], data\n")
    assert evaluations_outside_the_alpha_test(tmp_path / "rootfinder.py") == {
        "eval_poly", "horner", "_exact_value"}


def alpha_test_callers(path: Path) -> list[str]:
    """Functions of ``path`` other than ``_certified_step`` that call or
    pass on ``_alpha_test``: a returned root is certified by the Newton step
    that produced it, not by a second alpha-evaluation."""
    return [f"{path.name}: {node.name}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name != "_certified_step"
            and any(isinstance(name, ast.Name) and name.id == "_alpha_test"
                    and isinstance(name.ctx, ast.Load)
                    for stmt in node.body for name in ast.walk(stmt))]


def test_only_the_hardware_step_runs_the_alpha_test():
    assert alpha_test_callers(SRC / "rootfinder.py") == []


def test_second_alpha_test_caller_is_detected(tmp_path):
    (tmp_path / "rootfinder.py").write_text(
        "def _alpha_test(coeffs, points):\n"
        "    return points\n"
        "def _certified_step(coeffs, points):\n"
        "    return _alpha_test(coeffs, points)\n"
        "def polish_roots(p, start, digits):\n"
        "    def certify(roots):\n"
        "        return _alpha_test(p.coeffs, roots)\n"
        "    return certify(start)\n"
        "def _mapped(coeffs, batches):\n"
        "    return map(_alpha_test, [coeffs] * len(batches), batches)\n")
    assert alpha_test_callers(tmp_path / "rootfinder.py") == [
        "rootfinder.py: polish_roots", "rootfinder.py: _mapped",
        "rootfinder.py: certify"]


def forward_pass_forks(path: Path) -> list[str]:
    """Functions of ``path`` other than ``build_theta0`` that call or pass
    on ``position_root_indices``, and functions of ``path`` other than
    ``forward_level`` that ``forward_pass`` names: the forward pass shares
    lines by their entries' bits, not by the root labels, through one
    transform at every level."""
    tree = ast.parse(path.read_text(), str(path))
    found = [f"{path.name}: {node.name} reads position_root_indices"
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name != "build_theta0"
             and any(isinstance(name, ast.Name)
                     and name.id == "position_root_indices"
                     for stmt in node.body for name in ast.walk(stmt))]
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    found += [f"{path.name}: forward_pass calls {name}"
              for name in sorted(defined & names_called(path, "forward_pass"))
              if name != "forward_level"]
    return found


def test_forward_pass_is_one_loop_over_forward_level():
    assert forward_pass_forks(SRC / "resolvent.py") == []


def test_forward_pass_fork_is_detected(tmp_path):
    (tmp_path / "resolvent.py").write_text(
        "def position_root_indices(series):\n"
        "    return [1]\n"
        "def build_theta0(roots, series):\n"
        "    return [roots[i - 1] for i in position_root_indices(series)]\n"
        "def forward_level(theta, level, zetas, counter):\n"
        "    return theta, theta\n"
        "def _level1_maps(series):\n"
        "    labels = position_root_indices(series)\n"
        "    return [(1, 0) for _ in labels]\n"
        "def _forward_level1(theta0, series, zetas, counter, maps):\n"
        "    return forward_level(theta0[:maps[0][0]], 1, zetas, counter)\n"
        "def forward_pass(theta0, series, zetas):\n"
        "    current, counter = theta0, []\n"
        "    maps = _level1_maps(series) if series.length else None\n"
        "    for level in range(1, series.length + 1):\n"
        "        if level == 1 and maps is not None:\n"
        "            L, current = _forward_level1(theta0, series, zetas,\n"
        "                                         counter, maps)\n"
        "        else:\n"
        "            L, current = forward_level(current, level, zetas,\n"
        "                                       counter)\n"
        "    return current\n")
    assert forward_pass_forks(tmp_path / "resolvent.py") == [
        "resolvent.py: _level1_maps reads position_root_indices",
        "resolvent.py: forward_pass calls _forward_level1",
        "resolvent.py: forward_pass calls _level1_maps"]


def second_integer_evaluators(package: Path) -> list[str]:
    """Integer evaluations of f besides ``rootfinder._alpha_data``'s: a
    ``horner`` in ``precision.py``, a Newton polish that steps by anything
    but ``_alpha_data``, and ``polynomial.py`` taking a kernel from
    ``precision``."""
    found = [f"precision.py: def {node.name}"
             for node in ast.walk(ast.parse((package / "precision.py")
                                            .read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "horner"]
    called = names_called(package / "rootfinder.py", "_newton_polish")
    found += [f"rootfinder.py: _newton_polish calls {name}"
              for name in sorted({"horner", "eval_poly"} & called)]
    if "_alpha_data" not in called:
        found.append("rootfinder.py: _newton_polish does not call _alpha_data")
    found += [f"polynomial.py: from .precision import {alias.name}"
              for node in ast.walk(ast.parse((package / "polynomial.py")
                                             .read_text()))
              if isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module == "precision" for alias in node.names]
    return found


def test_alpha_data_is_the_only_integer_evaluation():
    assert second_integer_evaluators(SRC) == []


def test_second_integer_evaluation_is_detected(tmp_path):
    (tmp_path / "precision.py").write_text(
        "def cmul(x, y, prec):\n"
        "    return x\n"
        "def horner(coeffs, x, prec):\n"
        "    return cmul(x, x, prec)\n")
    (tmp_path / "rootfinder.py").write_text(
        "def _alpha_data(coeffs, x):\n"
        "    return None, None, x\n"
        "def _newton_polish(p, roots, dps):\n"
        "    return [x - eval_poly(p.coeffs, x) / horner(p.coeffs, x, dps)\n"
        "            for x in roots]\n")
    (tmp_path / "polynomial.py").write_text(
        "from .precision import horner, ints_mpc\n"
        "from .errors import InputSyntaxError\n")
    assert second_integer_evaluators(tmp_path) == [
        "precision.py: def horner",
        "rootfinder.py: _newton_polish calls eval_poly",
        "rootfinder.py: _newton_polish calls horner",
        "rootfinder.py: _newton_polish does not call _alpha_data",
        "polynomial.py: from .precision import horner",
        "polynomial.py: from .precision import ints_mpc"]


def evaluations_in_reconstruct(path: Path) -> list[str]:
    """Evaluators that ``reconstruct`` names, directly or through the
    module's functions it calls, and a ``values`` field of
    ``ReconstructionResult``: the backward pass builds nodes only, and the
    solve evaluates the roots once afterwards."""
    tree = ast.parse(path.read_text(), str(path))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["reconstruct"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [n for n in names_called(path, name) if n in functions]
    evaluators = {"_walk", "evaluate", "ValueCache", "principal_root"}
    found = sorted(f"{path.name}: {name} reaches {evaluator}"
                   for name in reached
                   for evaluator in evaluators & names_called(path, name))
    found += [f"{path.name}: ReconstructionResult.values"
              for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "ReconstructionResult"
              for stmt in node.body if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id == "values"]
    return found


def test_reconstruct_builds_nodes_only():
    assert evaluations_in_reconstruct(SRC / "radical.py") == []


def test_evaluation_in_reconstruct_is_detected(tmp_path):
    (tmp_path / "radical.py").write_text(
        "class ReconstructionResult:\n"
        "    root_exprs: tuple\n"
        "    values: object\n"
        "def _line_radicands(line, values):\n"
        "    return [_walk(values.value, e, values.nodes) for e in line]\n"
        "def _pick(w):\n"
        "    return principal_root(w, 2)\n"
        "def reconstruct(series, int_theta, forward):\n"
        "    values = ValueCache()\n"
        "    roots = _line_radicands(series, values)\n"
        "    return evaluate(roots[0], values), _pick(roots)\n"
        "def verify(exprs, cache):\n"
        "    return [evaluate(e, cache) for e in exprs]\n")
    assert evaluations_in_reconstruct(tmp_path / "radical.py") == [
        "radical.py: _line_radicands reaches _walk",
        "radical.py: _pick reaches principal_root",
        "radical.py: reconstruct reaches ValueCache",
        "radical.py: reconstruct reaches evaluate",
        "radical.py: ReconstructionResult.values"]


def full_tensor_fields(path: Path) -> list[str]:
    """A ``theta0_exprs`` field of ``ReconstructionResult``: the backward
    pass builds the root expressions at one position per label, and no
    expression for the rest of Theta_0."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}: ReconstructionResult.theta0_exprs"
            for node in tree.body if isinstance(node, ast.ClassDef)
            and node.name == "ReconstructionResult"
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "theta0_exprs"]


def test_reconstruction_keeps_no_full_tensor():
    assert full_tensor_fields(SRC / "radical.py") == []


def test_full_tensor_field_is_detected(tmp_path):
    (tmp_path / "radical.py").write_text(
        "class ReconstructionResult:\n"
        "    root_exprs: tuple\n"
        "    theta0_exprs: tuple\n"
        "class SolveReport:\n"
        "    theta0_exprs: tuple\n")
    assert full_tensor_fields(tmp_path / "radical.py") == [
        "radical.py: ReconstructionResult.theta0_exprs"]


RETIRED_LABELING_NAMES = ("is_normalized_by", "LabelingAmbiguous")


def retired_labeling_names(path: Path) -> list[str]:
    """Names, attributes, imports and definitions of ``is_normalized_by`` or
    ``LabelingAmbiguous``: auto-labeling takes the first confirmed
    candidate, so no passing labeling is compared with another."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in RETIRED_LABELING_NAMES:
            found.append(f"{path.name}: {name}")
    return sorted(found)


def test_labeling_compares_no_passing_candidates():
    assert [line for module in ("oracle.py", "groups.py")
            for line in retired_labeling_names(SRC / module)] == []


def test_retired_labeling_name_is_detected(tmp_path):
    (tmp_path / "oracle.py").write_text(
        "from .errors import LabelingAmbiguous, LabelingFailed\n"
        "class PermutationGroup:\n"
        "    def is_normalized_by(self, s):\n"
        "        return True\n"
        "def label_roots(G, passing):\n"
        "    if not all(G.is_normalized_by(p) for p in passing):\n"
        "        raise LabelingAmbiguous('two labelings')\n"
        "    raise LabelingFailed('none')\n")
    assert retired_labeling_names(tmp_path / "oracle.py") == [
        "oracle.py: LabelingAmbiguous", "oracle.py: LabelingAmbiguous",
        "oracle.py: is_normalized_by", "oracle.py: is_normalized_by"]


STANDARD_ROOT_CALLS = {"dps_to_prec", "mpc_nthroot", "normalize", "make_mpc",
                       "mpc", "tuple", "ValueError"}


def calls_in(path: Path, function: str) -> set[str]:
    """Names of the functions and methods that the body of ``function``
    calls."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {call.func.id if isinstance(call.func, ast.Name)
                    else call.func.attr
                    for stmt in node.body for call in ast.walk(stmt)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, (ast.Name, ast.Attribute))}
    raise LookupError(f"{path.name} defines no {function}")


def test_principal_root_is_the_standard_root():
    # mpmath's mpc_nthroot rounded to the working precision: no floor, and
    # no snap of branch-cut noise that other evaluators do not make
    assert calls_in(SRC / "precision.py", "principal_root") \
        - STANDARD_ROOT_CALLS == set()


def test_snap_in_principal_root_is_detected(tmp_path):
    (tmp_path / "precision.py").write_text(
        "def principal_root(z, p):\n"
        "    if p < 1:\n"
        "        raise ValueError('root degree must be >= 1')\n"
        "    if z == 0:\n"
        "        return mpc(0)\n"
        "    digits = mp.dps\n"
        "    wp, rnd = dps_to_prec(digits + _GUARD), round_nearest\n"
        "    re, im = z._mpc_\n"
        "    mag = mpf_hypot(re, im, wp, rnd)\n"
        "    eps = mpf_pow_int(from_int(10), 2 - digits, wp, rnd)\n"
        "    if im != fzero and mpf_le(mpf_abs(im),\n"
        "                              mpf_mul(mag, eps, wp, rnd)):\n"
        "        im = fzero\n"
        "    theta = mpf_div(mpf_atan2(im, re, wp, rnd), from_int(p),\n"
        "                    wp, rnd)\n"
        "    r = mpf_nthroot(mag, p, wp, rnd)\n"
        "    cos, sin = mpf_cos_sin(theta, wp, rnd)\n"
        "    floor = mpf_mul(r, eps, wp, rnd)\n"
        "    parts = []\n"
        "    for c in (cos, sin):\n"
        "        w = mpf_mul(r, c, wp, rnd)\n"
        "        parts.append(fzero if w != fzero\n"
        "                     and mpf_le(mpf_abs(w), floor)\n"
        "                     else normalize(*w, mp.prec, rnd))\n"
        "    return mp.make_mpc(tuple(parts))\n")
    assert calls_in(tmp_path / "precision.py", "principal_root") \
        - STANDARD_ROOT_CALLS == {
        "mpf_hypot", "mpf_pow_int", "from_int", "mpf_le", "mpf_abs",
        "mpf_mul", "mpf_div", "mpf_atan2", "mpf_nthroot", "mpf_cos_sin",
        "append"}


def raise_sites(package: Path) -> dict[str, set[str]]:
    """Exception name -> the ``module.function`` of each ``raise`` of it in
    the package, by the innermost enclosing function (the module alone
    outside any); a bare re-raise names nothing."""
    sites: dict[str, set[str]] = {}

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                exc = exc.func if isinstance(exc, ast.Call) else exc
                name = exc.id if isinstance(exc, ast.Name) else \
                    exc.attr if isinstance(exc, ast.Attribute) else None
                sites.setdefault(name, set()).add(where)
            visit(child, module, where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, path.stem)
    return sites


def test_one_raiser_each_for_branch_and_verification_failures():
    # the branch decisions refuse an ambiguous branch, and verify alone
    # refuses a radical off its labeled root
    sites = raise_sites(SRC)
    assert sites["PhaseAmbiguous"] == {"radical._decide"}
    assert sites["VerificationFailed"] == {"radical.verify"}


def test_second_raiser_is_detected(tmp_path):
    (tmp_path / "radical.py").write_text(
        "def _decide(x):\n"
        "    raise PhaseAmbiguous('branch')\n"
        "def verify(x):\n"
        "    raise VerificationFailed('off')\n")
    (tmp_path / "pipeline.py").write_text(
        "def _guard_roots(evaluations):\n"
        "    def check(x):\n"
        "        raise PhaseAmbiguous('off its labeled root')\n"
        "    try:\n"
        "        check(evaluations)\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise errors.VerificationFailed\n")
    sites = raise_sites(tmp_path)
    assert sites["PhaseAmbiguous"] == {"radical._decide", "pipeline.check"}
    assert sites["VerificationFailed"] == {"radical.verify",
                                           "pipeline._guard_roots"}


def unraised_errors(package: Path) -> list[str]:
    """Classes of ``errors.py``, other than the base SolverError, that no
    ``raise`` in the package names."""
    tree = ast.parse((package / "errors.py").read_text())
    raised = raise_sites(package)
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and node.name != "SolverError" and node.name not in raised]


def test_every_error_class_is_raised():
    assert unraised_errors(SRC) == []


def test_unraised_error_class_is_detected(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class SolverError(Exception):\n"
        "    exit_code = 1\n"
        "class LabelingFailed(SolverError):\n"
        "    exit_code = 6\n"
        "class LabelingAmbiguous(SolverError):\n"
        "    exit_code = 6\n")
    (tmp_path / "oracle.py").write_text(
        "from .errors import LabelingAmbiguous, LabelingFailed\n"
        "def label_roots(G):\n"
        "    raise LabelingFailed('none')\n")
    assert unraised_errors(tmp_path) == ["LabelingAmbiguous"]
