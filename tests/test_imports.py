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
    # the separation rule and the one acceptance rule of every Newton step
    # ask _apart whether discs around the roots are disjoint
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


def extra_namings(path: Path, helper: str, allowed: dict) -> list[str]:
    """Functions of ``path`` that call or pass on ``helper`` more often than
    ``allowed`` gives for their name; functions it does not name, at all."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            uses = sum(isinstance(name, ast.Name) and name.id == helper
                       and isinstance(name.ctx, ast.Load)
                       for stmt in node.body for name in ast.walk(stmt))
            if uses > allowed.get(node.name, 0):
                found.append(f"{path.name}: {node.name} names {helper}")
    return found


def defined(path: Path, names) -> list[str]:
    """``def`` lines of ``path`` for the functions in ``names``."""
    return [f"{path.name}: def {node.name}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in names]


def evaluations_outside_the_alpha_test(path: Path) -> set[str]:
    """Polynomial evaluators that ``_newton_step`` calls, and an
    ``_exact_value`` that ``path`` defines: the Newton step from each root
    takes f/f' from the alpha-test's own evaluation, the ``_alpha_data``
    it is handed."""
    found = {"eval_poly", "horner", "_scaled_horner", "_taylor",
             "_exact_value"} & names_called(path, "_newton_step")
    found |= {line.rsplit(" ", 1)[1]
              for line in defined(path, ("_exact_value",))}
    return found


def test_certified_step_evaluates_nothing_itself():
    assert evaluations_outside_the_alpha_test(SRC / "rootfinder.py") == set()


def test_second_evaluation_in_the_step_is_detected(tmp_path):
    (tmp_path / "rootfinder.py").write_text(
        "def _exact_value(coeffs, z):\n"
        "    return z\n"
        "def _newton_step(x, data):\n"
        "    coeffs, deriv = data\n"
        "    return (x - eval_poly(coeffs, x) / horner(deriv, x, 53),\n"
        "            _scaled_horner(coeffs, x))\n")
    assert evaluations_outside_the_alpha_test(tmp_path / "rootfinder.py") == {
        "eval_poly", "horner", "_scaled_horner", "_exact_value"}


def alpha_test_callers(path: Path) -> list[str]:
    """A definition of ``_alpha_test``, and the functions of ``path`` that
    call or pass on ``_alpha_data`` other than by ``_newton_polish``'s one
    call: every Newton step, the hardware rung included, is taken and
    certified there, not by a second alpha-evaluation."""
    return (defined(path, ("_alpha_test",))
            + extra_namings(path, "_alpha_data", {"_newton_polish": 1}))


def test_only_the_hardware_step_runs_the_alpha_test():
    assert alpha_test_callers(SRC / "rootfinder.py") == []


def test_second_alpha_test_caller_is_detected(tmp_path):
    (tmp_path / "rootfinder.py").write_text(
        "def _alpha_test(coeffs, points):\n"
        "    return points\n"
        "def _newton_polish(p, roots, dps):\n"
        "    return [_alpha_data(p.coeffs, x) for x in roots]\n"
        "def polish_roots(p, start, digits):\n"
        "    def certify(roots):\n"
        "        return _alpha_data(p.coeffs, roots)\n"
        "    return certify(start)\n"
        "def _mapped(coeffs, batches):\n"
        "    return map(_alpha_data, [coeffs] * len(batches), batches)\n"
        "def _twice(p, x):\n"
        "    return _alpha_data(p.coeffs, x), _alpha_data(p.coeffs, -x)\n")
    assert alpha_test_callers(tmp_path / "rootfinder.py") == [
        "rootfinder.py: def _alpha_test",
        "rootfinder.py: polish_roots names _alpha_data",
        "rootfinder.py: _mapped names _alpha_data",
        "rootfinder.py: _twice names _alpha_data",
        "rootfinder.py: certify names _alpha_data"]


def certificate_forks(path: Path) -> list[str]:
    """Second acceptance rules for Newton steps in ``path``: a definition
    of ``_certified_step``, and a function that calls or passes on
    ``_apart`` other than ``_accepted`` and ``polish_roots``' separation
    check.  Every step is accepted by ``_accepted``."""
    return (defined(path, ("_certified_step",))
            + extra_namings(path, "_apart",
                            {"_accepted": 1, "polish_roots": 1}))


def test_every_newton_step_has_one_certificate():
    assert certificate_forks(SRC / "rootfinder.py") == []


def test_second_certificate_is_detected(tmp_path):
    (tmp_path / "rootfinder.py").write_text(
        "def _certified_step(coeffs, points):\n"
        "    return _apart(points, [0] * len(points))\n"
        "def _accepted(points, radii, tol):\n"
        "    return _apart(points, radii)\n"
        "def _certify(it, raw, digits):\n"
        "    return _apart(raw, it.radii)\n"
        "def polish_roots(p, start, digits):\n"
        "    def recheck(roots):\n"
        "        return _apart(roots, [digits] * len(roots))\n"
        "    if not _apart(start, [digits] * len(start)):\n"
        "        raise ValueError(digits)\n"
        "    return _accepted(start, [], 1) and recheck(start)\n"
        "def _mapped(batches, radii):\n"
        "    return list(map(_apart, batches, radii))\n")
    assert certificate_forks(tmp_path / "rootfinder.py") == [
        "rootfinder.py: def _certified_step",
        "rootfinder.py: _certified_step names _apart",
        "rootfinder.py: _certify names _apart",
        "rootfinder.py: polish_roots names _apart",
        "rootfinder.py: _mapped names _apart",
        "rootfinder.py: recheck names _apart"]


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


def _is_tuple_call(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "tuple"


def _line_keys(function: ast.FunctionDef) -> set[str]:
    """Names that ``function`` binds to a ``tuple(...)`` call."""
    return {stmt.targets[0].id for stmt in ast.walk(function)
            if isinstance(stmt, ast.Assign)
            and isinstance(stmt.targets[0], ast.Name)
            and _is_tuple_call(stmt.value)}


def line_tables(path: Path) -> list[str]:
    """``_affine_source``, defined or named in ``path``, and every
    line-keyed dict of ``forward_level`` when it has more than one: a dict
    that a tuple of a line's entries indexes, tests or fills.  One table
    holds every line a line can be filled from, an equal line being the
    identity map."""
    tree = ast.parse(path.read_text(), str(path))
    found = {f"{path.name}: _affine_source" for node in ast.walk(tree)
             if "_affine_source" in (getattr(node, "id", None),
                                     getattr(node, "name", None))}
    level = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "forward_level")
    keys = _line_keys(level)

    def is_line(key):
        return _is_tuple_call(key) or (isinstance(key, ast.Name)
                                       and key.id in keys)

    tables = set()
    for node in ast.walk(level):
        if isinstance(node, ast.Subscript) and is_line(node.slice):
            table = node.value
        elif isinstance(node, ast.Compare) and is_line(node.left) and \
                isinstance(node.ops[0], (ast.In, ast.NotIn)):
            table = node.comparators[0]
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.args and \
                node.func.attr in ("get", "setdefault", "pop") and \
                is_line(node.args[0]):
            table = node.func.value
        else:
            continue
        if isinstance(table, ast.Name):
            tables.add(table.id)
    if len(tables) > 1:
        found |= {f"{path.name}: forward_level keys {name} by line"
                  for name in tables}
    return sorted(found)


def test_forward_level_shares_lines_through_one_table():
    assert line_tables(SRC / "resolvent.py") == []


def test_equal_line_memo_beside_affine_images_is_detected(tmp_path):
    # forward_level and its reference search as they stood before one table
    # held both equal lines and affine images
    (tmp_path / "resolvent.py").write_text(
        "def _affine_source(entries, holders, p):\n"
        "    for where, ref in holders.get(entries[0], ()):\n"
        "        t = where[entries[0]]\n"
        "        u = (where.get(entries[1], t) - t) % p\n"
        "        if u and all(where.get(e) == (u * j + t) % p\n"
        "                     for j, e in enumerate(entries)):\n"
        "            return ref, u, t\n"
        "    return None\n"
        "def forward_level(theta_prev, level, zetas, counter):\n"
        "    p = theta_prev.radices[level - 1]\n"
        "    prec = mp.prec\n"
        "    table = [mpc_ints(z) for z in zetas[p]]\n"
        "    data = [mpc_ints(z) for z in theta_prev.data]\n"
        "    ldata: list = [None] * len(data)\n"
        "    tdata: list = [None] * len(data)\n"
        "    done: dict = {}\n"
        "    holders: dict = {}\n"
        "    for line in axis_lines(theta_prev.radices, level - 1):\n"
        "        entries = tuple(data[i] for i in line)\n"
        "        if entries not in done:\n"
        "            source = _affine_source(entries, holders, p)\n"
        "            if source:\n"
        "                done[entries] = _fill(*source, table, prec,\n"
        "                                      counter)\n"
        "            else:\n"
        "                done[entries] = _transform(entries, table, prec,\n"
        "                                           counter)\n"
        "                where = {e: j for j, e in enumerate(entries)}\n"
        "                if len(where) == p:\n"
        "                    for e in entries:\n"
        "                        holders.setdefault(e, []).append(\n"
        "                            (where, done[entries]))\n"
        "        for flat, l_entry, t_entry in zip(line, *done[entries]):\n"
        "            ldata[flat], tdata[flat] = l_entry, t_entry\n"
        "    return (replace(theta_prev, data=tuple(ldata)),\n"
        "            replace(theta_prev, data=tuple(tdata)))\n")
    # holders is keyed by an entry, not a line, so done is the one line table
    assert line_tables(tmp_path / "resolvent.py") == [
        "resolvent.py: _affine_source"]


def test_second_line_keyed_dict_is_detected(tmp_path):
    (tmp_path / "resolvent.py").write_text(
        "def forward_level(theta_prev, level, zetas, counter):\n"
        "    codes, known, equal, shifts = {}, {}, {}, {}\n"
        "    for line in axis_lines(theta_prev.radices, level - 1):\n"
        "        key = tuple(codes.setdefault(e, len(codes)) for e in line)\n"
        "        if key in equal:\n"
        "            out = equal[key]\n"
        "        elif key in known:\n"
        "            out = _fill(*known[key], counter)\n"
        "        else:\n"
        "            out = shifts.get(tuple(key[1:] + key[:1]))\n"
        "        equal.setdefault(key, out)\n"
        "    return out\n")
    assert line_tables(tmp_path / "resolvent.py") == [
        "resolvent.py: forward_level keys equal by line",
        "resolvent.py: forward_level keys known by line",
        "resolvent.py: forward_level keys shifts by line"]


def series_reclosures(path: Path) -> list[str]:
    """Each ``AssertionError`` that ``path`` raises or asserts, and each
    ``_close_elements`` or ``closure`` call inside a loop of
    ``composition_series``.  Adjoining sigma to H extends H by its cosets,
    so the refinement closes nothing and has no index to check."""
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and any(getattr(name, "id", None) == "AssertionError"
                        for name in ast.walk(node.exc))):
            found.add(f"{path.name}: raises AssertionError")
    series = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "composition_series")
    for loop in ast.walk(series):
        if isinstance(loop, (ast.For, ast.While)):
            found |= {f"{path.name}: composition_series calls "
                      f"{call.func.id} in a loop"
                      for call in ast.walk(loop)
                      if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Name)
                      and call.func.id in ("_close_elements", "closure")}
    return sorted(found)


def test_composition_series_extends_by_cosets():
    assert series_reclosures(SRC / "groups.py") == []


def test_reclosing_refinement_is_detected(tmp_path):
    # the refinement loop as it stood when it closed <H, sigma> again from
    # its generators at every step
    (tmp_path / "groups.py").write_text(
        "def composition_series(G):\n"
        "    steps = []\n"
        "    h_gens = []\n"
        "    h_set = {Permutation.identity(G.degree).images}\n"
        "    for upper_els, _ in reversed(chain[:-1]):\n"
        "        upper_set = {e.images for e in upper_els}\n"
        "        candidates = [g for g in G.generators\n"
        "                      if g.images in upper_set]\n"
        "        candidates += sorted(upper_els, key=lambda e: e.images)\n"
        "        while len(h_set) < len(upper_set):\n"
        "            x = next(c for c in candidates\n"
        "                     if c.images not in h_set)\n"
        "            d, cur = 1, x\n"
        "            while cur.images not in h_set:\n"
        "                cur = cur * x\n"
        "                d += 1\n"
        "            p = smallest_prime_factor(d)\n"
        "            sigma = x.power(d // p)\n"
        "            h_gens.append(sigma)\n"
        "            h_elements = _close_elements(h_gens, G.degree)\n"
        "            if len(h_elements) != p * len(h_set):\n"
        "                raise AssertionError('composition refinement index "
        "mismatch')\n"
        "            h_set = {e.images for e in h_elements}\n"
        "            steps.append((sigma, p))\n"
        "    return CompositionSeries(tuple(steps), G)\n")
    assert series_reclosures(tmp_path / "groups.py") == [
        "groups.py: composition_series calls _close_elements in a loop",
        "groups.py: raises AssertionError"]


def test_closure_in_the_refinement_is_detected(tmp_path):
    (tmp_path / "groups.py").write_text(
        "def composition_series(G):\n"
        "    for upper_els, _ in reversed(chain[:-1]):\n"
        "        h = closure(h_gens + [sigma])\n"
        "        assert h.order == p * len(h_set)\n")
    assert series_reclosures(tmp_path / "groups.py") == [
        "groups.py: composition_series calls closure in a loop",
        "groups.py: raises AssertionError"]


ROUNDING_PARAMETERS = {"_round": ["m", "e", "prec"],
                       "_add": ["m1", "e1", "m2", "e2", "prec"]}


def second_divisions(path: Path) -> list[str]:
    """Definitions of ``cdiv`` and ``_int_pair`` in ``path``, and a
    ``_round`` or ``_add`` with parameters beyond its operands and
    precision, such as a rounding mode: the kernel rounds half to even
    only, and ``cdiv_int`` is its one division."""
    found = defined(path, ("cdiv", "_int_pair"))
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.FunctionDef)
                and node.name in ROUNDING_PARAMETERS
                and _parameter_names(node.args)
                != ROUNDING_PARAMETERS[node.name]):
            found.append(f"{path.name}: {node.name} takes "
                         f"{', '.join(_parameter_names(node.args))}")
    return found


def test_the_kernel_has_one_division_and_one_rounding_mode():
    assert second_divisions(SRC / "precision.py") == []


def test_second_division_is_detected(tmp_path):
    # the kernel's division and rounding as they stood with mpc_div's copy
    (tmp_path / "precision.py").write_text(
        "def _round(m, e, prec, down=False):\n"
        "    return (m >> 1 if down else m), e\n"
        "def _add(m1, e1, m2, e2, prec, *, mode='n'):\n"
        "    return _round((m1 << (e1 - e2)) + m2, e2, prec, mode == 'd')\n"
        "def cdiv(x, y, prec):\n"
        "    return x\n"
        "def _int_pair(n):\n"
        "    return _round(n, 0, max(n.bit_length(), 1))\n")
    assert second_divisions(tmp_path / "precision.py") == [
        "precision.py: def cdiv",
        "precision.py: def _int_pair",
        "precision.py: _round takes m, e, prec, down",
        "precision.py: _add takes m1, e1, m2, e2, prec, mode"]


EAGER_CALLS = ("list", "tuple", "sorted", "len")


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def second_labeling_tests(path: Path) -> list[str]:
    """A ``_screen`` definition and ``complex`` calls in ``path``, and a
    ``label_roots`` that hands ``coset_representatives(...)`` to ``list``,
    ``tuple``, ``sorted`` or ``len``: one ``mpc`` test decides each
    candidate, and the walk reads no coset past the first confirmed one."""
    tree = ast.parse(path.read_text(), str(path))
    found = defined(path, ("_screen",))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found += [f"{path.name}: calls complex" for call in calls
              if _callee(call) == "complex"]
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "label_roots":
            found += [f"{path.name}: label_roots calls {_callee(call)}"
                      "(coset_representatives(...))"
                      for call in ast.walk(node)
                      if isinstance(call, ast.Call)
                      and _callee(call) in EAGER_CALLS
                      and any(isinstance(arg, ast.Call)
                              and _callee(arg) == "coset_representatives"
                              for arg in call.args)]
    return found


def test_one_test_decides_each_labeling_candidate():
    assert second_labeling_tests(SRC / "oracle.py") == []


def test_float_screen_and_eager_walk_are_detected(tmp_path):
    # the labeling as it stood with the hardware screen, and a walk that
    # reads every coset before the first test
    (tmp_path / "oracle.py").write_text(
        "def _screen(reps, invariants, roots):\n"
        "    powers = [complex(z) for z in roots.roots]\n"
        "    return [rep for rep in reps if powers]\n"
        "def label_roots(G, roots):\n"
        "    reps = _screen(coset_representatives(G), [], roots)\n"
        "    if len(groups.coset_representatives(G)) > 1:\n"
        "        reps = list(coset_representatives(G))\n"
        "    for rep in reps:\n"
        "        return rep\n")
    assert second_labeling_tests(tmp_path / "oracle.py") == [
        "oracle.py: def _screen",
        "oracle.py: calls complex",
        "oracle.py: label_roots calls len(coset_representatives(...))",
        "oracle.py: label_roots calls list(coset_representatives(...))"]


def _names(node) -> set[str]:
    return {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}


def unscreened_sectors(path: Path) -> list[str]:
    """Calls of ``arg`` or ``nint`` in ``path`` outside ``_exact_sector``,
    the fallback of ``_decide``'s float screen, and calls of
    ``_exact_sector`` in ``_decide`` other than in the loop statements after
    the screen's ``if ... screen: ... continue``: the exact sector runs only
    where the screen cannot decide."""
    found = []
    for function in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(function, ast.FunctionDef):
            continue
        found += [f"{path.name}: {function.name} calls {_callee(call)}"
                  for call in ast.walk(function)
                  if isinstance(call, ast.Call)
                  and _callee(call) in ("arg", "nint")
                  and function.name != "_exact_sector"]
        if function.name != "_decide":
            continue
        fallback = set()
        for loop in ast.walk(function):
            if not isinstance(loop, ast.For):
                continue
            screened = False
            for stmt in loop.body:
                if screened:
                    fallback.update(ast.walk(stmt))
                screened = screened or (
                    isinstance(stmt, ast.If) and "screen" in _names(stmt.test)
                    and isinstance(stmt.body[-1], ast.Continue))
        found += [f"{path.name}: _decide calls _exact_sector outside the "
                  "screen's fallback" for call in ast.walk(function)
                  if isinstance(call, ast.Call)
                  and _callee(call) == "_exact_sector"
                  and call not in fallback]
    return found


def test_the_exact_sector_is_the_screens_fallback_only():
    assert unscreened_sectors(SRC / "radical.py") == []


def test_exact_sector_outside_the_fallback_is_detected(tmp_path):
    # the exact arg before the screen, and the fallback called ahead of it
    (tmp_path / "radical.py").write_text(
        "def _decide(level, p, line, stored, theta, delta):\n"
        "    for flat in line:\n"
        "        x = p * mpmath.arg(stored.data[flat]) / (2 * mp.pi)\n"
        "        x, centre, edge = _exact_sector(p, stored.data[flat], delta)\n"
        "        if 0.5 - abs(x - centre) > screen:\n"
        "            continue\n"
        "        x, centre, edge = _exact_sector(p, stored.data[flat], delta)\n"
        "def _exact_sector(p, target, delta):\n"
        "    return mpmath.nint(p * mpmath.arg(target))\n"
        "def _branch(x):\n"
        "    return int(mpmath.nint(x))\n")
    assert unscreened_sectors(tmp_path / "radical.py") == [
        "radical.py: _decide calls arg",
        "radical.py: _decide calls _exact_sector outside the screen's "
        "fallback",
        "radical.py: _branch calls nint"]


MPMATH_LAYOUT = ("_mpc_", "_mpf_", "make_mpc", "make_mpf")


def layout_readers(package: Path) -> list[str]:
    """Names of mpmath's number layout (``_mpc_``, ``_mpf_``, ``make_mpc``,
    ``make_mpf``, as attribute, name or string) and imports of
    ``mpmath.libmp`` in the package's modules other than ``precision.py``:
    one module reads and builds mpmath's internal tuples."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "precision.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if name in MPMATH_LAYOUT:
                found.append(f"{path.name}: names {name}")
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}"
                           for alias in node.names]
            else:
                continue
            found += [f"{path.name}: imports {module}" for module in modules
                      if module.startswith("mpmath.libmp")]
    return found


def test_only_precision_reads_the_mpmath_layout():
    assert layout_readers(SRC) == []


def test_layout_reader_is_detected(tmp_path):
    # the decision memo keyed by mpmath's tuples, as it stood, and the same
    # reads in precision.py, which may make them
    reader = ("from mpmath import libmp, mp\n"
              "from mpmath.libmp import mpf_add\n"
              "import mpmath.libmp.libmpf\n"
              "def key(stored, line):\n"
              "    return tuple(stored.data[i]._mpc_ for i in line)\n"
              "def build(t):\n"
              "    return mp.make_mpf(getattr(t, '_mpf_'))\n")
    (tmp_path / "radical.py").write_text(reader)
    (tmp_path / "precision.py").write_text(reader)
    assert layout_readers(tmp_path) == [
        "radical.py: imports mpmath.libmp",
        "radical.py: imports mpmath.libmp.mpf_add",
        "radical.py: imports mpmath.libmp.libmpf",
        "radical.py: names make_mpf",
        "radical.py: names _mpc_",
        "radical.py: names _mpf_"]


def product_merges(path: Path) -> list[str]:
    """In ``make_product``, each ``Root`` built past the first (a merge into
    a branch tag) and each test of a ``degree`` against a constant: one loop
    merges every zeta_p, -1 as zeta_2, into the first p-th root."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.FunctionDef) and node.name == "make_product":
            merges = [call for call in ast.walk(node)
                      if isinstance(call, ast.Call)
                      and _callee(call) == "Root"]
            found = [f"{path.name}: make_product builds Root "
                     f"{len(merges)} times"] if len(merges) > 1 else []
            return found + [
                f"{path.name}: make_product tests degree against "
                f"{side.value}" for test in ast.walk(node)
                if isinstance(test, ast.Compare)
                and "degree" in {n.attr for n in ast.walk(test)
                                 if isinstance(n, ast.Attribute)}
                for side in [test.left, *test.comparators]
                if isinstance(side, ast.Constant)]
    raise LookupError(f"{path.name} defines no make_product")


def test_make_product_merges_roots_of_unity_in_one_loop():
    assert product_merges(SRC / "radical.py") == []


def test_second_merge_loop_is_detected(tmp_path):
    # the -1 folding as it stood, beside the zeta merge
    (tmp_path / "radical.py").write_text(
        "def make_product(factors):\n"
        "    if int_part == -1:\n"
        "        for i, f in enumerate(rest):\n"
        "            if isinstance(f, Root) and f.degree == 2:\n"
        "                rest[i] = Root(2, f.radicand, (f.branch + 1) % 2)\n"
        "                break\n"
        "    for p in sorted(zetas):\n"
        "        for i, f in enumerate(rest):\n"
        "            if isinstance(f, Root) and f.degree == p:\n"
        "                rest[i] = Root(p, f.radicand, f.branch + zetas[p])\n"
        "                break\n")
    assert product_merges(tmp_path / "radical.py") == [
        "radical.py: make_product builds Root 2 times",
        "radical.py: make_product tests degree against 2"]
