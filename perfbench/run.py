"""Solve benchmark for radicalroots.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is ``solve(poly, generators, labeling=..., run_verification=
True)`` followed by ``emit(expr, "text")`` for every root, as
``radicalroots solve --verify`` does.  The load is a closed loop: one process,
one client, and the next solve starts when the previous one has finished.  A
pass runs every instance of the workload once; passes repeat until ``S``
seconds have gone, and each metric is the median over passes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that alternates untraced and traced passes, and writes the
spans to ``perfbench/out/``.  ``--workload all`` runs every workload, both
ways, each in its own process.  The last line of output is one JSON object.

Every returned expression is checked by ``check.py``, outside the timed
region.  A solve that raises, or whose radicals fail that check, counts as
failed.  ``correct`` is false when a run cannot account for an outcome: an
exception that is not a ``SolverError``, or output that differs between
passes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import radicalroots; "
              "radicalroots.solve('x^2-2', '(1,2)')")

# metric names and units, as BENCHMARK.json declares them
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
# per-instance stage columns of the traced output: column -> span names
STAGES = {
    "series": ("groups.closure", "groups.composition_series"),
    "roots": ("rootfinder.find_roots",),
    "label": ("oracle.label_roots",),
    "setup": ("resolvent.plan_precision", "resolvent.zeta_tables",
              "resolvent.build_theta0"),
    "forward": ("resolvent.forward_pass",),
    "round": ("resolvent.round_theta_m",),
    "reconstruct": ("radical.reconstruct",),
    "evaluate": ("radical.evaluate",),
    "verify": ("radical.verify",),
    "emit": ("radical.emit",),
}


def _import_program():
    """Import radicalroots from this checkout's ``src``, or exit."""
    if not (SRC / "radicalroots" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'radicalroots'} not found; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import radicalroots
    if Path(radicalroots.__file__).resolve().parent != SRC / "radicalroots":
        sys.exit(f"error: imported radicalroots from {radicalroots.__file__}")
    return radicalroots


def measure_setup() -> float:
    """Median time for a fresh interpreter to import and run a first solve."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(command, check=True, cwd=ROOT)      # compiles bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def dag_nodes(exprs) -> int:
    """Distinct node objects reachable from the expressions."""
    seen, stack = set(), list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "terms", ()))
        stack.extend(getattr(node, "factors", ()))
        for attr in ("child", "radicand"):
            if hasattr(node, attr):
                stack.append(getattr(node, attr))
    return len(seen)


class Pass:
    """One run of every instance: times, outcomes, and the reports."""

    def __init__(self):
        self.times: list[float] = []
        self.outcomes: list[str] = []       # digest of the output, or error
        self.reports: list = []             # the report, or what was raised
        self.emit_bytes = 0
        self.dag_nodes = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(rr, instances, tracer=None) -> Pass:
    result = Pass()
    gc.collect()
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.begin_trace(k)
        report, error, texts = None, None, []
        start = time.perf_counter()
        try:
            if tracer is None:
                report = rr.solve(inst.poly, inst.generators,
                                  labeling=inst.labeling,
                                  run_verification=True)
                texts = [rr.emit(e, "text") for e in report.root_exprs]
            else:
                report = tracer.call("pipeline.solve", rr.solve, inst.poly,
                                     inst.generators, labeling=inst.labeling,
                                     run_verification=True)
                texts = tracer.call("radical.emit", lambda: [
                    rr.emit(e, "text") for e in report.root_exprs])
        except Exception as exc:           # every failure is counted below
            error = exc
        result.times.append(time.perf_counter() - start)
        if error is not None:
            result.outcomes.append("raised " + type(error).__name__)
            result.reports.append(error)
            continue
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        result.outcomes.append(digest)
        result.reports.append(report)
        result.emit_bytes += sum(len(t.encode()) for t in texts)
        if tracer is not None:
            result.dag_nodes += dag_nodes(report.root_exprs)
    return result


def check_outcomes(rr, instances, passes):
    """Per-instance failure reason (None when fine) and the run's soundness.

    Outputs are checked once, on the last pass; every pass must have
    produced the same outputs for that to stand for all of them.
    """
    from check import check_report     # imports radicalroots, so not at the top
    last = passes[-1]
    reasons, sound = [], True
    for k, inst in enumerate(instances):
        if any(p.outcomes[k] != last.outcomes[k] for p in passes):
            print(f"# {inst.name}: output differs between passes")
            sound = False
        outcome = last.reports[k]
        if isinstance(outcome, Exception):
            if not isinstance(outcome, rr.SolverError):
                sound = False
            reasons.append(type(outcome).__name__)
        else:
            reasons.append(check_report(outcome))
    return reasons, sound


def layer_metrics(spans, calls, seconds, one_pass: Pass) -> dict:
    """Per-layer metrics of one traced pass from its spans and counters."""
    by = defaultdict(list)
    child_time = Counter()
    for s in spans:
        by[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in by[n])

    roots = by["rootfinder.find_roots"]
    labels = by["oracle.label_roots"]
    recon = by["radical.reconstruct"]
    return {
        "rootfinder.coarse_s": sum(s["end"] - s["start"]
                                   for s in roots if s.get("coarse")),
        "rootfinder.full_s": sum(s["end"] - s["start"]
                                 for s in roots if not s.get("coarse")),
        "rootfinder.calls": len(roots),
        "oracle.label_s": total("oracle.label_roots"),
        "oracle.label_calls": len(labels),
        "oracle.label_raised": sum("error" in s for s in labels),
        "oracle.candidates_passed": sum(s.get("candidates", 0) for s in labels),
        "radical.reconstruct_s": total("radical.reconstruct"),
        "radical.evaluate_s": total("radical.evaluate"),
        "radical.verify_s": total("radical.verify"),
        "radical.emit_s": total("radical.emit"),
        "radical.emit_bytes": one_pass.emit_bytes,
        "radical.dag_nodes": one_pass.dag_nodes,
        "radical.branch_choices": sum(s.get("branch_choices", 0)
                                      for s in recon),
        "radical.branch_ratio_min": min(
            (s["branch_ratio_min"] for s in recon if "branch_ratio_min" in s),
            default=0.0),
        "precision.root_of_unity_calls": calls["precision.root_of_unity"],
        "precision.principal_root_calls": calls["precision.principal_root"],
        "precision.principal_root_s": seconds["precision.principal_root"],
        "resolvent.forward_s": total("resolvent.forward_pass"),
        "resolvent.forward_levels": len(by["resolvent.forward_level"]),
        "resolvent.setup_s": total(*STAGES["setup"]),
        "resolvent.round_s": total("resolvent.round_theta_m"),
        "resolvent.mults": sum(s.get("mults", 0)
                               for s in by["resolvent.forward_pass"]),
        "resolvent.round_residual_frac": max(
            (s["residual_frac"] for s in by["resolvent.round_theta_m"]
             if "residual_frac" in s), default=0.0),
        "groups.series_s": total(*STAGES["series"]),
        "pipeline.solve_s": total("pipeline.solve"),
        "pipeline.self_s": sum(s["end"] - s["start"] - child_time[s["id"]]
                               for s in by["pipeline.solve"]),
        "pipeline.retries": sum(s.get("error") == "PhaseAmbiguous"
                                for s in recon),
        "pipeline.digits_max": max((s["digits"] for s in roots
                                    if not s.get("coarse")), default=0),
    }


def stage_table(instances, spans) -> list[dict]:
    """Per-instance stage times of one traced pass; stage spans never nest."""
    column = {name: c for c, names in STAGES.items() for name in names}
    rows = [{"instance": inst.name, **dict.fromkeys(STAGES, 0.0), "total": 0.0}
            for inst in instances]
    for s in spans:
        row, seconds = rows[s["trace"]], s["end"] - s["start"]
        if s["name"] in column:
            row[column[s["name"]]] += seconds
        if s["parent"] is None:
            row["total"] += seconds
    return rows


def _report_outcomes(instances, passes, reasons) -> tuple[int, int]:
    """Print one line per instance; return (attempted, failed) over passes."""
    times = [statistics.median(p.times[k] for p in passes)
             for k in range(len(instances))]
    for inst, seconds, reason in zip(instances, times, reasons):
        print(f"# {inst.name:24s} {seconds:8.3f} s  {reason or 'ok'}")
    failed_per_pass = sum(r is not None for r in reasons)
    attempted = len(instances) * len(passes)
    failed = failed_per_pass * len(passes)
    print(f"# failed_share {failed / attempted:.4f} ratio "
          f"({failed_per_pass}/{len(instances)} per pass, {len(passes)} passes)")
    return attempted, failed


def run_end_to_end(rr, instances, seconds):
    setup = measure_setup()
    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if passes:
            passes[-1].reports = None           # only the last is checked
        passes.append(run_pass(rr, instances))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reasons, sound = check_outcomes(rr, instances, passes)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "slowest_solve_s": statistics.median(max(p.times) for p in passes),
        "peak_rss_mb": peak_mb,
        "setup_s": setup,
    }
    return passes, reasons, sound, metrics


def run_traced(rr, instances, seconds, workload, seed):
    from tracing import COUNTED, SPANNED, Tracer   # imports radicalroots too
    tracer = Tracer()
    passes, plain, traced, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if passes:
            passes[-1].reports = None           # only the last is checked
        if len(plain) <= len(traced):
            plain.append(run_pass(rr, instances))
            passes.append(plain[-1])
            continue
        first_span = len(tracer.spans)
        tracer.calls.clear()
        tracer.seconds.clear()
        tracer.install()
        try:
            traced.append(run_pass(rr, instances, tracer))
        finally:
            tracer.uninstall()
        passes.append(traced[-1])
        last_spans = tracer.spans[first_span:]
        layers.append(layer_metrics(last_spans, tracer.calls, tracer.seconds,
                                    traced[-1]))
    check_start = time.perf_counter()
    reasons, sound = check_outcomes(rr, instances, passes)
    check_s = time.perf_counter() - check_start

    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["check.s"] = check_s
    metrics["check.raised"] = sum(r not in (None, "branch_mismatch", "scale")
                                  for r in reasons)
    metrics["check.branch_mismatch"] = reasons.count("branch_mismatch")
    metrics["check.scale"] = reasons.count("scale")
    metrics["trace.overhead_share"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain) - 1)

    rows = stage_table(instances, last_spans)
    columns = (*STAGES, "total")
    print("# stage seconds per instance, last traced pass")
    print("# " + f"{'instance':24s}" + "".join(f"{c:>12s}" for c in columns))
    for row in rows:
        print(f"# {row['instance']:24s}"
              + "".join(f"{row[c]:12.4f}" for c in columns))
    called = {s["name"] for s in tracer.spans} | set(tracer.calls)
    for _, _, name in SPANNED + COUNTED:
        if name not in called:
            print(f"# stage {name}: wrapper recorded zero calls")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "instances": [inst.name for inst in instances],
        "stages": rows, "spans": tracer.spans}))
    print(f"# trace written to {path.relative_to(ROOT)}")
    return passes, reasons, sound, metrics


def run_workload(rr, args) -> dict:
    instances = WORKLOADS[args.workload](args.seed)
    rr.solve("x^2-2", "(1,2)")                    # first-call set-up
    if args.trace:
        passes, reasons, sound, values = run_traced(
            rr, instances, args.seconds, args.workload, args.seed)
        units = PER_LAYER
    else:
        passes, reasons, sound, values = run_end_to_end(
            rr, instances, args.seconds)
        units = END_TO_END
    attempted, failed = _report_outcomes(instances, passes, reasons)
    for name, unit in units.items():
        print(f"# {name} {values[name]:.6g} {unit}")
    return {"correct": sound, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", workload,
                       "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(trace)]
            print(f"## {workload} trace={trace}", flush=True)
            done = subprocess.run(command, cwd=ROOT, check=True,
                                  stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            summary["correct"] = summary["correct"] and result["correct"]
            if not trace:
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rr = _import_program()
    result = run_all(args) if args.workload == "all" else run_workload(rr, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
