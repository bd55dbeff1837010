"""The benchmark's tracer still finds the layers of a solve.

``perfbench/tracing.py`` replaces the functions a solve calls, under the
names it calls them by, and reads fields of their results.  A refactor that
renames a wrapped call would leave that stage at zero calls, and one that
renames a field the tracer reads would make every traced solve raise.  This
test runs one traced solve and fails on either.
"""

from pathlib import Path
from types import ModuleType

from radicalroots import pipeline, solve

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"

# wrapped names a solve does not call: it polishes an aberth_stage result
# instead of calling find_roots, and evaluates roots of unity from its zeta
# tables
UNCALLED = {"rootfinder.find_roots", "precision.root_of_unity"}


def load_tracing() -> ModuleType:
    """The tracing module, executed from its source; nothing is written
    next to it."""
    module = ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_solve_records_every_wrapped_layer_but_the_known_gaps():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.begin_trace(0)
    original = pipeline.reconstruct
    tracer.install()
    try:
        report = tracer.call("pipeline.solve", solve, "x^5+20x+32",
                             "(1,2,3,4,5);(1,4)(2,3)", labeling="auto",
                             run_verification=True)
    finally:
        tracer.uninstall()
    assert pipeline.reconstruct is original
    assert report.verification is not None
    assert [span for span in tracer.spans if "error" in span] == []
    wrapped = {name for _, _, name in tracing.SPANNED + tracing.COUNTED}
    recorded = {span["name"] for span in tracer.spans} | {
        name for name, calls in tracer.calls.items() if calls}
    assert wrapped - recorded == UNCALLED
    by_name = {span["name"]: span for span in tracer.spans}
    assert by_name["resolvent.forward_pass"]["mults"] == 62
    assert by_name["oracle.label_roots"]["candidates"] >= 1
    assert by_name["radical.reconstruct"]["branch_choices"] > 0
    assert by_name["resolvent.round_theta_m"]["residual_frac"] < 1
