"""Flow-split feasibility: the model probe in front of the solver.

A refinement satisfied by a stored model (the all-zero point or an
earlier SAT answer's model) is proved feasible without a solver call;
the rest go to the one-shot solver. The counters land in CheckStats,
and an UNKNOWN answer keeps the flow and is counted.
"""
from repro.core import SESA, LaunchConfig
from repro.smt import CheckResult, Solver
from repro.sym import Executor

GRID_STRIDE = """
__global__ void k(int *a, int n) {
  for (unsigned i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
       i += blockDim.x * gridDim.x) {
    a[i] = a[i] + 1;
  }
}
"""


def _config(**kw):
    return LaunchConfig(grid_dim=(2, 1, 1), block_dim=(32, 1, 1),
                        scalar_values={"n": 200}, static_tier=False, **kw)


def _execute(config):
    tool = SESA.from_source(GRID_STRIDE)
    config.symbolic_inputs = tool.inferred_symbolic_inputs()
    return Executor(tool.module, tool.kernel, config, mode="sesa",
                    sink_value_ids=tool.taint.sink_value_ids).run()


class TestFeasibilityProbe:
    def test_model_hits_replace_solver_calls(self):
        report = SESA.from_source(GRID_STRIDE).check(_config())
        cs = report.check_stats
        assert report.execution.num_splits > 0
        assert cs.feasibility_model_hits > 0
        assert cs.feasibility_solver_calls < cs.feasibility_checks
        assert cs.feasibility_checks == \
            cs.feasibility_model_hits + cs.feasibility_solver_calls
        assert cs.feasibility_unknown == 0
        assert 0.0 < cs.feasibility_seconds <= cs.execute_seconds

    def test_report_json_carries_the_counters(self):
        payload = SESA.from_source(GRID_STRIDE).check(_config()).to_dict()
        stats = payload["check_stats"]
        for key in ("feasibility_checks", "feasibility_model_hits",
                    "feasibility_solver_calls", "feasibility_unknown",
                    "feasibility_seconds"):
            assert key in stats
        assert stats["feasibility_model_hits"] > 0

    def test_every_kept_child_is_satisfiable(self):
        config = _config()
        result = _execute(config)
        assert result.flow_events
        for _parent, _child, cond in result.flow_events:
            solver = Solver()
            solver.add(*result.env.bounds(), *config.assumptions)
            assert solver.check(cond) == CheckResult.SAT

    def test_unknown_keeps_flows_and_is_counted(self, monkeypatch):
        baseline = _execute(_config(max_loop_splits=6))
        # decided, some checked refinement is infeasible and dropped
        assert len(baseline.flow_events) < baseline.feasibility_checks

        monkeypatch.setattr(Solver, "check",
                            lambda self, *extra: CheckResult.UNKNOWN)
        result = _execute(_config(max_loop_splits=6))
        assert result.feasibility_solver_calls > 0
        assert result.feasibility_unknown == result.feasibility_solver_calls
        # undecided, every checked refinement is kept
        assert len(result.flow_events) == result.feasibility_checks
