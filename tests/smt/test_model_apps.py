"""Models carry uninterpreted-application values, and those values make
concrete evaluation exact for the solver's answer.

The bit-blaster gives every application node of the simplified goal
fresh, unconstrained bits, so a SAT model fixes one value per node.
Evaluating the simplified goal with those values must give true; and a
stored model that satisfies some other formula proves that formula is
not UNSAT — the executor's feasibility probe rests on that.
"""
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.smt import (
    CheckResult, EvaluationError, Model, Solver, evaluate, mk_add, mk_and,
    mk_bv, mk_bv_var, mk_bvand, mk_eq, mk_ne, mk_not, mk_or, mk_sub,
    mk_ule, mk_ult, simplify,
)
from repro.smt.bitblast import BitBlaster
from repro.smt.terms import mk_uf

WIDTH = 6


@st.composite
def bv_terms(draw, depth=2):
    """Small BV terms over a, b and applications of f and g."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["var", "var", "const"]))
        if kind == "var":
            return mk_bv_var(draw(st.sampled_from(["a", "b"])), WIDTH)
        return mk_bv(draw(st.integers(0, 2**WIDTH - 1)), WIDTH)
    op = draw(st.sampled_from(["uf", "uf", "add", "sub", "and"]))
    x = draw(bv_terms(depth=depth - 1))
    if op == "uf":
        return mk_uf(draw(st.sampled_from(["f", "g"])), (x,), WIDTH)
    y = draw(bv_terms(depth=depth - 1))
    return {"add": mk_add, "sub": mk_sub, "and": mk_bvand}[op](x, y)


@st.composite
def formulas(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        pred = draw(st.sampled_from([mk_eq, mk_ne, mk_ult, mk_ule]))
        return pred(draw(bv_terms()), draw(bv_terms()))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    x = draw(formulas(depth=depth - 1))
    if kind == "not":
        return mk_not(x)
    y = draw(formulas(depth=depth - 1))
    return mk_and(x, y) if kind == "and" else mk_or(x, y)


def _holds(model: Model, formula) -> bool:
    return bool(evaluate(simplify(formula), model, apps=model.apps))


@settings(max_examples=120, deadline=None)
@given(formula=formulas())
def test_sat_model_satisfies_simplified_goal(formula):
    solver = Solver()
    if solver.check(formula) == CheckResult.SAT:
        assert _holds(solver.model(), formula)


@settings(max_examples=120, deadline=None)
@given(first=formulas(), second=formulas())
def test_model_hit_implies_not_unsat(first, second):
    solver = Solver()
    if solver.check(first) != CheckResult.SAT:
        return
    stored = solver.model()
    if _holds(stored, second):
        assert Solver().check(second) != CheckResult.UNSAT


class TestEvaluateApps:
    def test_application_without_values_raises(self):
        app = mk_uf("f", (mk_bv_var("a", 8),), 8)
        with pytest.raises(EvaluationError):
            evaluate(app, {"a": 1})

    def test_recorded_value_is_read_and_missing_reads_zero(self):
        a = mk_bv_var("a", 8)
        f_a, g_a = mk_uf("f", (a,), 8), mk_uf("g", (a,), 8)
        assert evaluate(f_a, {"a": 1}, apps={f_a: 300}) == 300 % 256
        assert evaluate(g_a, {"a": 1}, apps={f_a: 7}) == 0

    def test_model_records_each_application(self):
        a = mk_bv_var("a", 8)
        f_a = mk_uf("f", (a,), 8)
        solver = Solver()
        assert solver.check(mk_eq(f_a, mk_bv(5, 8))) == CheckResult.SAT
        assert solver.model().apps == {f_a: 5}


def test_validation_covers_applications(monkeypatch):
    """A wrong application value in a model fails loudly."""
    real = BitBlaster.extract_bits

    def corrupt(self, bits, model):
        value = real(self, bits, model)
        return value + 1 if any(b is bits for b in self.app_bits.values()) \
            else value

    monkeypatch.setattr(BitBlaster, "extract_bits", corrupt)
    f_a = mk_uf("f", (mk_bv_var("a", 8),), 8)
    with pytest.raises(AssertionError, match="invalid model"):
        Solver().check(mk_eq(f_a, mk_bv(5, 8)))
