"""Substitution and concrete evaluation over term DAGs.

Both walk the DAG bottom-up with memoisation so shared subterms are
processed once — essential because the executor's access conditions share
large prefixes (the flow condition of the enclosing barrier interval).
"""
from __future__ import annotations

from typing import Dict, Mapping

from .sorts import BOOL, BVSort
from . import terms as T
from .terms import Op, Term


_REBUILD_BINARY = {
    Op.ADD: T.mk_add, Op.SUB: T.mk_sub, Op.MUL: T.mk_mul,
    Op.UDIV: T.mk_udiv, Op.UREM: T.mk_urem,
    Op.SDIV: T.mk_sdiv, Op.SREM: T.mk_srem,
    Op.AND: T.mk_bvand, Op.OR: T.mk_bvor, Op.XOR: T.mk_bvxor,
    Op.SHL: T.mk_shl, Op.LSHR: T.mk_lshr, Op.ASHR: T.mk_ashr,
    Op.EQ: T.mk_eq, Op.ULT: T.mk_ult, Op.ULE: T.mk_ule,
    Op.SLT: T.mk_slt, Op.SLE: T.mk_sle,
    Op.BXOR: T.mk_bxor, Op.CONCAT: T.mk_concat,
}


def rebuild(term: Term, new_args: tuple) -> Term:
    """Re-create ``term`` with new arguments via the smart constructors."""
    op = term.op
    if all(a is b for a, b in zip(new_args, term.args)):
        return term
    if op in _REBUILD_BINARY:
        return _REBUILD_BINARY[op](*new_args)
    if op == Op.NEG:
        return T.mk_neg(new_args[0])
    if op == Op.NOT:
        return T.mk_bvnot(new_args[0])
    if op == Op.BNOT:
        return T.mk_not(new_args[0])
    if op == Op.BAND:
        return T.mk_and(*new_args)
    if op == Op.BOR:
        return T.mk_or(*new_args)
    if op == Op.ITE:
        return T.mk_ite(*new_args)
    if op == Op.EXTRACT:
        hi, lo = term.payload  # type: ignore[misc]
        return T.mk_extract(new_args[0], hi, lo)
    if op == Op.ZEXT:
        return T.mk_zext(new_args[0], term.payload)  # type: ignore[arg-type]
    if op == Op.SEXT:
        return T.mk_sext(new_args[0], term.payload)  # type: ignore[arg-type]
    if op == Op.UF:
        return T.mk_uf(term.payload, new_args, term.width)  # type: ignore[arg-type]
    raise ValueError(f"cannot rebuild op {op}")


def substitute(term: Term, mapping: Mapping[Term, Term],
               cache: Dict[int, Term] | None = None) -> Term:
    """Replace occurrences of keys (typically variables) by their images.

    The mapping is applied in a single parallel pass: images are not
    themselves rewritten. This is exactly what parametric race checking
    needs — instantiating ``tid`` with ``t1`` and ``t2``.
    """
    if not mapping:
        return term
    if cache is None:
        cache = {}
    by_id = {id(k): v for k, v in mapping.items()}

    # explicit post-order that skips subDAGs already in the cache, so a
    # persistent cache (see :class:`Substitution`) makes repeated
    # instantiation O(new nodes)
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        nid = id(node)
        if nid in cache:
            continue
        hit = by_id.get(nid)
        if hit is not None:
            cache[nid] = hit
        elif not node.args:
            cache[nid] = node
        elif not expanded:
            stack.append((node, True))
            for a in node.args:
                stack.append((a, False))
        else:
            cache[nid] = rebuild(node, tuple(cache[id(a)] for a in node.args))
    return cache[id(term)]


class Substitution:
    """A reusable parallel substitution with a persistent DAG cache.

    The race checker instantiates every access condition and offset
    under the same two thread substitutions; keeping the cache alive
    across calls means shared prefixes (the flow condition of the
    enclosing barrier interval) are rewritten once, ever.
    """

    def __init__(self, mapping: Mapping[Term, Term]) -> None:
        self.mapping: Dict[Term, Term] = dict(mapping)
        self._cache: Dict[int, Term] = {}

    def __call__(self, term: Term) -> Term:
        return substitute(term, self.mapping, self._cache)


class EvaluationError(Exception):
    """Raised when a term cannot be fully evaluated (unbound variable)."""


def evaluate(term: Term, assignment: Mapping[str, int],
             cache: Dict[int, int] | None = None,
             apps: Mapping[Term, int] | None = None) -> int:
    """Concretely evaluate ``term`` under a variable assignment.

    Bitvector results are unsigned ints; boolean results are ``bool``.
    Used by the solver for model validation and by property-based tests
    as the ground-truth semantics.

    Without ``apps`` an uninterpreted application raises
    :class:`EvaluationError`. With ``apps`` (interned application node
    -> value, as in :attr:`repro.smt.solver.Model.apps`) each node reads
    its recorded value, and a node with none reads 0 — the bit-blaster
    gives every application node fresh unconstrained bits, so any value
    is one the SAT core could pick.

    A ``cache`` kept across calls makes re-evaluating terms that share
    subDAGs cost only the nodes not seen before.
    """
    if cache is None:
        cache = {}

    # explicit post-order that skips subDAGs already in the cache
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        nid = id(node)
        if nid in cache:
            continue
        op = node.op
        if op == Op.CONST:
            cache[nid] = node.payload  # type: ignore[assignment]
        elif op == Op.VAR:
            try:
                raw = assignment[node.name]
            except KeyError:
                raise EvaluationError(f"unbound variable {node.name}") from None
            if node.sort is BOOL:
                cache[nid] = bool(raw)
            else:
                assert isinstance(node.sort, BVSort)
                cache[nid] = node.sort.wrap(int(raw))
        elif op == Op.UF and apps is not None:
            assert isinstance(node.sort, BVSort)
            cache[nid] = node.sort.wrap(apps.get(node, 0))
        elif not expanded:
            stack.append((node, True))
            for a in node.args:
                stack.append((a, False))
        else:
            args = [cache[id(a)] for a in node.args]
            cache[nid] = _eval_node(node, args)
    return cache[id(term)]


def _eval_node(node: Term, args: list) -> int:
    op = node.op
    if op in T.CONCRETE_BV_OPS:
        sort = node.sort
        assert isinstance(sort, BVSort)
        return T.CONCRETE_BV_OPS[op](args[0], args[1], sort)
    if op in T.CONCRETE_PRED_OPS:
        arg_sort = node.args[0].sort
        assert isinstance(arg_sort, BVSort)
        return T.CONCRETE_PRED_OPS[op](args[0], args[1], arg_sort)
    if op == Op.EQ:
        return args[0] == args[1]
    if op == Op.NEG:
        sort = node.sort
        assert isinstance(sort, BVSort)
        return sort.wrap(-args[0])
    if op == Op.NOT:
        sort = node.sort
        assert isinstance(sort, BVSort)
        return sort.wrap(~args[0])
    if op == Op.BNOT:
        return not args[0]
    if op == Op.BAND:
        return all(args)
    if op == Op.BOR:
        return any(args)
    if op == Op.BXOR:
        return bool(args[0]) != bool(args[1])
    if op == Op.ITE:
        return args[1] if args[0] else args[2]
    if op == Op.EXTRACT:
        hi, lo = node.payload  # type: ignore[misc]
        return (args[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
    if op == Op.ZEXT:
        return args[0]
    if op == Op.SEXT:
        src_sort = node.args[0].sort
        dst_sort = node.sort
        assert isinstance(src_sort, BVSort) and isinstance(dst_sort, BVSort)
        return dst_sort.wrap(src_sort.to_signed(args[0]))
    if op == Op.CONCAT:
        low = node.args[1]
        return (args[0] << low.width) | args[1]
    if op == Op.UF:
        raise EvaluationError(
            f"uninterpreted application {node.payload} has no concrete value")
    raise EvaluationError(f"cannot evaluate op {op}")
