"""Translation of OQL into the monoid calculus (section 3 of the paper).

The major rules, quoted in calculus notation:

===============================  =============================================
OQL                              calculus
===============================  =============================================
select distinct e from x1 in     ``set{ e | x1 <- E1, ..., p }``
E1, ... where p
select e from ... where p        ``bag{ e | ..., p }``
exists x in E : p                ``some{ p | x <- E }``
for all x in E : p               ``all{ p | x <- E }``
e1 in e2                         ``some{ x = e1 | x <- e2 }``
sum(E)                           ``sum{ x | x <- E }``
count(E)                         builtin ``count`` — the paper notes
                                 ``hom[set -> sum]`` is *not* well formed,
                                 so cardinality is a primitive, not a hom
sort x in E by f                 ``sorted[f]{ x | x <- E }`` (set inputs) or
                                 ``sortedbag[f]{ x | x <- E }`` (bags/lists)
order by k1, ...                 sort of ``<k=keys, v=head>`` pairs followed
                                 by a projection comprehension
group by l1: k1, ... [having h]  a comprehension over the *set of distinct
                                 key tuples*, each with a nested ``bag``
                                 partition — showing off nested queries
exists(select ...)               ``some{ true | x <- (select ...) }``
===============================  =============================================

Every translation produces a plain calculus term; the normalizer then
flattens whatever nesting the translation introduced (that division of
labour — naive translation, powerful normalization — is the paper's
architecture).
"""

from __future__ import annotations

from typing import Optional

from repro.calculus.ast import (
    BinOp,
    Comprehension,
    Const,
    Empty,
    Filter,
    Generator,
    Lambda,
    Merge,
    MonoidRef,
    Proj,
    Qualifier,
    Singleton,
    Term,
    TupleCons,
    UnOp,
    Var,
)
from repro.calculus.builders import bind, call, comp, eq, gen, method, proj, rec, var
from repro.calculus.traversal import fresh_var
from repro.db.catalog import Catalog
from repro.errors import TranslationError, TypingError, WellFormednessError
from repro.oql.ast import (
    Aggregate,
    BinaryOp,
    CallOp,
    CollectionExpr,
    Exists,
    ExistsQuery,
    ForAll,
    IfExpr,
    IndexOp,
    Literal,
    MethodOp,
    Name,
    OQLNode,
    OrderItem,
    Param,
    Path,
    Select,
    SortExpr,
    StructExpr,
    UnaryOp,
)
from repro.oql.parser import parse
from repro.span import set_span, span_of
from repro.types.infer import TypeChecker
from repro.types.schema import Schema
from repro.types.types import TColl

_SIMPLE_AGGREGATES = {"sum": "sum", "max": "max", "min": "min"}


class Translator:
    """Maps OQL syntax trees into calculus terms.

    A ``sort``/``order by`` input typed a set in ``catalog`` (a
    database's, else an empty one over ``schema``) gets the duplicate-
    eliminating ``sorted`` monoid, any other ``sortedbag``, mirroring
    the paper's well-formedness lattice.
    """

    def __init__(self, schema: Optional[Schema] = None, catalog: Optional[Catalog] = None) -> None:
        self.schema = schema
        self.catalog = catalog if catalog is not None else Catalog(schema)

    # -- public API -----------------------------------------------------------

    def translate(self, node: OQLNode) -> Term:
        """Translate an OQL syntax tree into a calculus term."""
        return self._tr(node)

    def translate_text(self, source: str) -> Term:
        """Parse and translate OQL text.

        >>> t = Translator().translate_text(
        ...     "select distinct c.name from c in Cities")
        >>> str(t)
        'set{ c.name | c <- Cities }'
        """
        return self._tr(parse(source))

    # -- dispatcher --------------------------------------------------------------

    def _tr(self, node: OQLNode) -> Term:
        """Translate one node, copying its source span onto the term.

        Spans make :mod:`repro.lint` diagnostics point back into the
        OQL text; terms synthesized during translation (fresh
        comprehensions, witnesses) inherit the span of the OQL
        construct they came from.
        """
        term = self._tr_node(node)
        if span_of(term) is None:
            set_span(term, span_of(node))
        return term

    def _tr_node(self, node: OQLNode) -> Term:
        if isinstance(node, Literal):
            return Const(node.value)
        if isinstance(node, Name):
            return Var(node.name)
        if isinstance(node, Param):
            # The '$' prefix survives into the calculus: no identifier
            # can collide with it, and the evaluator resolves it from a
            # per-execution binding installed by Prepared.run.
            return Var("$" + node.name)
        if isinstance(node, Path):
            return Proj(self._tr(node.base), node.field)
        if isinstance(node, IndexOp):
            from repro.calculus.ast import Index

            return Index(self._tr(node.base), self._tr(node.index))
        if isinstance(node, CallOp):
            return call(node.name, *[self._tr(a) for a in node.args])
        if isinstance(node, MethodOp):
            return method(self._tr(node.base), node.name, *[self._tr(a) for a in node.args])
        if isinstance(node, UnaryOp):
            return UnOp(node.op, self._tr(node.operand))
        if isinstance(node, BinaryOp):
            return self._tr_binary(node)
        if isinstance(node, IfExpr):
            from repro.calculus.ast import If

            return If(self._tr(node.cond), self._tr(node.then_branch), self._tr(node.else_branch))
        if isinstance(node, StructExpr):
            from repro.calculus.ast import RecordCons

            return RecordCons(tuple((name, self._tr(value)) for name, value in node.fields))
        if isinstance(node, CollectionExpr):
            return self._tr_collection(node)
        if isinstance(node, Select):
            return self._tr_select(node)
        if isinstance(node, Exists):
            return comp("some", self._tr(node.pred), [gen(node.var, self._tr(node.source))])
        if isinstance(node, ForAll):
            return comp("all", self._tr(node.pred), [gen(node.var, self._tr(node.source))])
        if isinstance(node, ExistsQuery):
            witness = fresh_var("w")
            return comp("some", Const(True), [gen(witness, self._tr(node.query))])
        if isinstance(node, Aggregate):
            return self._tr_aggregate(node)
        if isinstance(node, SortExpr):
            return self._tr_sort(node)
        raise TranslationError(f"cannot translate {type(node).__name__}")

    # -- operators ------------------------------------------------------------------

    def _tr_binary(self, node: BinaryOp) -> Term:
        left = self._tr(node.left)
        right = self._tr(node.right)
        if node.op == "in":
            # e1 in e2  =>  some{ x = e1 | x <- e2 }
            witness = fresh_var("x")
            return comp("some", eq(var(witness), left), [gen(witness, right)])
        if node.op == "like":
            return call("like", left, right)
        return BinOp(node.op, left, right)

    def _tr_collection(self, node: CollectionExpr) -> Term:
        monoid = MonoidRef(node.kind)
        result: Term = Empty(monoid)
        for item in reversed(node.items):
            result = Merge(monoid, Singleton(monoid, self._tr(item)), result)
        return result

    # -- aggregates --------------------------------------------------------------------

    def _tr_aggregate(self, node: Aggregate) -> Term:
        arg = self._tr(node.arg)
        if node.op in _SIMPLE_AGGREGATES:
            element = fresh_var("a")
            return comp(_SIMPLE_AGGREGATES[node.op], var(element), [gen(element, arg)])
        if node.op == "count":
            # Set cardinality is not a well-formed hom[set -> sum]; OQL's
            # count is therefore a language primitive (builtin).
            return call("count", arg)
        if node.op == "avg":
            return call("avg", arg)
        raise TranslationError(f"unknown aggregate {node.op!r}")

    # -- sorting ------------------------------------------------------------------------

    def _sorted_kind(self, source: Term) -> str:
        """``sorted`` when the input is statically a set, else ``sortedbag``
        (an input that does not type, e.g. one naming an outer variable)."""
        try:
            ty = TypeChecker(self.schema).infer(source, self.catalog.types())
        except (TypingError, WellFormednessError):
            return "sortedbag"
        return "sorted" if isinstance(ty, TColl) and ty.monoid == "set" else "sortedbag"

    def _order_key(self, items: tuple[OrderItem, ...], translate) -> Term:
        """Build the sort-key tuple; ``desc`` negates (numeric keys)."""
        keys = []
        for item in items:
            key = translate(item.key)
            if item.descending:
                key = UnOp("-", key)
            keys.append(key)
        if len(keys) == 1:
            return keys[0]
        return TupleCons(tuple(keys))

    def _tr_sort(self, node: SortExpr) -> Term:
        source = self._tr(node.source)
        key = self._order_key(node.keys, self._tr)
        kind = self._sorted_kind(source)
        ref = MonoidRef(kind, key=Lambda(node.var, key))
        return Comprehension(ref, Var(node.var), (Generator(node.var, source),))

    # -- select-from-where ------------------------------------------------------------------

    def _tr_select(self, node: Select) -> Term:
        if node.group_by:
            return self._tr_group_select(node)
        qualifiers = self._tr_from_where(node)
        head = self._tr(node.head)
        if node.order_by:
            return self._tr_ordered_select(node, head, qualifiers, node.distinct)
        monoid = "set" if node.distinct else "bag"
        result = Comprehension(MonoidRef(monoid), head, qualifiers)
        if node.distinct:
            # The duplicate elimination was asked for in the source
            # (``select distinct``); the linter's implicit-dedup pass
            # (QL101) must not flag it.
            object.__setattr__(result, "explicit_dedup", True)
        return result

    def _tr_from_where(self, node: Select) -> tuple[Qualifier, ...]:
        qualifiers: list[Qualifier] = []
        for clause in node.from_clauses:
            generator = Generator(clause.var, self._tr(clause.source))
            set_span(generator, span_of(clause))
            qualifiers.append(generator)
        if node.where is not None:
            where = Filter(self._tr(node.where))
            set_span(where, span_of(node.where))
            qualifiers.append(where)
        return tuple(qualifiers)

    def _tr_ordered_select(
        self, node: Select, head: Term, qualifiers: tuple[Qualifier, ...], distinct: bool
    ) -> Term:
        # sorted/sortedbag of <k=key, v=head> pairs, then project v.
        key = self._order_key(node.order_by, self._tr)
        pair_head = rec(k=key, v=head)
        pair_var = fresh_var("p")
        kind = "sorted" if distinct else "sortedbag"
        ref = MonoidRef(kind, key=Lambda(pair_var, proj(var(pair_var), "k")))
        pairs = Comprehension(ref, pair_head, qualifiers)
        out = fresh_var("r")
        return comp("list", proj(var(out), "v"), [gen(out, pairs)])

    # -- group by -----------------------------------------------------------------------------

    def _tr_group_select(self, node: Select) -> Term:
        """ODMG group-by via nested comprehensions.

        ``select H from x in E where P group by l1: k1, ... having G``
        becomes::

            set{ H' | g <- set{ <l1=k1', ...> | x <- E', P' },
                      l1 == g.l1, ...,
                      partition == bag{ x | x <- E', P', k1'=g.l1, ... },
                      G' }

        where H' and G' may reference the group labels and
        ``partition`` — a faithful rendering of the ODMG semantics that
        exercises nested comprehensions exactly as the paper advertises.
        An ``order by`` (its keys see the same names) sorts that set.
        """
        base_quals = self._tr_from_where(node)
        group_var = fresh_var("g")
        # (label, key, g.label); the key set and the filters share each key
        keys = [
            (item.label, self._tr(item.key), proj(var(group_var), item.label))
            for item in node.group_by
        ]
        key_set = Comprehension(
            MonoidRef("set"), rec(**{label: key for label, key, _ in keys}), base_quals
        )
        # Group keys deduplicate by design: not an implicit-dedup hazard.
        object.__setattr__(key_set, "explicit_dedup", True)

        qualifiers: list[Qualifier] = [Generator(group_var, key_set)]
        qualifiers += [bind(label, of_group) for label, _, of_group in keys]

        partition_quals = list(base_quals)
        for _, key, of_group in keys:
            # Against ``g.label``, not the label: a ``from`` variable of
            # the same name would capture it inside the partition.
            key_filter = Filter(eq(key, of_group))
            # Not a selection the user wrote: the query runs as one
            # grouping pass, so the linter must not offer an index for
            # it (QL303/QL402).
            object.__setattr__(key_filter, "group_key", True)
            partition_quals.append(key_filter)
        froms = node.from_clauses
        partition = Comprehension(
            MonoidRef("bag"),
            var(froms[0].var) if len(froms) == 1 else rec(**{c.var: var(c.var) for c in froms}),
            tuple(partition_quals),
        )
        # The partition is a bag by ODMG fiat even over set sources;
        # the linter must not pin that C/I mismatch on the user.
        object.__setattr__(partition, "implicit_collection", True)
        qualifiers.append(bind("partition", partition))

        if node.having is not None:
            qualifiers.append(Filter(self._tr(node.having)))

        head = self._tr(node.head)
        if node.order_by:
            return self._tr_ordered_select(node, head, tuple(qualifiers), True)
        return Comprehension(MonoidRef("set"), head, tuple(qualifiers))


def translate_oql(source: str, schema: Optional[Schema] = None) -> Term:
    """Parse and translate one OQL query.

    >>> str(translate_oql("exists h in hotels : h.stars > 4"))
    'some{ (h.stars > 4) | h <- hotels }'
    """
    return Translator(schema).translate_text(source)
