"""Random generation of skeletal-Sahlqvist inequalities, by construction.

The generator fixes an order type first, grows each side of the inequality
as a signed tree whose critical branches use skeletal connectives only, and
fills the remaining slots with subtrees in which every propositional
variable carries the opposite-order-type sign (so those occurrences are
never critical).  Binder variables are always fresh and every output is a
sentence, which keeps every reduction step in nominal territory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .classify import SKELETAL_NODES, OrderType, Pol, Sign, is_skeletal_sahlqvist
from .syntax import (
    BOT,
    TOP,
    And,
    At,
    Box,
    Dia,
    Down,
    Formula,
    Implies,
    Inequality,
    Nom,
    Not,
    Or,
    Prop,
    Svar,
    Symbol,
    nom,
    prop,
    svar,
)

# The spine labels of each sign, in the skeletal table's order; the
# generator's draws, and so every seeded input set, depend on that order.
_SPINE_LABELS = {
    sign: tuple(label for s, label in SKELETAL_NODES if s is sign) for sign in Sign
}

# The chance that a "down" spine label grows a binder rather than being skipped.
_BINDER_PROBABILITY = 0.5


@dataclass
class GeneratorConfig:
    max_depth: int = 5
    max_props: int = 3
    max_nominals: int = 2
    filler_depth: int = 2


class SkeletalGenerator:
    """Draws inequalities that classify for a pre-chosen order type."""

    def __init__(self, seed: int = 0, config: GeneratorConfig | None = None):
        self.rng = random.Random(seed)
        self.config = config or GeneratorConfig()
        self._svar_counter = 0

    def order_type(self) -> OrderType:
        n = self.rng.randint(1, self.config.max_props)
        syms = [prop(f"p{k + 1}") for k in range(n)]
        return OrderType(
            tuple((s, self.rng.choice((Pol.ONE, Pol.PARTIAL))) for s in syms)
        )

    def inequality(self) -> tuple[Inequality, OrderType]:
        eps = self.order_type()
        self._svar_counter = 0
        lhs = self._side(Sign.PLUS, eps)
        rhs = self._side(Sign.MINUS, eps)
        ineq = Inequality(lhs, rhs)
        assert is_skeletal_sahlqvist(ineq, eps), f"generator broke its contract on {ineq}"
        return ineq, eps

    # -- internals ---------------------------------------------------------

    def _fresh_svar(self) -> Symbol:
        self._svar_counter += 1
        return svar(f"x{self._svar_counter}")

    def _nominal(self) -> Symbol:
        return nom(f"n{self.rng.randint(1, self.config.max_nominals)}")

    def _side(self, sign: Sign, eps: OrderType) -> Formula:
        # A side with no critical material at all is fine too (vacuously
        # skeletal); bias towards carrying at least one critical branch.
        if self.rng.random() < 0.15:
            return self._filler(sign, eps, self.config.filler_depth, ())
        return self._spine(sign, eps, self.config.max_depth, ())

    def _critical_leaf(self, sign: Sign, eps: OrderType) -> Formula:
        matching = [p for p in eps.symbols() if eps.indicated_sign(p) is sign]
        if not matching:
            return self._pure_leaf(())
        return Prop(self.rng.choice(matching))

    def _spine(self, sign: Sign, eps: OrderType, depth: int, scope: tuple[Symbol, ...]) -> Formula:
        """Grow a branch of skeletal nodes ending in a critical leaf."""
        if depth <= 0 or self.rng.random() < 0.25:
            return self._critical_leaf(sign, eps)
        label = self.rng.choice(_SPINE_LABELS[sign])
        d = depth - 1
        if label == "not":
            return Not(self._spine(sign.flip(), eps, d, scope))
        if label == "dia":
            return Dia(self._spine(sign, eps, d, scope))
        if label == "box":
            return Box(self._spine(sign, eps, d, scope))
        if label == "down":
            if self.rng.random() > _BINDER_PROBABILITY:
                return self._spine(sign, eps, d, scope)
            x = self._fresh_svar()
            return Down(x, self._spine(sign, eps, d, scope + (x,)))
        if label == "at":
            term = self._at_term(scope)
            return At(term, self._spine(sign, eps, d, scope))
        if label == "implies":
            # Only skeletal with sign minus: antecedent flips to plus.
            left = self._grow_or_fill(sign.flip(), eps, d, scope)
            right = self._grow_or_fill(sign, eps, d, scope)
            return Implies(left, right)
        # or / and: either child may carry the critical branch.
        a = self._grow_or_fill(sign, eps, d, scope)
        b = self._grow_or_fill(sign, eps, d, scope)
        build = Or if label == "or" else And
        return build(a, b)

    def _grow_or_fill(self, sign: Sign, eps: OrderType, depth: int, scope: tuple[Symbol, ...]) -> Formula:
        if self.rng.random() < 0.6:
            return self._spine(sign, eps, depth, scope)
        return self._filler(sign, eps, min(depth, self.config.filler_depth), scope)

    def _at_term(self, scope: tuple[Symbol, ...]) -> Symbol:
        if scope and self.rng.random() < 0.5:
            return self.rng.choice(scope)
        return self._nominal()

    def _pure_leaf(self, scope: tuple[Symbol, ...]) -> Formula:
        choices: list[Formula] = [TOP, BOT, Nom(self._nominal())]
        if scope:
            choices.append(Svar(self.rng.choice(scope)))
        return self.rng.choice(choices)

    def _filler(self, sign: Sign, eps: OrderType, depth: int, scope: tuple[Symbol, ...]) -> Formula:
        """Arbitrary connectives; propositional leaves only where the sign
        matches the opposite order type, so nothing here is critical."""
        if depth <= 0 or self.rng.random() < 0.4:
            opp = eps.opposite()
            matching = [p for p in eps.symbols() if opp.indicated_sign(p) is sign]
            if matching and self.rng.random() < 0.5:
                return Prop(self.rng.choice(matching))
            return self._pure_leaf(scope)
        label = self.rng.choice(
            ("or", "and", "implies", "not", "dia", "box", "down", "at")
        )
        d = depth - 1
        if label == "not":
            return Not(self._filler(sign.flip(), eps, d, scope))
        if label == "dia":
            return Dia(self._filler(sign, eps, d, scope))
        if label == "box":
            return Box(self._filler(sign, eps, d, scope))
        if label == "down":
            x = self._fresh_svar()
            return Down(x, self._filler(sign, eps, d, scope + (x,)))
        if label == "at":
            return At(self._at_term(scope), self._filler(sign, eps, d, scope))
        if label == "implies":
            return Implies(
                self._filler(sign.flip(), eps, d, scope),
                self._filler(sign, eps, d, scope),
            )
        build = Or if label == "or" else And
        return build(self._filler(sign, eps, d, scope), self._filler(sign, eps, d, scope))
