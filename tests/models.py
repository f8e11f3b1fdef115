"""Random Kripke models and the text fixture format, for the tests.

``random_model`` draws a small model for the per-model checks against the
reference oracle ``eval_at``; ``parse_model`` reads the fixture format
``worlds=n; rel={(0,1)}; 'i=0; p={0,2}; x=1``.
"""

from __future__ import annotations

import random
import re
from typing import Iterable

from hybridcorr.semantics import KripkeFrame, KripkeModel
from hybridcorr.syntax import Kind, Symbol


def random_model(
    rng: random.Random,
    prop_syms: Iterable[Symbol],
    nom_syms: Iterable[Symbol],
    max_worlds: int = 3,
) -> KripkeModel:
    n = rng.randint(1, max_worlds)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    rel = frozenset(p for p in pairs if rng.random() < 0.5)
    frame = KripkeFrame(n, rel)
    pv = {
        s: frozenset(w for w in range(n) if rng.random() < 0.5) for s in prop_syms
    }
    nv = {s: rng.randrange(n) for s in nom_syms}
    return KripkeModel(frame, pv, nv)


_MODEL_ITEM = re.compile(r"^\s*(worlds|rel|'[a-z]\w*|[a-z]\w*)\s*=\s*(.*?)\s*$")


def parse_model(text: str) -> tuple[KripkeModel, dict[Symbol, int]]:
    """Parse the fixture format ``worlds=n; rel={(0,1)}; 'i=0; p={0,2}; x=1``.

    Returns the model and an assignment for any state variables mentioned.
    """
    size: int | None = None
    rel: frozenset[tuple[int, int]] = frozenset()
    pv: dict[Symbol, frozenset[int]] = {}
    nv: dict[Symbol, int] = {}
    g: dict[Symbol, int] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        m = _MODEL_ITEM.match(part)
        if not m:
            raise ValueError(f"cannot parse model item {part!r}")
        key, value = m.group(1), m.group(2)
        if key == "worlds":
            size = int(value)
        elif key == "rel":
            pairs = re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", value)
            rel = frozenset((int(a), int(b)) for a, b in pairs)
        elif key.startswith("'"):
            nv[Symbol(Kind.NOM, key[1:])] = int(value)
        elif value.startswith("{"):
            worlds = frozenset(int(w) for w in re.findall(r"\d+", value))
            pv[Symbol(Kind.PROP, key)] = worlds
        else:
            kind = Kind.SVAR if key[0] in "xyz" else Kind.PROP
            if kind is Kind.SVAR:
                g[Symbol(Kind.SVAR, key)] = int(value)
            else:
                pv[Symbol(Kind.PROP, key)] = frozenset({int(value)})
    if size is None:
        raise ValueError("model text must set worlds=n")
    return KripkeModel(KripkeFrame(size, rel), pv, nv), g
