"""The benchmark's three workloads: inputs, timed rounds and output checks.

A round is one whole pass over a workload's items, started from empty
caches.  ``build_root_system`` is an lru_cache and every derived object
(groups, words, integral data, KL tables, characters) is memoized on the
datum it hangs off, so clearing that one cache and collecting the old data
restores the state of a fresh process.

Each item function takes a ``Trace``.  Untraced, its spans cost a context
manager each and record nothing; traced, they record the layer spans and
counts that become the per-layer metrics.  The traced item calls each layer
in dependency order, so a lower layer's result is memoized before the next
layer runs and each span holds only its own layer's work.
"""

from __future__ import annotations

import gc
import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import oracles
from weylblocks import cat_o, cli, coxeter, hecke, integral, soergel
from weylblocks.rootsys import build_root_system

# -- tracing ------------------------------------------------------------------

# the eight checks `weylblocks run` registers; every corpus entry runs them
CORPUS_CHECKS = ("tau_homomorphism", "semidirect", "integral_consistency",
                 "subgeneric_certificates", "xi_triple_count",
                 "translate_verma", "rewriter", "hecke_block")

LAYER_SPANS = (
    "rootsys.build", "coxeter.generate_group", "coxeter.double_cosets",
    "integral.integral_datum", "integral.enumerate_xi",
    "soergel.indecomposable_index", "soergel.normalize", "hecke.kl_table",
    "hecke.bs_character", "hecke.decompose", "cat_o.dominant_character",
    "cli.load_corpus",
) + tuple(f"cli.check.{name}" for name in CORPUS_CHECKS)


class Trace:
    """Spans and counts kept in memory; written out once the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.built: set = set()  # what this round has built, to count once
        self._item = None

    @contextmanager
    def item(self, label: str):
        if not self.enabled:
            yield
            return
        span = {"name": "item", "item": len(self.spans), "label": label,
                "parent": None, "start": time.perf_counter()}
        self.spans.append(span)
        self._item = span
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._item = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._item
        span = {"name": name, "item": parent["item"] if parent else None,
                "parent": parent["item"] if parent else None,
                "start": time.perf_counter()}
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self.spans.append(span)

    def first_build(self, obj) -> bool:
        """True the first time obj is seen since the last cold start."""
        if not self.enabled or obj in self.built:
            return False
        self.built.add(obj)
        return True

    def layer_seconds(self) -> dict:
        out = dict.fromkeys(LAYER_SPANS, 0.0)
        for s in self.spans:
            if s["name"] != "item":
                out[s["name"]] += s["end"] - s["start"]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def cold_start(tr: Trace) -> None:
    """Drop every memoized datum, as a fresh process would start."""
    tr.built.clear()
    build_root_system.cache_clear()
    gc.collect()


def weight(text: str) -> tuple:
    return tuple(Fraction(x) for x in text.split(","))


def fmt(w) -> str:
    return ",".join(str(x) for x in w)


class Round:
    """Outcome of one round: per-item times, the timed wall time, and the
    items that failed (raised) or produced output that failed a check."""

    def __init__(self):
        self.item_seconds: list[float] = []
        self.timed_seconds = 0.0
        self.failed = 0
        self.wrong: list[str] = []


# -- corpus: `weylblocks run` on the bundled corpus ---------------------------

class Corpus:
    """All eight registered checks on each of the 48 bundled entries, the
    run's seed as the corpus seed; one round is one cold `weylblocks run`."""

    def __init__(self, seed: int):
        self.seed = seed
        with open(cli.default_corpus_path(), encoding="utf-8") as fh:
            self.doc = json.load(fh)
        self.entries = cli.load_corpus(self.doc)
        self.size = len(self.entries)

    def round(self, tr: Trace) -> Round:
        out = Round()
        cold_start(tr)
        start = time.perf_counter()
        if tr.enabled:
            for label in sorted({e.type_label for e in self.entries}):
                with tr.span("rootsys.build"):
                    build_root_system(label)
        with tr.span("cli.load_corpus"):
            entries = cli.load_corpus(self.doc)
        for entry in entries:
            t0 = time.perf_counter()
            try:
                if tr.enabled:
                    checks = self._traced_entry(entry, tr)
                else:
                    checks, _ = cli.run_entry(entry, self.seed,
                                              coxeter.DEFAULT_GROUP_BOUND)
            except Exception as exc:  # the item failed; the run goes on
                out.failed += 1
                out.wrong.append(f"entry {entry.index}: {exc!r}")
                continue
            out.item_seconds.append(time.perf_counter() - t0)
            self._check(entry, checks, out)
        out.timed_seconds = time.perf_counter() - start
        return out

    def _traced_entry(self, entry, tr: Trace) -> dict:
        """run_entry's loop over cli.CHECKS with the same per-check seeds,
        with the group, the integral datum and the KL table built first."""
        with tr.item(f"{entry.index}:{entry.type_label}"):
            datum = build_root_system(entry.type_label)
            traced_group(datum, tr)
            idat = traced_integral(datum, entry.lam, tr)
            traced_kl(idat, tr)
            checks = {}
            for name, fn in cli.CHECKS:
                rng = random.Random(f"{self.seed}:{entry.index}:{name}")
                with tr.span(f"cli.check.{name}"):
                    try:
                        status, witness = fn(datum, idat, entry, rng)
                    except Exception as exc:  # as run_entry reports it
                        status, witness = "fail", repr(exc)
                checks[name] = {"status": status, "witness": witness}
            return checks

    @staticmethod
    def _check(entry, checks: dict, out: Round) -> None:
        if set(checks) != set(CORPUS_CHECKS):
            out.wrong.append(f"entry {entry.index}: ran checks "
                             f"{sorted(checks)}, not the eight registered")
        for name, res in checks.items():
            if res["status"] == "fail":
                out.wrong.append(f"entry {entry.index}: {name} failed: "
                                 f"{res.get('witness')}")


def traced_group(datum, tr: Trace) -> None:
    with tr.span("coxeter.generate_group"):
        group = coxeter.generate_group(datum)
    if tr.first_build(datum):
        tr.counts["coxeter.group_elements"] += len(group)


def traced_integral(datum, lam, tr: Trace):
    with tr.span("integral.integral_datum"):
        idat = integral.integral_datum(datum, lam)
    if tr.first_build(idat):
        tr.counts["integral.w_ext_elements"] += len(idat.w_ext)
        tr.counts["integral.w_elements"] += oracles.weyl_order(datum.type_label)
    return idat


def traced_kl(idat, tr: Trace):
    with tr.span("hecke.kl_table"):
        cache = hecke.kl_cache(idat)
    if tr.first_build(cache):
        tr.counts["hecke.kl_entries"] += sum(
            len(cache.expansion(w)) for w in idat.int_elements())
    return cache


# -- characters: Freudenthal over dominant weights up to a dimension cap ------

# type -> Weyl-dimension cap.  The criterion-9 family, where A1 strings are
# most of the count, plus the rank-4 types A4 and D4, where the string sums
# run over many roots and D4 pays for a whole group enumeration.
CHARACTER_CAPS = {"A1": 400, "A2": 1000, "A3": 1000, "B2": 1000, "B3": 1000,
                  "C3": 1000, "G2": 1000, "A4": 2000, "D4": 2000}


class Characters:
    """One dominant_character call per dominant integral highest weight up
    to each type's cap, in an order shuffled by the seed."""

    def __init__(self, seed: int):
        self.oracle = {}
        self.orbit_sizes = {}
        items = []
        for label, cap in CHARACTER_CAPS.items():
            cartan = build_root_system(label).cartan_matrix
            coroots = oracles.positive_coroots(cartan)
            if len(coroots) != oracles.POSITIVE_ROOTS[label[0]](len(cartan)):
                raise AssertionError(f"{label}: wrong positive coroot count")
            self.oracle[label] = (cartan, coroots, oracles.inverse(cartan),
                                  oracles.highest_root(cartan))
            items += [(label, w) for w in oracles.dominant_weights_up_to(
                coroots, len(cartan), cap)]
        random.Random(f"{seed}:characters").shuffle(items)
        self.items = [(label, tuple(Fraction(x) for x in w))
                      for label, w in items]
        self.size = len(self.items)

    def round(self, tr: Trace) -> Round:
        out = Round()
        cold_start(tr)
        results = []
        start = time.perf_counter()
        for label, highest in self.items:
            t0 = time.perf_counter()
            try:
                with tr.item(label):
                    with tr.span("rootsys.build"):
                        datum = build_root_system(label)
                    if tr.enabled:
                        traced_group(datum, tr)
                    with tr.span("cat_o.dominant_character"):
                        char = cat_o.dominant_character(datum, highest)
            except Exception as exc:  # the item failed; the run goes on
                out.failed += 1
                out.wrong.append(f"{label} {fmt(highest)}: {exc!r}")
                continue
            out.item_seconds.append(time.perf_counter() - t0)
            results.append((label, highest, char))
        out.timed_seconds = time.perf_counter() - start
        for label, highest, char in results:
            tr.counts["cat_o.dominant_weights"] += len(char)
            problem = self.check(label, highest, char)
            if problem:
                out.wrong.append(f"{label} {fmt(highest)}: {problem}")
        return out

    def orbit_size(self, label, cartan, nu) -> int:
        """W-orbit size of a dominant weight, which depends only on the
        coordinates that vanish (they generate its stabilizer)."""
        key = (label, tuple(x == 0 for x in nu))
        if key not in self.orbit_sizes:
            self.orbit_sizes[key] = oracles.orbit_size(cartan, nu)
        return self.orbit_sizes[key]

    def check(self, label, highest, char) -> str | None:
        cartan, coroots, inv, adjoint = self.oracle[label]
        top = tuple(int(x) for x in highest)
        if char.get(highest) != 1:
            return "highest weight multiplicity is not 1"
        for nu in char:
            if any(x.denominator != 1 or x < 0 for x in nu):
                return f"weight {fmt(nu)} is not dominant integral"
            if not oracles.below_in_root_cone(inv, highest, nu):
                return f"weight {fmt(nu)} is not below the highest weight"
        mass = sum(m * self.orbit_size(label, cartan, nu)
                   for nu, m in char.items())
        if mass != oracles.weyl_dimension(coroots, top):
            return f"mass {mass} differs from the Weyl dimension"
        if label == "A1":
            expect = {(Fraction(top[0] - 2 * k),): 1
                      for k in range(top[0] // 2 + 1)}
            if char != expect:
                return "A1 character differs from {m - 2k: 1}"
        if top == adjoint and char.get((Fraction(0),) * len(top)) != len(top):
            return "adjoint zero-weight multiplicity differs from the rank"
        return None


# -- blocks: cold nonintegral blocks on groups beyond the corpus -------------

# (type, lambda, mu): lambda and mu dominant with mu - lambda a lattice
# weight, mu singular so the double cosets are proper.  Half-integral,
# third-integral (A5) and integral lambda; |C| = 2 on D4, C4 and D5;
# W_int = W on D4 with lambda = 0.  One item per group beyond D4 keeps a
# round, whose cost is mostly cold group enumeration, near half a minute.
BLOCK_ITEMS = (
    ("D4", "0,0,0,0", "0,-1,0,0"),
    ("D4", "1/2,0,0,0", "1/2,0,-1,0"),
    ("B4", "1/2,-1,0,0", "1/2,0,0,-1"),
    ("C4", "0,0,0,1/2", "0,-1,0,1/2"),
    ("A5", "1/3,0,0,0,0", "1/3,0,-1,0,0"),
    ("F4", "0,0,0,1/2", "0,-1,0,1/2"),
    ("D5", "1/2,0,0,0,0", "1/2,-1,0,0,0"),
)
WORDS_PER_BLOCK = 8


class Blocks:
    """Each item is one block computed from cold caches, as a fresh
    `weylblocks` process would: the integral datum, the double cosets of the
    (mu, lambda) stabilizers in W_ext, the indecomposable labels, Xi, the KL
    table, then normalize, bs_character and decompose on seeded words."""

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:blocks")
        self.items = []
        for label, lam, mu in BLOCK_ITEMS:
            build_root_system(label)
            # a letter is ("B", r) -> Bs(1 + r mod rank) or ("R", r) ->
            # Rw(r-th chamber element mod |C|), resolved once the block exists
            words = [[("B" if rng.randrange(5) < 3 else "R", rng.randrange(1 << 16))
                      for _ in range(rng.randint(3, 7))]
                     for _ in range(WORDS_PER_BLOCK)]
            self.items.append((label, weight(lam), weight(mu), words))
        self.size = len(self.items)

    def round(self, tr: Trace) -> Round:
        out = Round()
        for label, lam, mu, words in self.items:
            cold_start(tr)
            t0 = time.perf_counter()
            try:
                result = self.block(tr, label, lam, mu, words)
            except Exception as exc:  # the item failed; the run goes on
                out.failed += 1
                out.wrong.append(f"{label} lambda={fmt(lam)}: {exc!r}")
                continue
            elapsed = time.perf_counter() - t0
            out.item_seconds.append(elapsed)
            out.timed_seconds += elapsed
            problem = self.check(label, *result)
            if problem:
                out.wrong.append(f"{label} lambda={fmt(lam)}: {problem}")
        return out

    @staticmethod
    def block(tr: Trace, label, lam, mu, words):
        with tr.item(label):
            with tr.span("rootsys.build"):
                datum = build_root_system(label)
            traced_group(datum, tr)
            idat = traced_integral(datum, lam, tr)
            with tr.span("coxeter.double_cosets"):
                dc = coxeter.double_cosets(
                    datum, frozenset(idat.w_ext),
                    coxeter.dot_stabilizer(datum, mu),
                    coxeter.dot_stabilizer(datum, lam))
            with tr.span("soergel.indecomposable_index"):
                labels = soergel.indecomposable_index(datum, mu, lam)
            with tr.span("integral.enumerate_xi"):
                xi = integral.enumerate_Xi(datum, mu, lam)
            cache = traced_kl(idat, tr)
            chamber = idat.chamber.sorted_elements
            decomposed = []
            for spec in words:
                letters = [soergel.BsLetter(1 + r % idat.rank) if kind == "B"
                           else soergel.RwLetter(chamber[r % len(chamber)])
                           for kind, r in spec]
                with tr.span("soergel.normalize"):
                    word = soergel.normalize(soergel.make_word(idat, letters))
                with tr.span("hecke.bs_character"):
                    image = hecke.bs_character(idat, word)
                with tr.span("hecke.decompose"):
                    mults = hecke.decompose(idat, image, cache)
                decomposed.append((word.bs_count, image, mults))
        return idat, dc, labels, xi, cache, decomposed

    @staticmethod
    def check(label, idat, dc, labels, xi, cache, decomposed) -> str | None:
        w_ext = len(idat.w_ext)
        if idat.chamber.order * idat.w_int.order != w_ext:
            return "|C| * |W_int| != |W_ext|"
        if oracles.weyl_order(label) % w_ext:
            return "|W_ext| does not divide |W|"
        if not len(xi) == dc.count == len(labels):
            return (f"|Xi| = {len(xi)}, double cosets = {dc.count}, "
                    f"labels = {len(labels)} disagree")
        for bs, image, mults in decomposed:
            if sum(p.at_one() for p in image.terms.values()) != 2 ** bs:
                return f"bs_character of a word with {bs} Bs letters " \
                       "does not sum to 2^#Bs at v = 1"
            total = sum(m * sum(p.at_one() for p in cache.expansion(x).values())
                        for (_, x), m in mults.items())
            if total != 2 ** bs:
                return f"decomposition of a word with {bs} Bs letters " \
                       "does not sum to 2^#Bs at v = 1"
        return None


WORKLOADS = {"corpus": Corpus, "characters": Characters, "blocks": Blocks}
