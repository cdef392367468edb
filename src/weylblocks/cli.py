"""Command-line frontend and batch corpus runner.

Single-shot verbs emit one JSON document on stdout (diagnostics on stderr);
``run`` executes the registered invariant checks over a corpus file and
writes a deterministic JSON report (timings are kept out of the report
unless --timings is passed, so two seeded runs are byte-identical).
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from importlib import resources

from . import cat_o, hecke, jsonio, soergel
from .coxeter import (
    DEFAULT_GROUP_BOUND,
    double_cosets,
    dot_stabilizer,
    weyl_element_at,
)
from .integral import (
    dominant_dot_rep,
    enumerate_Xi,
    find_regular_dominant,
    find_subgeneric,
    integral_datum,
    lambda_sharp,
    lattice_mover,
    tau,
)
from .jsonio import SchemaError
from .rootsys import (
    GroupBoundExceeded,
    UnknownTypeError,
    _is_lattice,
    _mat_nums,
    _numerators,
    _orbit,
    _rho_shifted,
    build_root_system,
    classify_weight,
    dominant_dot_weight,
    dot_action,
    torsion_group,
    weyl_order,
)

DEFAULT_SEED = 20250801


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# single-shot verbs
# ---------------------------------------------------------------------------

def cmd_integral(args) -> int:
    datum = build_root_system(args.type)
    lam = jsonio.parse_weight(datum, getattr(args, "lambda"))
    idat = integral_datum(datum, lam, args.bound)
    n = len(idat.int_elements())  # w_ext[i] lies in chamber coset i // n
    doc = {
        "type": datum.type_label,
        "lambda": jsonio.weight_to_json(lam),
        "integral_simples": [list(r.simple_coords)
                             for r in idat.integral_simples],
        "lambda_sharp": jsonio.weight_to_json(lambda_sharp(idat)),
        "w_int_order": n,
        "w_ext_order": len(idat.w_ext),
        "chamber": [jsonio.element_to_json(datum, c)
                    for c in idat.chamber.sorted_elements],
        "chamber_order": idat.chamber.order,
        "tau": {jsonio.element_to_str(datum, w):
                str(idat.chamber_tau[i // n])
                for i, w in enumerate(idat.w_ext)},
    }
    _emit(doc)
    return 0


def cmd_xi(args) -> int:
    datum = build_root_system(args.type)
    mu = jsonio.parse_weight(datum, args.mu)
    lam = jsonio.parse_weight(datum, getattr(args, "lambda"))
    pairs = enumerate_Xi(datum, mu, lam, args.bound)
    _emit({
        "count": len(pairs),
        "pairs": [{"mu": jsonio.weight_to_json(p.mu),
                   "lambda": jsonio.weight_to_json(p.lam)} for p in pairs],
    })
    return 0


def cmd_cosets(args) -> int:
    datum = build_root_system(args.type)
    lam = jsonio.parse_weight(datum, getattr(args, "lambda"))
    left = jsonio.parse_weight(datum, args.left_stab)
    right = jsonio.parse_weight(datum, args.right_stab)
    idat = integral_datum(datum, lam, args.bound)
    dec = double_cosets(datum, idat.w_ext,
                        dot_stabilizer(datum, left),
                        dot_stabilizer(datum, right))
    _emit({
        "left_gens": [jsonio.element_to_json(datum, g)
                      for g in dec.left.generators],
        "right_gens": [jsonio.element_to_json(datum, g)
                       for g in dec.right.generators],
        "cosets": [{"rep": jsonio.element_to_json(datum, rep),
                    "size": len(members)} for rep, members in dec.cosets],
    })
    return 0


def cmd_bimod(args) -> int:
    datum = build_root_system(args.type)
    lam = jsonio.parse_weight(datum, getattr(args, "lambda"))
    idat = integral_datum(datum, lam, args.bound)
    if args.action == "index":
        if args.mu is None:
            raise SchemaError("bimod index requires --mu")
        mu = jsonio.parse_weight(datum, args.mu)
        labels = soergel.indecomposable_index(datum, mu, lam, args.bound)
        _emit({
            "count": len(labels),
            "labels": [{"c": jsonio.element_to_json(datum, c),
                        "rep": jsonio.element_to_json(datum, rep)}
                       for c, rep in labels],
        })
        return 0
    if args.word is None:
        raise SchemaError(f"bimod {args.action} requires --word")
    letters = jsonio.parse_letters(idat, json.loads(args.word))
    word = soergel.make_word(idat, letters)
    if args.action == "grade":
        _emit({"grading": str(soergel.grading(word))})
    else:
        normal = soergel.normalize(word)
        _emit({
            "input": jsonio.letters_to_json(word),
            "normalized": jsonio.letters_to_json(normal),
            "grading": str(soergel.grading(normal)),
            "rank_left": soergel.rank_left(normal),
        })
    return 0


def cmd_hecke(args) -> int:
    datum = build_root_system(args.type)
    lam = jsonio.parse_weight(datum, getattr(args, "lambda"))
    idat = integral_datum(datum, lam, args.bound)
    if args.action == "kl":
        if args.x is None or args.w is None:
            raise SchemaError("hecke kl requires --x and --w")
        x = jsonio.parse_element(datum, args.x)
        w = jsonio.parse_element(datum, args.w)
        poly = hecke.kl_polynomial(hecke.kl_cache(idat), x, w)
        _emit({
            "x": jsonio.element_to_json(datum, x),
            "w": jsonio.element_to_json(datum, w),
            "variable": "q",
            "kl": jsonio.poly_to_json(poly),
        })
        return 0
    if args.word is None:
        raise SchemaError("hecke decompose requires --word")
    letters = jsonio.parse_letters(idat, json.loads(args.word))
    word = soergel.make_word(idat, letters)
    image = hecke.bs_character(idat, word)
    graded = hecke.decompose_graded(idat, image)
    number = idat.tables.of  # W_int in idat.system.sort_key order
    terms = [{"c": jsonio.element_to_json(datum, c),
              "x": jsonio.element_to_json(datum, x),
              "poly": jsonio.poly_to_json(poly),
              "mult": hecke.multiplicity(poly)}
             for (c, x), poly in sorted(
                 graded.items(), key=lambda kv: (
                     idat.chamber_index(kv[0][0]), number(kv[0][1])))]
    _emit({"basis": "KL", "terms": terms})
    return 0


def cmd_cato(args) -> int:
    datum = build_root_system(args.type)
    if args.action == "weights":
        if args.highest is None:
            raise SchemaError("catO weights requires --highest")
        highest = jsonio.parse_weight(datum, args.highest)
        multiset = cat_o.irrep_weight_multiset(datum, highest)
        _emit([{"weight": jsonio.weight_to_json(w), "mult": m}
               for w, m in sorted(multiset.items())])
        return 0
    if getattr(args, "lambda") is None or args.mu is None or args.w is None:
        raise SchemaError("catO translate requires --lambda, --mu and --w")
    lam = jsonio.parse_weight(datum, getattr(args, "lambda"))
    mu = jsonio.parse_weight(datum, args.mu)
    w = jsonio.parse_element(datum, args.w)
    combo = cat_o.translate_verma(datum, lam, mu, w)
    _emit({"terms": [{"weight": jsonio.weight_to_json(wt), "mult": m}
                     for wt, m in combo.items()]})
    return 0


# ---------------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------------

@dataclass
class CorpusEntry:
    index: int
    type_label: str
    lam: tuple
    mu: tuple | None
    tags: tuple[str, ...]


def load_corpus(doc) -> list[CorpusEntry]:
    if not isinstance(doc, dict) or "entries" not in doc \
            or not isinstance(doc["entries"], list):
        raise SchemaError("corpus must be an object with an 'entries' list")
    entries = []
    for i, raw in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: entry must be an object")
        unknown = set(raw) - {"type", "lambda", "mu", "tags"}
        if unknown:
            raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
        if not isinstance(raw.get("type"), str):
            raise SchemaError(f"{where}.type: expected a type label string")
        try:
            datum = build_root_system(raw["type"])
        except UnknownTypeError as exc:
            raise SchemaError(f"{where}.type: {exc}") from None
        try:
            lam = jsonio.parse_weight(datum, raw["lambda"])
        except (KeyError, SchemaError) as exc:
            raise SchemaError(f"{where}.lambda: {exc}") from None
        mu = None
        if raw.get("mu") is not None:
            try:
                mu = jsonio.parse_weight(datum, raw["mu"])
            except SchemaError as exc:
                raise SchemaError(f"{where}.mu: {exc}") from None
        tags = raw.get("tags", [])
        if not isinstance(tags, list) or \
                not all(isinstance(t, str) for t in tags):
            raise SchemaError(f"{where}.tags: expected a list of strings")
        entries.append(CorpusEntry(i, datum.type_label, lam, mu, tuple(tags)))
    return entries


def default_corpus_path() -> str:
    return str(resources.files("weylblocks").joinpath("corpus/default.json"))


# -- the registered per-entry checks ----------------------------------------

def _check_tau_homomorphism(datum, idat, entry, rng):
    # tau(w) = w(lam) - lam mod the root lattice, recomputed from the action
    # on numerators for every w = c u and compared with the datum's table;
    # an element is keyed by its images of the simple roots, which
    # determine it, so a product's key is one translate of rank bytes
    nums, den = _numerators(idat.lam)
    class_of, rank = torsion_group(datum).class_of, datum.rank
    taus, elements, w_int = {}, {}, idat.system.enumeration().index
    for k, c in enumerate(idat.chamber.sorted_elements):  # c_0 = e
        for u in idat.int_elements():
            w = c * u if k else u
            moved = [sum(map(int.__mul__, row, nums)) - x
                     for row, x in zip(w.weight_matrix, nums)]
            if any(x % den for x in moved):
                return "fail", (f"w(lam) - lam not a lattice weight at "
                                f"{jsonio.element_to_str(datum, w)}")
            t = class_of([x // den for x in moved])
            if t != tau(idat, w):
                return "fail", (f"tau table disagrees with the action at "
                                f"{jsonio.element_to_str(datum, w)}")
            if t.is_zero != (w.root_perm in w_int):
                return "fail", (f"kernel mismatch at "
                                f"{jsonio.element_to_str(datum, w)}")
            key = w.root_perm[:rank]
            taus[key], elements[key] = t, w
    # tau(s b) = tau(s) + tau(b) for every generator s of W_ext and every
    # b, with s b inside C W_int: by induction on word length, tau is a
    # homomorphism on all of W_ext
    classes = set(taus.values())
    for s in (*idat.simple_reflections, *idat.chamber.generators):
        ps, ts = s.root_perm, taus[s.root_perm[:rank]]
        plus = {t: t + ts for t in classes}
        for key_b, tb in taus.items():
            got = taus.get(key_b.translate(ps))
            if got != plus[tb]:
                what = "product outside C W_int" if got is None \
                    else "tau not additive"
                return "fail", (
                    f"{what} at {jsonio.element_to_str(datum, s)}, "
                    f"{jsonio.element_to_str(datum, elements[key_b])}")
    return "pass", None


def _check_semidirect(datum, idat, entry, rng):
    ch = idat.chamber.elements
    for c in ch:
        for d in ch:
            if c * d != d * c:
                return "fail", "chamber not abelian"
    w_int = idat.system.enumeration().index
    if {c for c in ch if c.root_perm in w_int} != {datum.identity}:
        return "fail", "chamber meets W_int"
    # |W_ext| = |W| / |orbit of lam mod the weight lattice|, the orbit
    # searched again here: the datum keeps no count of W_ext
    order = weyl_order(datum)
    nums, den = _numerators(entry.lam)
    orbit = _orbit(datum.cartan_matrix, nums, range(datum.rank), den, order)
    if idat.chamber.order * len(w_int) * len(orbit) != order:
        return "fail", "|C|*|W_int| != |W| / |orbit of lam mod P|"
    simple_indices = {r.index for r in idat.integral_simples}
    for c in ch:
        if {c.root_perm[i] for i in simple_indices} != simple_indices:
            return "fail", ("chamber element "
                            f"{jsonio.element_to_str(datum, c)} does not "
                            "permute the simple system")
    if classify_weight(datum, entry.lam).dominant:
        for c in ch:
            if not classify_weight(datum, dot_action(datum, c, entry.lam)).dominant:
                return "fail", (f"c.lam not dominant for "
                                f"{jsonio.element_to_str(datum, c)}")
    return "pass", None


def _check_integral_consistency(datum, idat, entry, rng):
    n = datum.num_positive
    rows = datum.coroot_rows[:n]
    for r in idat.integral_positive:  # closed under negation by layout
        if (r.index + n) not in {x.index for x in idat.integral_roots}:
            return "fail", f"negative of {r} missing"
    # two dominance tests agree on random translates of lam; pairings are
    # taken on numerators over the weight's denominator
    for _ in range(12):
        shift = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
        x = tuple(a + b for a, b in zip(entry.lam, shift))
        shifted, _ = _rho_shifted(x)
        full = classify_weight(datum, x).dominant
        integral_only = all(sum(map(int.__mul__, rows[r.index], shifted)) >= 0
                            for r in idat.integral_positive)
        if full != integral_only:
            return "fail", f"dominance criteria disagree at {x}"
    # the integral system transports along the dot action, at elements
    # drawn from W without enumerating it
    order = weyl_order(datum)
    for _ in range(6):
        w = weyl_element_at(datum, rng.randrange(order))
        nums, den = _numerators(dot_action(datum, w, entry.lam))
        direct = {i for i, p in enumerate(_mat_nums(rows, nums))
                  if p % den == 0}
        transported = set()
        for r in idat.integral_positive:
            img = w.root_perm[r.index]
            transported.add(img if img < n else img - n)
        if direct != transported:
            return "fail", (f"integral roots of w.lam differ from w(roots) "
                            f"at w = {jsonio.element_to_str(datum, w)}")
    return "pass", None


def _check_subgeneric(datum, idat, entry, rng):
    nu = find_regular_dominant(idat)
    cls = classify_weight(datum, nu)
    diff_ok = _is_lattice(a - b for a, b in zip(nu, entry.lam))
    if not (cls.dominant and cls.regular and diff_ok):
        return "fail", f"regular dominant certificate {nu} invalid"
    for j in range(1, idat.rank + 1):
        mu_j = find_subgeneric(idat, j)
        stab = dot_stabilizer(datum, mu_j)
        wall = idat.simple_reflections[j - 1]
        if not classify_weight(datum, mu_j).dominant \
                or stab.elements != {datum.identity, wall}:
            return "fail", f"subgeneric certificate {mu_j} invalid at i={j}"
    return "pass", None


def _check_xi_counts(datum, idat, entry, rng):
    if entry.mu is None:
        return "skip", "no mu in entry"
    lam_dom = dominant_dot_weight(datum, entry.lam)
    mover = lattice_mover(datum, entry.mu, lam_dom)
    if mover is None:
        return "skip", "orbits not compatible"
    pairs = enumerate_Xi(datum, entry.mu, entry.lam)
    idat_dom = integral_datum(datum, lam_dom)
    _, mu_dom = dominant_dot_rep(idat_dom, dot_action(datum, mover, entry.mu))
    # the index asserts its label count against the double-coset count
    # W_mu \ W_ext / W_lam, so a disagreement there fails the check too
    labels = soergel.indecomposable_index(datum, mu_dom, lam_dom)
    if len(pairs) != len(labels):
        return "fail", (f"counts disagree: Xi={len(pairs)}, "
                        f"labels={len(labels)}")
    return "pass", None


def _check_translate_verma(datum, idat, entry, rng):
    if entry.mu is None:
        return "skip", "no mu in entry"
    lam, mu = entry.lam, entry.mu
    if not (classify_weight(datum, lam).dominant
            and classify_weight(datum, mu).dominant):
        return "skip", "pair not dominant as given"
    if not _is_lattice(a - b for a, b in zip(mu, lam)):
        return "skip", "mu - lambda not a lattice weight"
    stab_lam = dot_stabilizer(datum, lam).elements
    stab_mu = dot_stabilizer(datum, mu).elements
    if not stab_lam <= stab_mu:
        return "skip", "stabilizer of lambda not inside stabilizer of mu"
    translate = cat_o.verma_translator(datum, lam, mu)
    for w in idat.int_elements():
        try:
            combo = translate(w)
        except AssertionError as exc:
            return "fail", (f"identity failed at w = "
                            f"{jsonio.element_to_str(datum, w)}: {exc}")
        if combo.terms != {dot_action(datum, w, mu): 1}:
            return "fail", (f"unexpected image at w = "
                            f"{jsonio.element_to_str(datum, w)}")
    return "pass", None


def _random_word(idat, rng, max_len=8):
    """Up to max_len letter codes: a Bs index three times in five when
    the block has simples, else a chamber number."""
    rank, order, codes = idat.rank, idat.chamber.order, []
    for _ in range(rng.randrange(max_len + 1)):
        if rank and rng.randrange(5) < 3:
            codes.append(rng.randrange(1, rank + 1))
        else:
            codes.append(~rng.randrange(order))
    return soergel.word_of_codes(idat, codes)


def _check_rewriter(datum, idat, entry, rng, words=40):
    for _ in range(words):
        word = _random_word(idat, rng)
        nf = soergel.normalize(word)
        for _ in range(2):
            alt = soergel.random_rewrite(word, rng)
            if alt != nf:
                return "fail", f"normal forms differ for {jsonio.letters_to_json(word)}"
        if soergel.grading(nf) != soergel.grading(word):
            return "fail", f"grading changed for {jsonio.letters_to_json(word)}"
        if nf.bs_count != word.bs_count:
            return "fail", f"Bs count changed for {jsonio.letters_to_json(word)}"
        if soergel.rank_left(nf) != 2 ** word.bs_count:
            return "fail", f"rank changed for {jsonio.letters_to_json(word)}"
    return "pass", None


def _check_hecke_block(datum, idat, entry, rng, words=6):
    cache = hecke.kl_cache(idat)
    elements = idat.int_elements()
    # a column is validated when it is built: build every column while the
    # whole table fits under the cap; past it the sample is drawn from the
    # first cap/2 elements, whose ideals hold at most cap/2 members, so the
    # ideal of s w, at most ideal(w) u s ideal(w), fits under the cap
    draws = len(elements)
    if draws <= hecke.KL_COLUMN_CAP:
        for w in range(draws):
            cache._col(w)
    else:
        draws = hecke.KL_COLUMN_CAP // 2
    vpv = hecke.V + hecke.V_INV
    for j in range(1, idat.rank + 1):
        b = hecke.kl_generator(idat, j)
        if b * b != b.scale(vpv):
            return "fail", f"quadratic relation fails at simple {j}"
    for _ in range(words):
        word = _random_word(idat, rng, max_len=6)
        if hecke.bs_character(idat, word) != \
                hecke.bs_character(idat, soergel.random_rewrite(word, rng)):
            return "fail", (f"character not rewrite-invariant for "
                            f"{jsonio.letters_to_json(word)}")
    # nonnegativity of b_s b_w in the KL basis, sampled for large blocks:
    # decomposed on the s-upper half {x : sx < x} straight off the KL
    # columns, which gives the full decomposition's coefficients because
    # b_s b_w and every b_z with sz < z have h_x = v h_{sx} for x < sx
    # (for sw < w that makes b_s b_w = (v + v^{-1}) b_w outright)
    sample = range(len(elements)) if len(elements) <= 48 else \
        [rng.randrange(draws) for _ in range(16)]
    for w in sample:
        for j in range(1, idat.rank + 1):
            try:
                hecke._bs_kl_coefficients(cache, w, j)
            except ValueError as exc:
                return "fail", (f"negative structure constant at "
                                f"{idat.system.reduced_word(elements[w])}, "
                                f"simple {j}: {exc}")
    return "pass", None


CHECKS = (
    ("tau_homomorphism", _check_tau_homomorphism),
    ("semidirect", _check_semidirect),
    ("integral_consistency", _check_integral_consistency),
    ("subgeneric_certificates", _check_subgeneric),
    ("xi_triple_count", _check_xi_counts),
    ("translate_verma", _check_translate_verma),
    ("rewriter", _check_rewriter),
    ("hecke_block", _check_hecke_block),
)


def run_entry(entry: CorpusEntry, seed: int, bound: int,
              with_timings: bool = False) -> tuple[dict, float]:
    start = time.perf_counter()
    datum = build_root_system(entry.type_label)
    idat = integral_datum(datum, entry.lam, bound)
    checks = {}
    for name, fn in CHECKS:
        # string seeds hash stably across processes (byte-identical reports)
        rng = random.Random(f"{seed}:{entry.index}:{name}")
        check_start = time.perf_counter()
        try:
            status, witness = fn(datum, idat, entry, rng)
        except Exception as exc:  # a crash is a failing check, with witness
            status, witness = "fail", f"{type(exc).__name__}: {exc}"
        checks[name] = {"status": status}
        if witness is not None and status != "pass":
            checks[name]["witness"] = witness
        if with_timings:
            checks[name]["elapsed_ms"] = round(
                (time.perf_counter() - check_start) * 1000, 3)
    return checks, time.perf_counter() - start


def run_corpus(path: str, seed: int = DEFAULT_SEED,
               bound: int = DEFAULT_GROUP_BOUND,
               with_timings: bool = False) -> tuple[dict, list[float]]:
    """Run every check on every corpus entry, one entry after another."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"corpus is not valid JSON: {exc}") from None
    entries = load_corpus(doc)
    results = [run_entry(e, seed, bound, with_timings) for e in entries]

    out_entries = []
    passed = failed = skipped = 0
    for entry, (checks, elapsed) in zip(entries, results):
        for res in checks.values():
            if res["status"] == "pass":
                passed += 1
            elif res["status"] == "fail":
                failed += 1
            else:
                skipped += 1
        row = {
            "index": entry.index,
            "type": entry.type_label,
            "lambda": jsonio.weight_to_json(entry.lam),
            "mu": jsonio.weight_to_json(entry.mu) if entry.mu else None,
            "tags": list(entry.tags),
            "checks": checks,
        }
        if with_timings:
            row["elapsed_ms"] = round(elapsed * 1000, 3)
        out_entries.append(row)
    report = {
        "seed": seed,
        "entries": out_entries,
        "summary": {
            "entries": len(entries),
            "checks_passed": passed,
            "checks_failed": failed,
            "checks_skipped": skipped,
            "all_passed": failed == 0,
        },
    }
    if with_timings:  # milliseconds per check, summed over the entries
        report["summary"]["check_ms"] = {
            name: round(sum(checks[name]["elapsed_ms"]
                            for checks, _ in results), 3)
            for name, _ in CHECKS}
    return report, [r[1] for r in results]


def cmd_run(args) -> int:
    path = args.corpus or default_corpus_path()
    report, timings = run_corpus(path, seed=args.seed, bound=args.bound,
                                 with_timings=args.timings)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    for row, elapsed in zip(report["entries"], timings):
        statuses = " ".join(f"{name}={res['status']}"
                            for name, res in sorted(row["checks"].items()))
        print(f"[{row['index']:3d}] {row['type']:6s} "
              f"lambda={','.join(row['lambda']):>12s} "
              f"({elapsed * 1000:7.1f} ms) {statuses}", file=sys.stderr)
    summary = report["summary"]
    print(f"entries={summary['entries']} passed={summary['checks_passed']} "
          f"failed={summary['checks_failed']} "
          f"skipped={summary['checks_skipped']}", file=sys.stderr)
    return 0 if summary["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# let option values like "-1,1/2,0" or "-1/2" pass as weights, not flags
_NEGATIVE_WEIGHT = re.compile(r"^-\d[\d,/-]*$")


def _weight_friendly(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p._negative_number_matcher = _NEGATIVE_WEIGHT
    return p


def _add_common(p, with_lambda=True):
    p.add_argument("--type", required=True, help="Cartan type, e.g. A3 or A1xA1")
    if with_lambda:
        p.add_argument("--lambda", required=True,
                       help="comma-separated rational coordinates, e.g. 0,1/2,0")
    p.add_argument("--bound", type=int, default=DEFAULT_GROUP_BOUND,
                   help="largest W_ext and W_int a block may enumerate, "
                        "checked before enumerating; W is never listed")


def build_parser() -> argparse.ArgumentParser:
    parser = _weight_friendly(argparse.ArgumentParser(
        prog="weylblocks",
        description="Exact block combinatorics for Weyl groups: integral "
                    "root data, double cosets, graded word calculus, "
                    "Hecke-algebra decompositions and character-level "
                    "translation identities."))
    sub = parser.add_subparsers(dest="verb", required=True)

    p = _weight_friendly(sub.add_parser("integral", help="integral package of a weight"))
    _add_common(p)
    p.set_defaults(fn=cmd_integral)

    p = _weight_friendly(sub.add_parser("xi", help="proper pairs of a compatible orbit pair"))
    _add_common(p)
    p.add_argument("--mu", required=True)
    p.set_defaults(fn=cmd_xi)

    p = _weight_friendly(sub.add_parser("cosets", help="double cosets inside the extended group"))
    _add_common(p)
    p.add_argument("--left-stab", required=True,
                   help="weight whose dot stabilizer acts on the left")
    p.add_argument("--right-stab", required=True)
    p.set_defaults(fn=cmd_cosets)

    p = _weight_friendly(sub.add_parser("bimod", help="graded word calculus"))
    p.add_argument("action", choices=("normalize", "grade", "index"))
    _add_common(p)
    p.add_argument("--word", help='JSON array of letters, e.g. \'["R:s2*s1*s3*s2","B:s1"]\'')
    p.add_argument("--mu")
    p.set_defaults(fn=cmd_bimod)

    p = _weight_friendly(sub.add_parser("hecke", help="Hecke algebra of the block"))
    p.add_argument("action", choices=("kl", "decompose"))
    _add_common(p)
    p.add_argument("--x", help="reduced word, e.g. s1*s2")
    p.add_argument("--w", help="reduced word")
    p.add_argument("--word", help="JSON array of letters")
    p.set_defaults(fn=cmd_hecke)

    p = _weight_friendly(sub.add_parser("catO", help="character-level category O data"))
    p.add_argument("action", choices=("weights", "translate"))
    p.add_argument("--type", required=True)
    p.add_argument("--highest", help="dominant integral highest weight")
    p.add_argument("--lambda")
    p.add_argument("--mu")
    p.add_argument("--w", help="reduced word")
    p.set_defaults(fn=cmd_cato)

    p = _weight_friendly(sub.add_parser("run", help="run the invariant checks over a corpus"))
    p.add_argument("--corpus", help="corpus JSON path (default: bundled)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="also write the report here")
    p.add_argument("--timings", action="store_true",
                   help="include per-entry and per-check timings in the "
                        "JSON report, and per-check totals in its summary")
    p.add_argument("--bound", type=int, default=DEFAULT_GROUP_BOUND,
                   help="largest W_ext and W_int per entry; W is never "
                        "listed")
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, UnknownTypeError, GroupBoundExceeded, ValueError,
            OSError) as exc:  # bad input, an unreadable file among it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # an internal invariant failed
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
