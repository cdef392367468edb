"""End-to-end acceptance suite.

One test per shipped criterion, each enforced exactly (no numeric
tolerances anywhere: all data is exact-rational / integral) and timed
against its stated runtime budget.  Every test prints a single
"[criterion N] ... PASS" line; run with ``pytest -s`` to see them inline.
"""

import json
import random
import time
from fractions import Fraction as Q

import pytest

from weylblocks import (
    LaurentPoly,
    build_root_system,
    from_word,
    integral_datum,
    kl_cache,
    kl_generator,
    kl_polynomial,
    tau,
    weyl_dimension,
    zero_weight_multiplicity,
)
from weylblocks.cli import (
    _check_rewriter,
    _check_semidirect,
    _check_subgeneric,
    _check_tau_homomorphism,
    _check_translate_verma,
    _check_xi_counts,
    default_corpus_path,
    load_corpus,
    run_corpus,
)
from weylblocks.hecke import V, V_INV
from weylblocks.integral import _is_lattice, _wsub

from conftest import dominant_weights_up_to_dim
from oracles import closure_order, kl_polynomials_by_inversion

SEED = 20250801


@pytest.fixture(scope="module")
def corpus():
    with open(default_corpus_path(), encoding="utf-8") as fh:
        entries = load_corpus(json.load(fh))
    assert len(entries) >= 40
    assert {e.type_label for e in entries} >= {
        "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"}
    denominators = {c.denominator for e in entries for c in e.lam}
    assert {1, 2, 3} <= denominators
    out = []
    for entry in entries:
        datum = build_root_system(entry.type_label)
        out.append((entry, datum, integral_datum(datum, entry.lam)))
    return out


def _finish(num, name, budget, started, failures):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    budget_text = f"{budget}s" if budget else "n/a"
    print(f"[criterion {num:2d}] {name}: {status} "
          f"({elapsed:.1f}s, budget {budget_text})")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def _run_check(fn, datum, idat, entry, salt):
    rng = random.Random(f"{SEED}:{entry.index}:{salt}")
    return fn(datum, idat, entry, rng)


def test_criterion_1_tau_homomorphism(corpus):
    started = time.perf_counter()
    failures = []
    for entry, datum, idat in corpus:
        status, witness = _run_check(_check_tau_homomorphism, datum, idat,
                                     entry, "tau")
        if status != "pass":
            failures.append((entry.type_label, entry.lam, witness))
    _finish(1, "tau additive with kernel W_int on every entry", 60,
            started, failures)


def test_criterion_2_semidirect(corpus):
    started = time.perf_counter()
    failures = []
    for entry, datum, idat in corpus:
        status, witness = _run_check(_check_semidirect, datum, idat,
                                     entry, "semi")
        if status != "pass":
            failures.append((entry.type_label, entry.lam, witness))
    _finish(2, "chamber semidirect complement on every entry", 60,
            started, failures)


def test_criterion_3_triple_count(corpus):
    started = time.perf_counter()
    failures, ran = [], 0
    for entry, datum, idat in corpus:
        if entry.mu is None:
            continue
        status, witness = _run_check(_check_xi_counts, datum, idat,
                                     entry, "xi")
        if status == "pass":
            ran += 1
        else:
            failures.append((entry.type_label, entry.lam, status, witness))
    if ran < 15:
        failures.append(("too few compatible pairs ran", ran))
    _finish(3, "orbit pairs = extended double cosets = class labels", 120,
            started, failures)


def test_criterion_4_translation_identity(corpus):
    started = time.perf_counter()
    failures, ran = [], 0
    for entry, datum, idat in corpus:
        if entry.mu is None or "translate" not in entry.tags:
            continue
        status, witness = _run_check(_check_translate_verma, datum, idat,
                                     entry, "tv")
        if status == "pass":
            ran += 1
        else:
            failures.append((entry.type_label, entry.lam, status, witness))
    if ran < 10:
        failures.append(("too few translation pairs ran", ran))
    _finish(4, f"Verma translation identity on {ran} pairs, every w", 120,
            started, failures)


def test_criterion_5_subgeneric_certificates(corpus):
    started = time.perf_counter()
    failures = []
    for entry, datum, idat in corpus:
        status, witness = _run_check(_check_subgeneric, datum, idat,
                                     entry, "sub")
        if status != "pass":
            failures.append((entry.type_label, entry.lam, witness))
    _finish(5, "regular-dominant and subgeneric certificates", 60,
            started, failures)


def test_criterion_6_regression_block():
    started = time.perf_counter()
    failures = []
    a3 = build_root_system("A3")
    lam = (Q(0), Q(1, 2), Q(0))
    idat = integral_datum(a3, lam)
    s1, s2, s3 = a3.simple_reflections
    # brute force over all 24 elements, independent of the main filter
    from weylblocks.coxeter import generate_group

    brute = [u for u in generate_group(a3)
             if _is_lattice(_wsub(u.act(lam), lam))]
    if len(brute) != 8 or set(brute) != set(idat.w_ext):
        failures.append("extended group is not the brute-force set of 8")
    if idat.w_int.elements != {a3.identity, s1, s3, s1 * s3}:
        failures.append("integral group is not <s1, s3> of order 4")
    if not all((u * u).is_identity for u in idat.w_int.elements):
        failures.append("integral group is not elementary abelian")
    chamber = idat.chamber.sorted_elements
    if len(chamber) != 2 or not chamber[0].is_identity:
        failures.append("chamber is not {e, c}")
    c = chamber[-1]
    if c * s1 * c.inverse() != s3:
        failures.append("conjugation by c does not swap the outer walls")
    if str(tau(idat, c)) != "2 mod 4":
        failures.append(f"tau(c) = {tau(idat, c)} instead of 2 mod 4")
    _finish(6, "half-integral middle block of A3", None, started, failures)


def test_criterion_7_kl_sanity(corpus):
    started = time.perf_counter()
    failures = []
    a3 = build_root_system("A3")
    full = integral_datum(a3, (Q(0),) * 3)
    cache = kl_cache(full)
    w3412 = from_word(a3, (2, 1, 3, 2))
    main_value = kl_polynomial(cache, a3.identity, w3412)
    oracle = kl_polynomials_by_inversion(full, w3412)
    oracle_value = oracle[a3.identity.root_perm]
    expected = LaurentPoly({0: 1, 1: 1})
    if not main_value == oracle_value == expected:
        failures.append(
            f"singular S4 value: main {main_value.format('q')}, "
            f"oracle {oracle_value.format('q')}")
    vpv = V + V_INV
    for entry, datum, idat in corpus:
        # every column is read, and so validated (positivity, the degree
        # bound, the support) as it is built
        cache = kl_cache(idat)
        elements = idat.int_elements()
        try:
            for u in elements:
                cache.expansion(u)
        except AssertionError as exc:
            failures.append((entry.type_label, entry.lam, str(exc)))
            continue
        if cache._built != (1 << len(elements)) - 1:
            failures.append((entry.type_label, entry.lam,
                             "a KL column left unbuilt"))
        for j in range(1, idat.rank + 1):
            b = kl_generator(idat, j)
            if b * b != b.scale(vpv):
                failures.append((entry.type_label, entry.lam,
                                 f"quadratic relation fails at {j}"))
    _finish(7, "KL tables positive, oracle match, rank-1 relations", 180,
            started, failures)


def test_criterion_8_rewriter(corpus):
    started = time.perf_counter()
    failures = []
    for entry, datum, idat in corpus:
        rng = random.Random(f"{SEED}:{entry.index}:rw500")
        status, witness = _check_rewriter(datum, idat, entry, rng, words=500)
        if status != "pass":
            failures.append((entry.type_label, entry.lam, witness))
    _finish(8, "500-word rewriting suite per block", 60, started, failures)


def test_criterion_9_characters():
    started = time.perf_counter()
    failures = []
    checked = 0
    from weylblocks.cat_o import dominant_character, irrep_weight_multiset
    from weylblocks.coxeter import generate_group

    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2"):
        datum = build_root_system(label)
        order = len(generate_group(datum))
        for highest in dominant_weights_up_to_dim(datum, 5000):
            try:
                char = dominant_character(datum, highest)
            except AssertionError as exc:
                failures.append((label, highest, str(exc)))
                continue
            checked += 1
            # recompute the total mass here via orbit-stabilizer counting
            mass = 0
            for v, m in char.items():
                mass += m * (order // closure_order(
                    datum, (s for s, x in zip(datum.simple_reflections, v)
                            if x == 0)))
            if mass != weyl_dimension(datum, highest):
                failures.append((label, highest, "mass mismatch"))
            # for small modules also materialize the orbits in full
            if mass <= 200 and \
                    sum(irrep_weight_multiset(datum, highest).values()) != mass:
                failures.append((label, highest, "orbit expansion mismatch"))
        theta = datum.positive_roots[-1].as_weight
        if zero_weight_multiplicity(datum, theta) != datum.rank:
            failures.append((label, "adjoint zero-weight", "!= rank"))
    print(f"    (criterion 9 checked {checked} characters)")
    _finish(9, "Freudenthal mass = dimension formula, adjoint rank", 120,
            started, failures)


def test_criterion_10_report_determinism():
    started = time.perf_counter()
    failures = []
    path = default_corpus_path()
    report1, _ = run_corpus(path, seed=SEED)
    report2, _ = run_corpus(path, seed=SEED)
    text1 = json.dumps(report1, indent=2, sort_keys=True)
    text2 = json.dumps(report2, indent=2, sort_keys=True)
    if text1 != text2:
        failures.append("reports differ between seeded runs")
    if report1["summary"]["checks_failed"]:
        failures.append(f"corpus run reported failures: "
                        f"{report1['summary']}")
    _finish(10, "byte-identical seeded corpus reports", None, started,
            failures)
