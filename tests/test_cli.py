import dataclasses
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

import weylblocks
from weylblocks import build_root_system, cli, coxeter, hecke, \
    integral_datum, random_rewrite, soergel
from weylblocks.cli import DEFAULT_SEED, CorpusEntry, _check_semidirect, \
    _check_tau_homomorphism, _random_word, default_corpus_path, \
    load_corpus, main, run_corpus
from weylblocks.coxeter import CoxeterSystem
from weylblocks.hecke import ONE, HeckeElement, LaurentPoly
from weylblocks.jsonio import (
    SchemaError,
    letters_to_json,
    parse_element,
    parse_fraction,
    parse_letters,
    parse_weight,
    parse_word_str,
    word_to_str,
)

from conftest import trivial_subgroup
from oracles import reference_random_rewrite, reference_random_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fraction_round_trip():
    for text in ["0", "-1", "1/2", "-7/3"]:
        assert parse_fraction(text) == Q(text)
    with pytest.raises(SchemaError):
        parse_fraction("1/0")
    with pytest.raises(SchemaError):
        parse_fraction("x")


def test_word_round_trip(a3):
    for text in ["e", "s1", "s2*s1*s3*s2"]:
        el = parse_element(a3, text)
        from weylblocks.jsonio import element_to_str

        assert parse_element(a3, element_to_str(a3, el)) == el
    assert word_to_str(()) == "e"
    assert parse_word_str("e") == ()
    with pytest.raises(SchemaError):
        parse_word_str("t1")
    with pytest.raises(SchemaError):
        parse_element(a3, "s9")


def test_letters_round_trip(a3, a3_block):
    c = next(x for x in a3_block.chamber.elements if not x.is_identity)
    from weylblocks import BsLetter, RwLetter, make_word

    word = make_word(a3_block, [RwLetter(c), BsLetter(1), BsLetter(2)])
    encoded = letters_to_json(word)
    assert encoded[0].startswith("R:") and encoded[1].startswith("B:")
    decoded = parse_letters(a3_block, encoded)
    assert tuple(decoded) == word.letters
    with pytest.raises(SchemaError):
        parse_letters(a3_block, ["B:s2"])  # not integral-simple in this block


def test_integral_verb(capsys):
    code, out, _ = run_cli(capsys, "integral", "--type", "A1",
                           "--lambda", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["w_ext_order"] == 2
    assert doc["w_int_order"] == 1
    assert doc["chamber"] == [[], [1]]
    assert doc["chamber_order"] == 2
    assert doc["tau"]["s1"] == "1 mod 2"


def test_integral_verb_regression_block(capsys):
    code, out, _ = run_cli(capsys, "integral", "--type", "A3",
                           "--lambda", "0,1/2,0")
    doc = json.loads(out)
    assert code == 0
    assert doc["w_ext_order"] == 8
    assert doc["w_int_order"] == 4
    assert doc["chamber"] == [[], [2, 1, 3, 2]]
    assert doc["tau"]["s2*s1*s3*s2"] == "2 mod 4"
    assert doc["integral_simples"] == [[1, 0, 0], [0, 0, 1]]


def test_xi_verb(capsys):
    code, out, _ = run_cli(capsys, "xi", "--type", "A1", "--mu", "-1",
                           "--lambda", "0")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_cosets_verb(capsys):
    code, out, _ = run_cli(capsys, "cosets", "--type", "A2", "--lambda", "0,0",
                           "--left-stab", "-1,0", "--right-stab", "0,-1")
    assert code == 0
    doc = json.loads(out)
    assert sum(c["size"] for c in doc["cosets"]) == 6
    assert len(doc["cosets"]) == 2


def test_bimod_verbs(capsys):
    word = json.dumps(["B:s1", "R:s2*s1*s3*s2"])
    code, out, _ = run_cli(capsys, "bimod", "normalize", "--type", "A3",
                           "--lambda", "0,1/2,0", "--word", word)
    assert code == 0
    doc = json.loads(out)
    assert doc["normalized"] == ["R:s2*s1*s3*s2", "B:s3"]
    assert doc["rank_left"] == 2
    code, out, _ = run_cli(capsys, "bimod", "grade", "--type", "A3",
                           "--lambda", "0,1/2,0", "--word",
                           json.dumps(["R:s2*s1*s3*s2"]))
    assert json.loads(out)["grading"] == "2 mod 4"
    code, out, _ = run_cli(capsys, "bimod", "index", "--type", "A1",
                           "--lambda", "-1/2", "--mu", "-1/2")
    assert json.loads(out)["count"] == 2


def test_hecke_verbs(capsys):
    code, out, _ = run_cli(capsys, "hecke", "kl", "--type", "A3",
                           "--lambda", "0,0,0", "--x", "e",
                           "--w", "s2*s1*s3*s2")
    assert code == 0
    assert json.loads(out)["kl"] == {"0": 1, "1": 1}
    code, out, _ = run_cli(capsys, "hecke", "decompose", "--type", "A3",
                           "--lambda", "0,1/2,0", "--word",
                           json.dumps(["R:s2*s1*s3*s2", "B:s3"]))
    doc = json.loads(out)
    assert doc["basis"] == "KL"
    assert doc["terms"] == [{"c": [2, 1, 3, 2], "x": [3],
                             "poly": {"0": 1}, "mult": 1}]


def test_hecke_decompose_runs_once_in_block_label_order(capsys, monkeypatch):
    real, calls = hecke._decompose, []
    monkeypatch.setattr(hecke, "_decompose",
                        lambda *a: calls.append(a) or real(*a))
    d4 = build_root_system("D4")
    idat = integral_datum(d4, (Q(1, 2), Q(0), Q(0), Q(0)))
    code, out, _ = run_cli(capsys, "hecke", "decompose", "--type", "D4",
                           "--lambda", "1/2,0,0,0", "--word", json.dumps(
                               ["B:s2", "R:s1*s2*s3*s4*s2*s1", "B:s3",
                                "B:s2", "B:s4", "B:s3"]))
    assert code == 0 and len(calls) == 1
    terms = json.loads(out)["terms"]
    labels = [(idat.chamber_number[parse_element(d4, t["c"]).root_perm],
               idat.tables.of(parse_element(d4, t["x"]))) for t in terms]
    assert len(terms) > 1 and labels == sorted(set(labels))
    assert all(t["mult"] == sum(t["poly"].values()) for t in terms)
    # H_s alone is b_s - v H_e: the one multiplicity check exits 2
    a1 = build_root_system("A1")
    monkeypatch.setattr(hecke, "bs_character", lambda idat, word: HeckeElement(
        idat, {(a1.identity, a1.simple_reflections[0]): ONE}))
    code, out, err = run_cli(capsys, "hecke", "decompose", "--type", "A1",
                             "--lambda", "0", "--word", '["B:s1"]')
    assert code == 2 and out == ""
    assert "negative coefficient -v in the KL-basis decomposition" in err


def test_cato_verbs(capsys):
    code, out, _ = run_cli(capsys, "catO", "weights", "--type", "A1",
                           "--highest", "2")
    assert code == 0
    assert json.loads(out) == [
        {"weight": ["-2"], "mult": 1},
        {"weight": ["0"], "mult": 1},
        {"weight": ["2"], "mult": 1},
    ]
    code, out, _ = run_cli(capsys, "catO", "translate", "--type", "A1",
                           "--lambda", "0", "--mu", "-1", "--w", "s1")
    assert json.loads(out) == {"terms": [{"weight": ["-1"], "mult": 1}]}


def test_cli_error_paths(capsys):
    code, _, err = run_cli(capsys, "integral", "--type", "Q9",
                           "--lambda", "0")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "integral", "--type", "A2",
                           "--lambda", "1/0,0")
    assert code == 2 and "malformed rational" in err
    # a word that is not a JSON array of letters is bad input
    for word in ("null", "5", '{"B:s1": 0}', '"B:s1"'):
        code, out, err = run_cli(capsys, "bimod", "grade", "--type", "A3",
                                 "--lambda", "0,1/2,0", "--word", word)
        assert code == 2 and out == "" and "JSON array" in err, word
    code, _, err = run_cli(capsys, "run", "--corpus", "/nonexistent")
    assert code == 2 and err.startswith("error:")


def test_more_than_256_roots_exit_2(capsys):
    code, out, err = run_cli(capsys, "integral", "--type", "E8xA4",
                             "--lambda", ",".join(["0"] * 12))
    assert code == 2 and out == ""
    assert "E8xA4 has 260 roots; at most 256 are supported" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    import weylblocks.cli as cli

    def broken(*args, **kwargs):
        raise AssertionError("kernel of tau differs from W_int")

    monkeypatch.setattr(cli, "integral_datum", broken)
    code, _, err = run_cli(capsys, "integral", "--type", "A1",
                           "--lambda", "1/2")
    assert code == 3
    assert "internal error: kernel of tau differs from W_int" in err


def test_empty_corpus(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"entries": []}')
    code, out, _ = run_cli(capsys, "run", "--corpus", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["entries"] == 0
    assert doc["summary"]["all_passed"] is True


def test_malformed_corpus_names_entry(tmp_path, capsys):
    path = tmp_path / "bad.json"
    good = {"type": "A1", "lambda": ["0"]}
    for field, value in [("lambda", ["1/0"]), ("lambda", 5),
                         ("lambda", {"0": 1}), ("type", 5), ("type", ["A1"]),
                         ("mu", 5), ("tags", 5), ("tags", "ab"),
                         ("tags", [1, {}])]:
        path.write_text(json.dumps({"entries": [good,
                                                {**good, field: value}]}))
        with pytest.raises(SchemaError) as err:
            run_corpus(str(path))
        assert f"entries[1].{field}" in str(err.value), (field, value)
    path.write_text(json.dumps({"entries": [{"lambda": ["0"]}]}))
    with pytest.raises(SchemaError, match=r"entries\[0\]\.type"):
        run_corpus(str(path))
    code, out, err = run_cli(capsys, "run", "--corpus", str(path))
    assert code == 2 and out == "" and err.startswith("error: entries[0].type")


def test_report_round_trip_and_determinism(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"entries": [
        {"type": "A1", "lambda": ["0"], "mu": ["-1"], "tags": ["pair"]},
        {"type": "A2", "lambda": ["1/2", "1/2"]},
    ]}))
    report1, _ = run_corpus(str(path), seed=7)
    report2, _ = run_corpus(str(path), seed=7)
    assert json.dumps(report1, sort_keys=True) == \
        json.dumps(report2, sort_keys=True)
    statuses = {name: res["status"]
                for name, res in report1["entries"][0]["checks"].items()}
    assert set(statuses.values()) == {"pass"}


def test_run_timings_per_check(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"entries": [
        {"type": "A1", "lambda": ["0"], "mu": ["-1"], "tags": ["pair"]},
        {"type": "A2", "lambda": ["1/2", "1/2"]},
    ]}))
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "--corpus", str(path), "--seed", "7",
                         "--timings", "--out", str(out))
    assert code == 0
    timed = json.loads(out.read_text())
    # the summary totals each check's milliseconds over the entries
    totals = timed["summary"].pop("check_ms")
    assert set(totals) == set(timed["entries"][0]["checks"])
    for name, total in totals.items():
        assert total == pytest.approx(sum(
            row["checks"][name]["elapsed_ms"] for row in timed["entries"]),
            abs=1e-3)
    for row in timed["entries"]:
        assert row.pop("elapsed_ms") >= 0
        for res in row["checks"].values():
            assert isinstance(res["elapsed_ms"], float)
            assert res.pop("elapsed_ms") >= 0
    # stripped of its timings, the report is the default one
    plain, _ = run_corpus(str(path), seed=7)
    assert timed == plain


def test_random_words_and_rewrites_keep_their_draws():
    """The code walks draw as the letter walks did: same words, same
    results, same generator state after each, on the rewriter and
    hecke_block seeds of every corpus entry."""
    with open(default_corpus_path(), encoding="utf-8") as fh:
        entries = load_corpus(json.load(fh))
    assert len(entries) == 48
    for entry in entries:
        idat = integral_datum(build_root_system(entry.type_label), entry.lam)
        for name, words, max_len, walks in (("rewriter", 40, 8, 2),
                                            ("hecke_block", 6, 6, 1)):
            seed = f"{DEFAULT_SEED}:{entry.index}:{name}"
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(words):
                word = _random_word(idat, new, max_len)
                assert word == reference_random_word(idat, old, max_len)
                assert new.getstate() == old.getstate()
                for _ in range(walks):
                    assert random_rewrite(word, new) == \
                        reference_random_rewrite(word, old)
                    assert new.getstate() == old.getstate()


def test_default_corpus_is_packaged_and_synced():
    packaged = default_corpus_path()
    with open(packaged, encoding="utf-8") as fh:
        packaged_doc = json.load(fh)
    assert len(packaged_doc["entries"]) >= 40
    repo_copy = pathlib.Path(__file__).resolve().parent.parent / "corpus" / \
        "default.json"
    if repo_copy.exists():
        assert json.loads(repo_copy.read_text()) == packaged_doc


def test_emitted_documents_reparse(capsys, a3, a3_block):
    # weights, words and polynomials coming out of the verbs feed back
    # through the same readers
    _, out, _ = run_cli(capsys, "xi", "--type", "A3", "--mu", "0,-1,0",
                        "--lambda", "0,0,0")
    doc = json.loads(out)
    for pair in doc["pairs"]:
        parse_weight(a3, pair["mu"])
        parse_weight(a3, pair["lambda"])
    _, out, _ = run_cli(capsys, "integral", "--type", "A3",
                        "--lambda", "0,1/2,0")
    doc = json.loads(out)
    for word, cls in doc["tau"].items():
        parse_element(a3, word)
        assert cls.endswith("mod 4") or cls == "0"
    _, out, _ = run_cli(capsys, "hecke", "decompose", "--type", "A3",
                        "--lambda", "0,1/2,0",
                        "--word", json.dumps(["B:s1", "B:s3"]))
    doc = json.loads(out)
    for term in doc["terms"]:
        parse_element(a3, term["c"])
        parse_element(a3, term["x"])
        LaurentPoly({int(e): int(c) for e, c in term["poly"].items()})
    _, out, _ = run_cli(capsys, "bimod", "normalize", "--type", "A3",
                        "--lambda", "0,1/2,0",
                        "--word", json.dumps(["B:s3", "R:s2*s1*s3*s2"]))
    parse_letters(a3_block, json.loads(out)["normalized"])


def test_cli_entry_point_subprocess():
    # the child imports the same weylblocks as this process, installed or not
    src = str(pathlib.Path(weylblocks.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "weylblocks.cli", "integral", "--type", "A1",
         "--lambda", "1/2"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    doc = json.loads(out.stdout)
    assert doc["chamber"] == [[], [1]]


def test_python_m_weylblocks_runs_the_cli():
    src = str(pathlib.Path(weylblocks.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    reports = [subprocess.run(
        [sys.executable, "-m", module, "run", "--seed", "7"],
        capture_output=True, text=True, check=True, env=env).stdout
        for module in ("weylblocks", "weylblocks.cli")]
    assert json.loads(reports[0])["summary"]["all_passed"]
    assert reports[0] == reports[1]


# E7 at (0,...,0,1/4): W_int = W(E6), 51,840 elements.  The child asks
# `hecke kl` for P_{e,w0} with w0 the longest element of W_int, which must
# fail at the KL column cap with nothing built, then `hecke decompose` on a
# short word.
E7_CHILD = """
import json, sys
from fractions import Fraction as Q
from weylblocks import build_root_system, cli, hecke, integral_datum, jsonio

idat = integral_datum(build_root_system("E7"), (Q(0),) * 6 + (Q(1, 4),))
cache = hecke.kl_cache(idat)
w0 = jsonio.element_to_str(idat.datum, idat.tables.elements[-1])
block = ["--type", "E7", "--lambda", "0,0,0,0,0,0,1/4"]
kl = cli.main(["hecke", "kl", *block, "--x", "e", "--w", w0])
built = cache._built.bit_count()
decompose = cli.main(["hecke", "decompose", *block, "--word", sys.argv[1]])
print(json.dumps({"kl": kl, "built": built, "decompose": decompose}),
      file=sys.stderr)
"""


def _limit_address_space():
    # the child alone: a return to n^2 bytes of Bruhat ideals (2.7 GB on
    # W(E6)) fails the test instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def test_e7_hecke_answers_short_words_and_caps_long_ones(capsys):
    src = str(pathlib.Path(weylblocks.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    word = ["B:s1", "B:s3", "B:s4", "B:s1", "B:s3"]
    child = subprocess.run(
        [sys.executable, "-c", E7_CHILD, json.dumps(word)],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=_limit_address_space)
    assert child.returncode == 0, child.stderr
    *errors, summary = child.stderr.strip().splitlines()
    assert json.loads(summary) == {"kl": 2, "built": 1, "decompose": 0}
    assert len(errors) == 1 and "more than the cap of 2000" in errors[0]
    # s1, s3, s4 span a standard A3, whose KL polynomials are those of A3
    # itself; relabelling 1, 2, 3 -> 1, 3, 4 keeps words lex-minimal, so the
    # E7 terms are the A3 terms relabelled
    code, out, _ = run_cli(capsys, "hecke", "decompose", "--type", "A3",
                           "--lambda", "0,0,0", "--word", json.dumps(
                               ["B:s1", "B:s2", "B:s3", "B:s1", "B:s2"]))
    assert code == 0
    relabel = {1: 1, 2: 3, 3: 4}
    expect = sorted((tuple(relabel[j] for j in t["x"]), t["mult"],
                     json.dumps(t["poly"])) for t in json.loads(out)["terms"])
    terms = json.loads(child.stdout)["terms"]
    assert all(t["c"] == [] for t in terms)
    assert sorted((tuple(t["x"]), t["mult"], json.dumps(t["poly"]))
                  for t in terms) == expect


@pytest.mark.parametrize("label, lam, tampered, where", [
    # negated: still a homomorphism with kernel W_int, which additivity
    # and the kernel test alone would pass
    ("A2", (Q(1, 3), Q(1, 3)), lambda t: tuple(-x for x in t), "s1*s2"),
    ("A3", (0, Q(1, 2), 0), lambda t: t[::-1], "e"),  # nonzero at e
])
def test_tau_check_fails_a_tampered_tau_table(label, lam, tampered, where):
    """A block built valid whose chamber_tau is overwritten afterwards,
    not re-validated: tau recomputed from the action disagrees with the
    table, and the witness names the first element where it does."""
    datum = build_root_system(label)
    lam = tuple(Q(x) for x in lam)
    idat = integral_datum(datum, lam)
    entry = CorpusEntry(0, label, lam, None, ())
    assert _check_tau_homomorphism(datum, idat, entry, None) == \
        ("pass", None)
    bad = dataclasses.replace(idat, chamber_tau=tampered(idat.chamber_tau),
                              _memo={})
    assert _check_tau_homomorphism(datum, bad, entry, None) == \
        ("fail", f"tau table disagrees with the action at {where}")


def test_semidirect_count_is_recomputed(a3, a3_block):
    """With the chamber replaced by the trivial group, |C| |W_int| is no
    longer |W| / |orbit of lam mod P|; W_ext built from that chamber would
    still have |C| |W_int| elements."""
    entry = CorpusEntry(0, "A3", a3_block.lam, None, ())
    assert _check_semidirect(a3, a3_block, entry, None) == ("pass", None)
    bad = dataclasses.replace(a3_block, chamber=trivial_subgroup(a3),
                              _memo={})
    assert len(bad.w_ext) == bad.chamber.order * bad.w_int.order
    assert _check_semidirect(a3, bad, entry, None) == \
        ("fail", "|C|*|W_int| != |W| / |orbit of lam mod P|")


def test_corpus_checks_read_w_int_through_its_numbering(monkeypatch):
    """Every bundled entry, run cold: no check builds the W_int element
    set, and the W_int system memoizes no length or word beyond the
    identity's; the block's index is the enumeration's own."""
    with open(default_corpus_path(), encoding="utf-8") as fh:
        entries = load_corpus(json.load(fh))
    chambers = set()
    for entry in entries:
        datum = build_root_system.__wrapped__(entry.type_label)
        monkeypatch.setattr(cli, "build_root_system", lambda _: datum)
        checks, _ = cli.run_entry(entry, DEFAULT_SEED, 10 ** 6)
        assert all(c["status"] != "fail" for c in checks.values())
        idat = integral_datum(datum, entry.lam)
        system = idat.system
        assert "w_int" not in idat.__dict__, entry
        assert idat.tables.index is system.enumeration().index
        assert list(system._words) == [datum.identity.root_perm]
        assert not system._lengths
        chambers.add(idat.chamber.order)
    assert max(chambers) > 1


def test_xi_count_check_fails_on_either_count(monkeypatch):
    """The check compares |Xi| with the index's labels, and the index
    asserts its labels against the double-coset count over W_ext: an
    off-by-one count from either side fails the check."""
    entry = CorpusEntry(0, "A3", (Q(0), Q(1, 2), Q(0)),
                        (Q(0), Q(-1, 2), Q(0)), ())
    datum = build_root_system("A3")
    idat = integral_datum(datum, entry.lam)
    rng = random.Random(0)
    assert cli._check_xi_counts(datum, idat, entry, rng) == ("pass", None)
    double_cosets, enumerate_xi = soergel.double_cosets, cli.enumerate_Xi
    monkeypatch.setattr(cli, "enumerate_Xi",
                        lambda *args: enumerate_xi(*args)[1:])
    status, witness = cli._check_xi_counts(datum, idat, entry, rng)
    assert status == "fail" and witness.startswith("counts disagree: Xi=")
    monkeypatch.setattr(cli, "enumerate_Xi", enumerate_xi)
    monkeypatch.setattr(soergel, "double_cosets", lambda *args:
                        SimpleNamespace(count=double_cosets(*args).count + 1))
    with pytest.raises(AssertionError, match="disagrees with the "
                                             "double-coset count"):
        cli._check_xi_counts(datum, idat, entry, rng)
    checks, _ = cli.run_entry(entry, DEFAULT_SEED, 10 ** 6)
    assert checks["xi_triple_count"]["status"] == "fail"
    assert checks["xi_triple_count"]["witness"].startswith("AssertionError")


def test_e6_checks_pass_with_w_forbidden(tmp_path, monkeypatch):
    """A one-entry corpus, E6 at lam = mu = (1/2, 0, ..., 0), |W| = 51,840
    and |W_int| = 1920: tau, the semidirect count, the integral-system
    draws and the Verma translation pass with every way to enumerate W
    made to raise, and the sorted W_ext is never built."""
    path = tmp_path / "e6.json"
    half = "1/2,0,0,0,0,0"
    path.write_text(json.dumps({"entries": [
        {"type": "E6", "lambda": half, "mu": half, "tags": ["translate"]}]}))
    (entry,) = load_corpus(json.loads(path.read_text()))

    def no_w(*args, **kwargs):
        raise AssertionError("the whole Weyl group was enumerated")

    enumeration = CoxeterSystem.enumeration

    def w_int_only(system, *args, **kwargs):
        if system is system.datum._memo.get("coxeter"):
            no_w()
        return enumeration(system, *args, **kwargs)

    assert not hasattr(cli, "generate_group")
    for module in (coxeter, weylblocks):
        monkeypatch.setattr(module, "generate_group", no_w)
    monkeypatch.setattr(CoxeterSystem, "enumeration", w_int_only)
    datum = build_root_system.__wrapped__("E6")  # cold: nothing memoized
    idat = integral_datum(datum, entry.lam)
    assert (idat.chamber.order, idat.w_int.order) == (1, 1920)
    checks = dict(cli.CHECKS)
    for name in ("tau_homomorphism", "semidirect", "integral_consistency",
                 "translate_verma"):
        rng = random.Random(f"{DEFAULT_SEED}:0:{name}")
        assert checks[name](datum, idat, entry, rng) == ("pass", None), name
    assert "w_ext" not in idat.__dict__
