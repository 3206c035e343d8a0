"""Signed permutation calculus and the skew-symmetric fibre theorem."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cograss import cominuscule, conormal, detvar, weyl
from cograss.checks import (
    check_braid_embedding,
    check_detvar_factorizations,
    check_type_d_length_agreement,
    run_suite,
    type_d_elements,
)
from cograss.cominuscule import build_context
from cograss.weyl import WeylGroup
from cograss.rootsys import InvariantError, build_diagram


def test_word_to_perm_examples():
    assert detvar.word_to_perm(4, ()).values == (1, 2, 3, 4)
    assert detvar.word_to_perm(4, (1,)).values == (2, 1, 3, 4)
    for n in (4, 5, 6):
        wj_word = detvar.perm_to_word(detvar.levi_longest_perm(n))
        assert detvar.word_to_perm(n, wj_word) == detvar.levi_longest_perm(n)
        assert detvar.levi_longest_perm(n).values == tuple(range(n, 0, -1))


def _generator_from_window(n, i):
    """Oracle: s_i as its product of adjacent transpositions of 1..2n."""
    window = list(range(1, 2 * n + 1))
    pairs = [(i, i + 1), (2 * n - i, 2 * n - i + 1)] if i < n else [(n - 1, n + 1), (n, n + 2)]
    for a, b in pairs:
        window[a - 1], window[b - 1] = window[b - 1], window[a - 1]
    return detvar.SignedPermutation(n, tuple(window[:n]))


@pytest.mark.parametrize("n", range(4, 9))
def test_word_to_perm_is_the_product_of_generators(n):
    """The in-place one-line action equals the S_{2n} product of generator
    images, on seeded words; perm_to_word inverts it."""
    gens = {i: _generator_from_window(n, i) for i in range(1, n + 1)}
    assert all(detvar.generator_perm(n, i) == gens[i] for i in gens)
    rng = random.Random(n)
    for _ in range(40):
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3 * n)))
        folded = detvar.identity_perm(n)
        for letter in word:
            folded = folded * gens[letter]
        assert detvar.word_to_perm(n, word) == folded
        assert detvar.word_to_perm(n, detvar.perm_to_word(folded)) == folded
    for bad in (0, n + 1):
        with pytest.raises(ValueError, match="out of range"):
            detvar.word_to_perm(n, (1, bad))
        with pytest.raises(ValueError, match="out of range"):
            detvar.generator_perm(n, bad)


def test_perm_to_word_examples():
    assert detvar.perm_to_word(detvar.identity_perm(5)) == ()
    assert detvar.perm_to_word(detvar.SignedPermutation(4, (2, 1, 3, 4))) == (1,)
    for n in (4, 5, 6):
        w0 = detvar.longest_perm(n)
        assert w0.length() == n * (n - 1)
        assert len(detvar.perm_to_word(w0)) == n * (n - 1)


def test_signed_permutation_validation():
    with pytest.raises(ValueError, match="distinct"):
        detvar.SignedPermutation(3, (1, 1, 2))
    with pytest.raises(ValueError, match="flip"):
        detvar.SignedPermutation(3, (1, 2, 5))  # 2 and 5 are flips of each other
    with pytest.raises(ValueError, match="parity"):
        detvar.SignedPermutation(3, (6, 2, 3))
    with pytest.raises(ValueError, match="1..2n"):
        detvar.SignedPermutation(3, (1, 2, 9))


def test_skew_rank_element_examples():
    assert detvar.skew_rank_element(4, 2).values == (3, 4, 7, 8)
    assert detvar.skew_rank_element(6, 0) == detvar.identity_perm(6)
    assert detvar.skew_rank_element(5, 4).values == (5, 7, 8, 9, 10)
    with pytest.raises(ValueError, match="even"):
        detvar.skew_rank_element(5, 3)
    with pytest.raises(ValueError, match="0 <= r"):
        detvar.skew_rank_element(5, 6)


def test_chain_elements():
    for n in (4, 5, 6, 7):
        assert detvar.chain_perm(n, n - 1) == detvar.generator_perm(n, n)
    assert detvar.chain_perm(4, 2) == detvar.word_to_perm(4, (3, 2, 4))
    assert detvar.chain_word(4, 1) == (2, 1, 3, 2, 4)
    assert detvar.chain_perm(4, 1).length() == 5
    with pytest.raises(ValueError, match="chain index"):
        detvar.chain_word(4, 4)


def test_chain_closed_form():
    # corrected one-line form, derived from the recursion
    for n in (4, 5, 6, 7, 8):
        for i in range(1, n):
            expected = (tuple(range(1, i)) + tuple(range(i + 2, n + 1))
                        + (2 * n - i, 2 * n - i + 1))
            assert detvar.chain_perm(n, i).values == expected


@pytest.mark.parametrize("n", range(4, 9))
def test_braid_relations_in_embedding(n):
    assert check_braid_embedding(n)


def test_relation_report_ranges():
    rep4 = detvar.check_relations(4)
    assert rep4.all_hold
    assert not [c for c in rep4.checks if c[0] == "chain-shift"]  # vacuous at n=4
    rep6 = detvar.check_relations(6)
    assert rep6.all_hold
    assert [p for cid, p, _ in rep6.checks if cid == "chain-shift"] == \
        ["n=6 i=1", "n=6 i=2"]
    rep7 = detvar.check_relations(7)
    assert rep7.all_hold
    assert any(cid == "twisted-exchange" for cid, _, _ in rep7.checks)


@pytest.mark.parametrize("n", range(4, 9))
def test_relations_hold(n):
    assert detvar.check_relations(n).all_hold


@pytest.mark.parametrize("n", range(4, 9))
def test_factorizations_and_dual_strings(n):
    assert check_detvar_factorizations(n)


def test_length_agreement_exhaustive_d4():
    assert check_type_d_length_agreement(4)


@settings(max_examples=120, deadline=None)
@given(st.integers(4, 7), st.lists(st.integers(0, 100), max_size=14))
def test_length_agreement_random_words(n, raw):
    word = tuple(1 + (x % n) for x in raw)
    perm = detvar.word_to_perm(n, word)
    group = WeylGroup(build_diagram("D", n))
    elem = group.from_word(word)
    assert perm.length() == elem.length() <= len(word)
    assert detvar.word_to_perm(n, detvar.perm_to_word(perm)) == perm
    assert group.from_word(detvar.perm_to_word(perm)) == elem


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.lists(st.integers(0, 100), max_size=12))
def test_window_commutes_with_flip(n, raw):
    perm = detvar.word_to_perm(n, tuple(1 + (x % n) for x in raw))
    win = perm.window
    for i in range(1, 2 * n + 1):
        assert win[2 * n - i] == 2 * n + 1 - win[i - 1]
    assert sum(1 for v in perm.values if v > n) % 2 == 0


def test_fibre_rank_examples():
    assert detvar.fibre_rank(4, 2)[0] == 2
    assert detvar.fibre_rank(5, 2)[0] == 2
    rank, witness = detvar.fibre_rank(6, 6)
    assert rank == 0 and witness.is_identity()


@pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 10])
def test_fibre_rank_full_sweep(n):
    nbar = detvar.even_rank(n)
    for r in range(0, nbar + 1, 2):
        rank, witness = detvar.fibre_rank(n, r)
        assert rank == nbar - r
        assert witness == detvar.skew_rank_element(n, nbar - r)


def test_fibre_path_never_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fibre maximum must not enumerate")

    monkeypatch.setattr(weyl, "coset_masks", refuse)
    monkeypatch.setattr(cominuscule, "coset_masks", refuse)
    ctx = build_context("A", 3, 2)
    assert len(conormal.fibre_maximal(ctx, ctx.group.identity)) == 1
    assert detvar.fibre_rank(8, 2) == (6, detvar.skew_rank_element(8, 6))


def test_fibre_path_strips_no_signed_permutation(monkeypatch):
    """element_of and the label read of fibre_rank use the closed forms, not words."""
    def refuse(perm):
        raise AssertionError("the fibre path must not strip a word off a signed permutation")

    monkeypatch.setattr(detvar, "perm_to_word", refuse)
    for n in range(4, 10):
        nbar = detvar.even_rank(n)
        for r in range(0, nbar + 1, 2):
            assert detvar.fibre_rank(n, r) == (nbar - r, detvar.skew_rank_element(n, nbar - r))


def _closed_forms_agree_with_words(ctx, perm):
    n = perm.n
    elem = detvar.element_of(ctx, perm)
    assert elem == ctx.group.from_word(detvar.perm_to_word(perm))
    assert detvar.perm_of(ctx, elem) == perm
    assert detvar.word_to_perm(n, elem.reduced_word()) == perm


@pytest.mark.parametrize("n", [4, 5, 6])
def test_closed_forms_agree_with_words_on_every_element(n):
    ctx = build_context("D", n, n)
    for perm in type_d_elements(n):
        _closed_forms_agree_with_words(ctx, perm)


@pytest.mark.parametrize("n", range(7, 13))
def test_closed_forms_agree_with_words_on_seeded_words(n):
    ctx = build_context("D", n, n)
    rng = random.Random(n)
    for _ in range(60):
        word = [rng.randint(1, n) for _ in range(rng.randint(0, 3 * n))]
        _closed_forms_agree_with_words(ctx, detvar.word_to_perm(n, word))


@pytest.mark.parametrize("n", [4, 5, 8])
def test_perm_of_refuses_elements_outside_the_finite_group(n):
    ctx = build_context("D", n, n)
    group = ctx.group
    outside = [group.simple[0], group.simple[0] * group.simple[n],
               group.from_translation((1,) + (0,) * (n - 1)),
               group.from_translation((0,) * (n - 1) + (-1,)), ctx.translation_element]
    for elem in outside:
        with pytest.raises(InvariantError, match="no element of the finite"):
            detvar.perm_of(ctx, elem)
    with pytest.raises(ValueError, match="fork node"):
        detvar.perm_of(build_context("D", n, 1), group.identity)
    with pytest.raises(ValueError, match="Weyl group"):
        detvar.perm_of(ctx, WeylGroup(build_diagram("D", n)).identity)


def test_relations_crash_is_a_failed_record(monkeypatch):
    clean = run_suite("detvar-relations", max_rank=5)
    assert clean.checks and all(c.passed and c.elapsed is not None for c in clean.checks)

    def explode(n):
        raise RuntimeError(f"boom at n={n}")

    monkeypatch.setattr(detvar, "check_relations", explode)
    report = run_suite("detvar-relations", max_rank=5)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.check_id, c.params) for c in failed] == [
        ("detvar-relations", "n=4"), ("detvar-relations", "n=5")]
    assert all("RuntimeError: boom" in c.note for c in failed)
    relation_ids = {"detvar-chain-shift", "detvar-twisted-exchange",
                    "detvar-twisted-exchange-chain"}
    survivors = [c for c in clean.checks if c.check_id not in relation_ids]
    assert [(c.check_id, c.params) for c in report.checks if c.passed] == [
        (c.check_id, c.params) for c in survivors]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_intersect_identity_sweep(n):
    for r in range(0, detvar.even_rank(n) + 1, 2):
        assert detvar.intersect_identity(n, r)


def test_element_roundtrip_through_context():
    ctx = build_context("D", 5, 5)
    perm = detvar.skew_rank_element(5, 2)
    elem = detvar.element_of(ctx, perm)
    assert elem.length() == perm.length()
    assert elem.support() <= set(ctx.finite_nodes)


def test_parse_perm():
    assert detvar.parse_perm("[3,4,7,8]") == detvar.SignedPermutation(4, (3, 4, 7, 8))
    assert str(detvar.skew_rank_element(4, 2)) == "[3,4,7,8]"
    assert detvar.parse_perm("[ 3, 4 ,7,8 ]") == detvar.SignedPermutation(4, (3, 4, 7, 8))
    with pytest.raises(ValueError):
        detvar.parse_perm("3,4,7,8")
    for text in ("[3,4,,7,8]", "[3,4,7,8,]", "[,3,4,7,8]"):
        with pytest.raises(ValueError, match="empty entry"):
            detvar.parse_perm(text)
    for text, token in (("[3,4,x,8]", "x"), ("[3,4,7.5,8]", "7.5"), ("[3, 4 ,a b,8]", "a b")):
        with pytest.raises(ValueError) as refused:
            detvar.parse_perm(text)
        assert str(refused.value) == ("signed permutation must look like [v1,v2,...] with"
                                      f" integer entries, got {token!r}")
