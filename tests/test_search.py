"""Generator-space search: divisor lattices, rediscovery, soundness,
completeness at tiny scale, determinism."""

import json

import pytest

from z4dc import search as sm, z4poly as zp
from z4dc.code import code_size, from_spec_dict, validate
from z4dc.errors import InternalCheckFailed, InvalidInput, LatticeTooLarge, Z4DCError
from z4dc.gray import LeeEnumerator, lee_enumerator
from z4dc.polytext import parse


class TestDivisorLattice:
    def test_n1(self):
        assert sm.divisor_lattice(1) == [(1,), (3, 1)]

    def test_n3(self):
        lat = sm.divisor_lattice(3)
        assert lat == sorted([(1,), parse("x+3"), parse("x^2+x+1"),
                              zp.xn_minus_1(3)],
                             key=lambda p: (zp.degree(p), p))
        for d in lat:
            assert zp.divmod_monic(zp.xn_minus_1(3), d)[1] == ()

    def test_n7_contains_reference_cubics(self):
        lat = sm.divisor_lattice(7)
        assert len(lat) == 8
        assert parse("x^3+2x^2+x+3") in lat
        assert parse("x^3+3x^2+2x+3") in lat
        for d in lat:
            assert zp.divmod_monic(zp.xn_minus_1(7), d)[1] == ()

    def test_lattice_bound(self, monkeypatch):
        # x^15-1 has 5 residue factors, so 32 divisors
        monkeypatch.setattr(sm, "LATTICE_BOUND", 8)
        with pytest.raises(LatticeTooLarge, match="lattice of size 2\\^5 exceeds bound 8"):
            sm.divisor_lattice(15)
        monkeypatch.setattr(sm, "LATTICE_BOUND", 32)
        assert len(sm.divisor_lattice(15)) == 32

    @pytest.mark.parametrize("n", [True, 3.0, "3", None])
    def test_non_integer_length_rejected(self, n):
        with pytest.raises(InvalidInput, match="n must be an integer"):
            sm.divisor_lattice(n)
        with pytest.raises(InvalidInput, match="n must be an integer"):
            list(sm.iter_candidates(1, n))
        with pytest.raises(InvalidInput, match="n must be an integer"):
            sm.search(n, 1)


class TestForms:
    @pytest.mark.parametrize("forms", [("iv",), (), ("ii", "iv"), "ii"])
    def test_unknown_forms_rejected(self, forms):
        with pytest.raises(InvalidInput, match="i, ii, iii"):
            list(sm.iter_candidates(1, 3, forms=forms))
        with pytest.raises(InvalidInput, match="i, ii, iii"):
            sm.search(1, 3, forms=forms)

    def test_negative_max_l_degree_rejected(self):
        with pytest.raises(InvalidInput, match="max_l_degree"):
            list(sm.iter_candidates(1, 3, max_l_degree=-1))
        assert list(sm.iter_candidates(1, 3, forms=("ii",), max_l_degree=0))


@pytest.mark.parametrize("r, s", [(1, 3), (3, 3), (1, 7), (3, 5)])
def test_every_valid_candidate_has_a_nonzero_word(r, s):
    """iter_candidates drops the all-absent sentinel pair on both
    blocks, so every candidate that validates has at least 2 words and
    search needs no zero-code branch."""
    valid = 0
    for cand in sm.iter_candidates(r, s):
        try:
            c = validate(**cand)
        except InternalCheckFailed:
            raise
        except Z4DCError:
            continue
        assert code_size(c) >= 2, cand
        valid += 1
    assert valid > 0


@pytest.mark.parametrize("cap", [0, -5])
def test_enum_cap_below_one_rejected(cap):
    with pytest.raises(InvalidInput, match="enum_cap"):
        sm.search(1, 3, enum_cap=cap)


class TestSearch:
    def test_rediscovers_16_256_6(self):
        rep = sm.search(1, 7, forms=("ii",))
        assert any((r.n, r.M, r.d) == (16, 256, 6) for r in rep.results)

    def test_soundness_revalidation(self):
        rep = sm.search(1, 7, forms=("ii",))
        for res in rep.results:
            c = from_spec_dict(res.spec)
            assert code_size(c) == res.M
            assert lee_enumerator(c).min_nonzero_weight() == res.d

    def test_determinism(self):
        a = sm.search(3, 3)
        b = sm.search(3, 3)
        assert json.dumps([r.to_json() for r in a.results]) == \
            json.dumps([r.to_json() for r in b.results])

    def test_pareto_pruning(self):
        full = sm.search(1, 7, forms=("ii",), pareto=False)
        pruned = sm.search(1, 7, forms=("ii",), pareto=True)
        assert len(pruned.results) <= len(full.results)
        kept = {(r.M, r.d) for r in pruned.results}
        for M, d in kept:
            assert d == max(r.d for r in full.results if r.M == M)or \
                M == max(r.M for r in full.results if r.d == d)

    def test_result_that_does_not_re_evaluate_raises(self, monkeypatch):
        # truthful while candidates are scored, one weight off on the
        # re-check of each stored result
        evaluated = sm.search(1, 3).candidates_evaluated
        calls = []

        def drifting(c, *args, **kwargs):
            calls.append(c)
            enum = lee_enumerator(c, *args, **kwargs)
            if len(calls) <= evaluated:
                return enum
            return LeeEnumerator({w + (w > 0): n for w, n in enum.counts.items()})

        monkeypatch.setattr(sm, "lee_enumerator", drifting)
        with pytest.raises(InternalCheckFailed, match="does not re-evaluate"):
            sm.search(1, 3)
        assert len(calls) == evaluated + 1

    def test_failed_internal_check_in_validate_is_raised(self, monkeypatch):
        # a bug, not a rejected candidate: search must not skip it
        def broken(**spec):
            raise InternalCheckFailed("planted")

        monkeypatch.setattr(sm, "validate", broken)
        with pytest.raises(InternalCheckFailed, match="planted"):
            sm.search(1, 3)

    def test_distance_floor(self):
        rep = sm.search(1, 7, forms=("ii",), distance_floor=6)
        assert rep.results and all(r.d >= 6 for r in rep.results)

    @pytest.mark.parametrize("r,s", [(1, 3), (3, 3)])
    def test_completeness_vs_independent_loop(self, r, s):
        # independent brute loop over divisor pairs and small l
        from itertools import product

        def independent_candidates():
            found = set()
            lat_r, lat_s = sm.divisor_lattice(r), sm.divisor_lattice(s)
            l_range = [zp.canon(t) for t in product(range(4), repeat=r)]
            sent_r, sent_s = zp.xn_minus_1(r), zp.xn_minus_1(s)
            for f1 in lat_r:
                for g1 in lat_r:
                    if not zp.divides(g1, f1):
                        continue
                    if (f1, g1) == (sent_r, sent_r):
                        continue
                    try:
                        c = validate(r, s, f1=f1, g1=g1)
                    except Z4DCError:
                        continue
                    if code_size(c) > 1:
                        found.add(c)
            for f2 in lat_s:
                for g2 in lat_s:
                    if not zp.divides(g2, f2) or (f2, g2) == (sent_s, sent_s):
                        continue
                    for l in l_range:
                        try:
                            c = validate(r, s, l=l, f2=f2, g2=g2)
                        except Z4DCError:
                            continue
                        if code_size(c) > 1:
                            found.add(c)
            for f1 in lat_r:
                for g1 in lat_r:
                    if not zp.divides(g1, f1) or (f1, g1) == (sent_r, sent_r):
                        continue
                    for f2 in lat_s:
                        for g2 in lat_s:
                            if not zp.divides(g2, f2) or \
                                    (f2, g2) == (sent_s, sent_s):
                                continue
                            for l in [zp.canon(t) for t in
                                      product(range(4),
                                              repeat=max(zp.degree(f1), 0))]:
                                try:
                                    c = validate(r, s, f1=f1, g1=g1, l=l,
                                                 f2=f2, g2=g2)
                                except Z4DCError:
                                    continue
                                if code_size(c) > 1:
                                    found.add(c)
            return found

        searched = set()
        for cand in sm.iter_candidates(r, s):
            try:
                c = validate(cand["r"], cand["s"], f1=cand.get("f1"),
                             g1=cand.get("g1"), l=cand.get("l"),
                             f2=cand.get("f2"), g2=cand.get("g2"))
            except Z4DCError:
                continue
            if code_size(c) > 1:
                searched.add(c)
        assert searched == independent_candidates()

    def test_csv_report(self):
        rep = sm.search(1, 3, forms=("ii",))
        csv = sm.report_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0] == "r,s,f1,g1,l,f2,g2,n,log2M,d"
        assert len(lines) == len(rep.results) + 1
