"""The structure checks read only the length-1 part of Q^2 and of
Q_T F - F Q_S.  These tests compare them with oracles that build the
whole word maps (`coderivation`, `morphism_lift`) and compose them: the
verdict and the witness, the first nonzero column in (length,
lexicographic) order with its smallest output word, must agree."""

import random

from hypothesis import given, settings, strategies as st

from homotopylie import LInftyMorphism, MultiLinearOp
from homotopylie import words as W
from homotopylie.generators import nilpotent_tower_with_corruption, weighted_nilpotent_dgla
from homotopylie.transfer import minimal_model

seeds = st.integers(0, 10**6)


def first_nonzero_column(M, words):
    """(w, smallest output word, coefficient) of the first nonzero column
    of a word map, or None."""
    for w in words:
        col = M.cols.get(w)
        if col:
            wo = min(col)
            return (w, wo, col[wo])
    return None


def square_oracle(alg, n_check):
    sp = alg.shifted_space
    ws = W.enumerate_words(sp, n_check)
    Q = W.coderivation(alg.field, alg.sops, ws, sp.degree_of)
    return first_nonzero_column(Q.compose(Q), ws)


def morphism_oracle(mor, n_check):
    ssp, tsp = mor.source.shifted_space, mor.target.shifted_space
    ws = W.enumerate_words(ssp, n_check)
    F = mor.lift(n_check)
    Qs = W.coderivation(mor.field, mor.source.sops, ws, ssp.degree_of)
    Qt = W.coderivation(mor.field, mor.target.sops, W.enumerate_words(tsp, n_check), tsp.degree_of)
    D = Qt.compose(F) + F.compose(Qs).scale(-mor.field.one)
    return first_nonzero_column(D, ws)


@settings(max_examples=8, deadline=None)
@given(seed=seeds, n_check=st.sampled_from([3, 4]))
def test_validate_matches_the_squared_coderivation(seed, n_check):
    alg, bad, _ = nilpotent_tower_with_corruption(random.Random(seed), n_check=n_check)
    for tower in (alg, bad):
        # every length up to n_check: the first violation may sit at any
        for n in range(1, n_check + 1):
            rep = tower.validate(n)
            oracle = square_oracle(tower, n)
            assert rep.ok is (oracle is None)
            assert rep.witness == oracle
    assert not bad.validate(n_check).ok


@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_morphism_defect_matches_the_composed_maps(seed):
    """The transfer morphisms have no defect; raising one structure
    constant of one component by 1 gives the oracle's defect."""
    rng = random.Random(seed)
    tr = minimal_model(weighted_nilpotent_dgla(rng), arity_out=3)
    for mor in (tr.inclusion, tr.projection):
        assert mor.defect(3) is None
        k = rng.choice(sorted(k for k, f in mor.components.items() if f.entries))
        comps = {}
        for a, f in mor.components.items():
            comps[a] = MultiLinearOp(f.source, f.target, f.arity, f.degree, "sym")
            comps[a].entries = dict(f.entries)
        word, out = rng.choice(sorted(comps[k].entries))
        comps[k].add_entry(word, out, 1)
        bad = LInftyMorphism(mor.source, mor.target, comps)
        for n_check in (2, 3):
            assert bad.defect(n_check) == morphism_oracle(bad, n_check)
