"""The package functions that the production smoke (`production_smoke.py`)
does not reach, grouped by why each stays.  `test_dead_code.py` fails on
a package function that the smoke does not reach and that is not listed
here, and on a listed one that the smoke reaches or that is gone, so the
list cannot go stale.  Names are "module.qualname"; a name covers every
function of that qualname (the lambdas of one function, say).
"""

LIBRARY_API = {
    # second implementations that the tests, and the benchmark's checks for
    # dgla_tree_transfer, compare the production engine against; ROADMAP
    # item 9 moves them out of the package
    "oracles": (
        "transfer.PerturbedRetract.__init__",
        "transfer._extract",
        "transfer._series",
        "transfer.dgla_tree_transfer",
        "transfer.dgla_tree_transfer.<locals>.I",
        "transfer.dgla_tree_transfer.<locals>.theta",
        "transfer.homotopy_transfer",
        "transfer.homotopy_transfer.<locals>.one",
        "transfer.homotopy_transfer.<locals>.one.<locals>.f",
        "transfer.hpl_perturb",
        "transfer.hpl_perturb.<locals>.<lambda>",
        "words.WordMap.__add__",
        "words.WordMap.__init__",
        "words.WordMap.__matmul__",
        "words.WordMap.__neg__",
        "words.WordMap.add_to",
        "words.WordMap.apply",
        "words.WordMap.column",
        "words.WordMap.compose",
        "words.WordMap.is_zero",
        "words.WordMap.scale",
        "words.coderivation",
        "words.morphism_lift",
        "words.morphism_lift.<locals>.<dictcomp>.<lambda>",
        "words.symmetrized_homotopy",
        "words.symmetrized_homotopy.<locals>.H",
        "words.symmetrized_homotopy.<locals>.IP",
        "words.word_power",
    ),
    # scalar arithmetic and field-protocol methods that generic code calls
    # on whatever field it is given; the smoke's documents do not call them
    # on these fields (see test_scalars.py,
    # test_every_field_answers_the_protocol_that_generic_code_calls)
    "field protocol": (
        "scalars.FloatComplexField.div",
        "scalars.FloatComplexField.eq",
        "scalars.FloatComplexField.from_json",
        "scalars.FloatComplexField.mag",
        "scalars.FloatComplexField.to_json",
        "scalars.GaussianRational.__eq__",
        "scalars.GaussianRational.__rtruediv__",
        "scalars.GaussianRationalField.eq",
        "scalars.RationalField.eq",
        "scalars.RationalField.mag",
    ),
    # a report read as a truth value is its `ok`, so `assert report` and
    # `if not report` cannot pass a failed check
    "report truth values": (
        "bv.BVReport.__bool__",
        "linfty.ValidationReport.__bool__",
    ),
    # reached by the benchmark's jobs and checks, and by tests
    "benchmark-only": (
        "generators.two_degree_dgla",
        "linfty.LInftyAlgebra.max_arity",
        "linfty.LInftyMorphism.compose",
        "linfty.LInftyMorphism.is_identity",
        "linfty.LInftyMorphism.tangent_at",
        "linfty.LInftyMorphism.tangent_at.<locals>.<lambda>",
        "mc.pushforward_path",
        "serialize.cocycle_payload",
    ),
    # library API that tests reach and no command does; each group says
    # whether a command could reach it (ROADMAP item 18)
    "test-only surface: BV geometry": (
        # library API: no document carries a metric, a symplectic form or
        # a volume form, and `bv-verify` checks the BV data it reads
        "bv.MetricStructure.__init__",
        "bv.VolumeForm.__init__",
        "bv._scalar_sqrt",
        "bv.check_shifted_symplectic",
        "bv.check_volume_pullback",
        "bv.effective_action",
        "bv.extend_by_contractible_bv",
        "bv.metric_vanishes_on_gauge_directions",
        "bv.potential_from_symplectic",
        "bv.pullback_bv",
        "bv.restrict_metric",
    ),
    "test-only surface: test corpora": (
        # library API: seeded inputs of the HPL-oracle, exactness and
        # corruption tests, which `gen-examples` does not write
        "generators.block_perturbed_context",
        "generators.corrupt_one_constant",
        "generators.nilpotent_tower_with_corruption",
        "generators.random_complex",
    ),
    "test-only surface: linear algebra": (
        # library API: conveniences on maps, vectors and operations
        "graded.GradedMap.__neg__",
        "graded.GradedMap.entry",
        "graded.GradedSpace.label_of",
        "graded.vec_norm",
        "linalg.mat_vec",
        "linalg.solve",
        "multilinear.MultiLinearOp.eq",
        "multilinear.MultiLinearOp.norm",
        "multilinear.to_unshifted",
        "polynomial.MultiPoly.__eq__",
    ),
    "test-only surface: towers and morphisms": (
        # library API: queries on a tower or a morphism that no report
        # states; `check` reaches `LInftyMorphism.defect` itself
        "linfty.LInftyAlgebra.analytic_bound",
        "linfty.LInftyAlgebra.anchor",
        "linfty.LInftyAlgebra.mc_residual",
        "linfty.LInftyAlgebra.unshifted_op",
        "linfty.LInftyMorphism.is_valid",
        "linfty.LInftyMorphism.max_arity",
        "linfty.Twist.algebra",
    ),
    "test-only surface: gauge actions": (
        # library API: the group-valued gauge action on a model inside a
        # dgla and the twisted morphisms; `nerve` runs the flows it needs
        "mc.GaugePath.max_ode_defect",
        "mc.GaugePath.start",
        "mc.OmegaModel.__init__",
        "mc.OmegaModel.group_action",
        "mc._anchor_apply",
        "mc.homotopy_gauge_action",
        "mc.twist_morphism",
    ),
    "test-only surface: quasi-smooth geometry": (
        # library API: pointwise evaluation and tangent complexes;
        # `qs-minimal-model` could report `is_minimal` and `is_quasi_iso`
        "qs.QsMorphism.base_jacobian_at",
        "qs.QsMorphism.bundle_at",
        "qs.QsMorphism.push_point",
        "qs.QsSpace.dg_tangent",
        "qs.QsSpace.evaluate",
        "qs.QsSpace.is_minimal",
        "qs.QsSpace.jacobian_at",
        "qs.QsSpace.tangent_cohomology",
        "qs.is_quasi_iso",
    ),
    "test-only surface: strong decompositions": (
        # `transfer` could write the strong decomposition once ROADMAP item
        # 6 makes it scale; the gauge splitting is the second retract that
        # the transfer tests compare against
        "transfer.Gauge.__init__",
        "transfer.Gauge.day_laplacian",
        "transfer.Gauge.green_operator",
        "transfer.Gauge.splitting",
        "transfer.StrongDecomposition.__init__",
        "transfer._coords_in_f1",
        "transfer._solve_arity",
        "transfer._solve_morphism_components",
        "transfer.strong_decomposition",
    ),
}
