"""Where tier-1 states each of the 24 invariant checks that ``paeff selfcheck`` once ran.

Each check name maps to the tests that now state it, with the check's
inputs and tolerance or stronger ones.
"""

import importlib

CHECKS = {
    "autodiff.elementwise_gradients": ("test_autodiff.py::TestBroadcasting::test_scalar_operand_gradients",
                                       "test_autodiff.py::TestElementwise::test_unary_gradients"),
    "autodiff.fused_row_gradients": ("test_autodiff.py::TestAffine::test_gradients",),
    "losses.cross_entropy": ("test_losses.py::TestCrossEntropyLoss::test_uniform_logits",
                             "test_losses.py::TestCrossEntropyLoss::test_gradient"),
    "losses.contrastive_nll": ("test_losses.py::TestContrastiveNll::test_uniform_logits_give_log_b",
                               "test_losses.py::TestContrastiveNll::test_gradients"),
    "autodiff.backward_linearity": ("test_autodiff.py::TestBackward::test_linearity_of_gradients",),
    "hyperbolic.exp_log_inverse": ("test_hyperbolic.py::TestExpLogMaps::test_inverse_pair",),
    "hyperbolic.distance_symmetry": ("test_hyperbolic.py::TestDistance::test_symmetry_as_computed",),
    "hyperbolic.triangle_inequality": ("test_hyperbolic.py::TestDistance::test_triangle_inequality",),
    "hyperbolic.ball_invariant": ("test_hyperbolic.py::TestBallInvariant::test_all_outputs_inside",),
    "hyperbolic.radial_maps": ("test_hyperbolic.py::TestRadialBallMaps::test_clip_exp_clamp_gradients",
                               "test_hyperbolic.py::TestRadialBallMaps::test_log_map_gradients_at_the_boundary_clamp"),
    "hyperbolic.gram_distance_gradients": (
        "test_hyperbolic.py::TestGramDistanceNode::test_gradients_with_near_duplicates_inside_the_floor",),
    "hyperbolic.distance_table": ("test_hyperbolic.py::TestPairwiseGramForm::test_value_within_rounding_bound",),
    "model.forward_gradients": ("test_model.py::TestForward::test_end_to_end_gradients",),
    "model.float32_step": ("test_trainer.py::test_float32_step_matches_the_float64_step",),
    "model.egff_gradients": ("test_model.py::TestEgffArms::test_gradients",),
    "model.egff_convexity": ("test_model.py::TestEgff::test_convex_combination_and_tanh_range",),
    "losses.alignment_uniform_point": ("test_losses.py::TestAlignmentLoss::test_uniform_similarities_rejected",),
    "losses.gradients": ("test_losses.py::TestOrthogonalProjectionLoss::test_gradients",
                         "test_losses.py::TestAlignmentLoss::test_gradients"),
    "losses.alignment_node_gradients": ("test_losses.py::TestHyperbolicAlignmentNode::test_gradients",),
    "losses.cosine_alignment_node_gradients": ("test_losses.py::TestCosineAlignmentNode::test_gradients",),
    "metrics.oracle_agreement": ("test_evaluation.py::test_metrics_match_oracles_exactly",),
    "optimizer.adamw_single_step": ("test_trainer.py::TestAdamw::test_single_step_closed_form",),
    "optimizer.cosine_schedule": ("test_trainer.py::TestCosineSchedule::test_start_is_lr0",
                                  "test_trainer.py::TestCosineSchedule::test_end_is_zero",
                                  "test_trainer.py::TestCosineSchedule::test_midpoint"),
    "rng.array_bounds": ("test_evaluation.py::test_array_bounds_draw_as_scalar_calls",),
}


def test_each_check_names_tier1_test_functions():
    assert len(CHECKS) == 24
    for test_ids in CHECKS.values():
        for test_id in test_ids:
            module, *path = test_id.split("::")
            found = importlib.import_module(module.removesuffix(".py"))
            for part in path:
                found = getattr(found, part)
            assert callable(found) and all(p.startswith(("Test", "test_")) for p in path), test_id
