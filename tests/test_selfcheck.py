"""The built-in selfcheck: every invariant it lists holds."""

from paeff import selfcheck


NAMES = [
    "autodiff.elementwise_gradients",
    "autodiff.fused_row_gradients",
    "autodiff.log_softmax_nll",
    "autodiff.symmetric_nll_grad",
    "autodiff.backward_linearity",
    "hyperbolic.exp_log_inverse",
    "hyperbolic.distance_symmetry",
    "hyperbolic.triangle_inequality",
    "hyperbolic.ball_invariant",
    "hyperbolic.radial_maps",
    "hyperbolic.gram_distance_gradients",
    "hyperbolic.distance_table",
    "model.forward_gradients",
    "model.egff_convexity",
    "losses.alignment_uniform_point",
    "losses.gradients",
    "losses.alignment_node_gradients",
    "losses.cosine_alignment_node_gradients",
    "metrics.oracle_agreement",
    "optimizer.adamw_single_step",
    "optimizer.cosine_schedule",
    "rng.array_bounds",
]


def test_all_checks_pass():
    results = selfcheck.run_all()
    assert [r.name for r in results] == NAMES
    assert [r.name for r in results if not r.passed] == []
