#pragma once

/// Probes that time the `nn`, `bo` and `gp` public calls at the exact shapes
/// the pipeline uses at the quickstart budgets, plus the stage-2 cost they
/// predict for the attribution check.

#include <cstddef>

namespace perfbench {

struct ProbeCosts {
  double predict_ns = 0.0;        ///< BnnSample::predict, one 8-input row.
  double predict_batch_ns = 0.0;  ///< BnnSample::predict_batch, per row of 800.
  double thompson_us = 0.0;       ///< Bnn::thompson.
  double train_ms = 0.0;          ///< Bnn::train, 6 epochs, batch 64, final stage-2 size.
  double predict_at_mean_ns = 0.0;
  double mc_predict_us = 0.0;     ///< Bnn::predict with mc = 8.
  double predict_flops = 0.0;     ///< 2 per weight (multiply-add) + 1 per bias.
  double predict_bytes = 0.0;     ///< Weight and bias bytes one predict reads.
  double scan_ns = 0.0;           ///< One stage-2 Thompson-scan candidate.
  double sample_ns = 0.0;         ///< BoxSpace::sample of the configuration box.
  double gp_fit_ms = 0.0;         ///< GaussianProcess::fit at the stage-3 residual size.
  double gp_predict_us = 0.0;
};

/// Time every probe; takes about two seconds.
ProbeCosts run_probes();

/// Stage-2 surrogate time, in seconds, implied by the quickstart options
/// (Thompson draws x candidates scanned, one training per iteration at the
/// growing dataset size) priced at the probe costs.
double predicted_stage2_surrogate_s(const ProbeCosts& costs);

}  // namespace perfbench
