#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "atlas/offline_trainer.hpp"
#include "bo/top_k.hpp"
#include "env/slice_config.hpp"
#include "forwarding.hpp"
#include "gp/gaussian_process.hpp"
#include "nn/bnn.hpp"
#include "nn/optim.hpp"
#include "pipeline_phase.hpp"

namespace perfbench {

namespace {

using atlas::math::Matrix;
using atlas::math::Rng;
using atlas::math::Vec;

// Stage-2 shapes at the quickstart budgets (pipeline_options).
constexpr std::size_t kStage2Parallel = 4;
constexpr std::size_t kStage2Init = 15;
constexpr std::size_t kStage2Candidates = 800;
constexpr std::size_t kTrainEpochs = 6;
constexpr std::size_t kTrainBatch = 64;
constexpr std::size_t kStage3Observations = 20;

/// Median over `blocks` of the mean nanoseconds per call in a block of
/// `calls` calls.
template <typename Fn>
double ns_per_call(std::size_t calls, std::size_t blocks, Fn&& fn) {
  std::vector<double> per_call;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(calls));
  }
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2, per_call.end());
  return per_call[per_call.size() / 2];
}

/// Keeps a probe result alive so the optimizer cannot drop the call.
volatile double g_sink = 0.0;

}  // namespace

ProbeCosts run_probes() {
  ProbeCosts c;
  Rng rng(12345);
  const atlas::bo::BoxSpace space = atlas::env::SliceConfig::space();
  const atlas::app::Sla sla;

  // The stage-2 QoE surrogate, sized and trained like OfflineTrainer's.
  atlas::nn::BnnConfig config;
  config.sizes = {2 + space.dim(), 64, 64, 1};
  config.noise_sigma = 0.07;
  atlas::nn::Bnn bnn(config, rng);
  const std::size_t final_rows = kStageIterations[1] * kStage2Parallel;
  Matrix x(final_rows, config.sizes.front());
  Vec y(final_rows);
  for (std::size_t r = 0; r < final_rows; ++r) {
    x.set_row(r, core::OfflinePolicy::input(1, sla.latency_threshold_ms,
                                            space.normalize(space.sample(rng))));
    y[r] = rng.uniform();
  }
  atlas::nn::Adadelta opt(1.0);
  atlas::nn::StepLr sched(opt, 1, 0.999);
  // Training is most of the predicted stage-2 time, so it gets the most
  // blocks: a short window falls inside one fast or slow spell of the host.
  c.train_ms = ns_per_call(1, 15, [&](std::size_t) {
                 g_sink = bnn.train(x, y, kTrainEpochs, kTrainBatch, opt, &sched, rng);
               }) * 1e-6;

  const atlas::nn::BnnSample draw = bnn.thompson(rng);
  std::vector<Vec> inputs(kStage2Candidates);
  Matrix batch(kStage2Candidates, config.sizes.front());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = core::OfflinePolicy::input(1, sla.latency_threshold_ms,
                                           space.normalize(space.sample(rng)));
    batch.set_row(i, inputs[i]);
  }
  c.predict_ns = ns_per_call(5000, 7, [&](std::size_t i) {
    g_sink = draw.predict(inputs[i % inputs.size()]);
  });
  c.predict_batch_ns = ns_per_call(1, 25, [&](std::size_t) {
                         g_sink = draw.predict_batch(batch).front();
                       }) / static_cast<double>(kStage2Candidates);
  c.thompson_us = ns_per_call(50, 7, [&](std::size_t) {
                    g_sink = bnn.thompson(rng).biases.back().front();
                  }) * 1e-3;
  c.predict_at_mean_ns = ns_per_call(5000, 7, [&](std::size_t i) {
    g_sink = bnn.predict_at_mean(inputs[i % inputs.size()]);
  });
  c.mc_predict_us = ns_per_call(40, 5, [&](std::size_t i) {
                      g_sink = bnn.predict(inputs[i % inputs.size()], 8, rng).mean;
                    }) * 1e-3;
  // Per layer: one multiply-add per weight plus one add per bias.
  for (std::size_t l = 0; l + 1 < config.sizes.size(); ++l) {
    const double in = static_cast<double>(config.sizes[l]);
    const double out = static_cast<double>(config.sizes[l + 1]);
    c.predict_flops += 2.0 * in * out + out;
    c.predict_bytes += (in * out + out) * sizeof(double);
  }

  // One candidate of the stage-2 Thompson scan, as OfflineTrainer::train runs it.
  atlas::bo::TopK top(1);
  const double lambda = 0.5;
  c.scan_ns = ns_per_call(20000, 7, [&](std::size_t) {
    const Vec a = space.sample(rng);
    const double q_hat = std::clamp(
        draw.predict(core::OfflinePolicy::input(1, sla.latency_threshold_ms, space.normalize(a))),
        0.0, 1.0);
    const double usage = atlas::env::SliceConfig::from_vec(a).resource_usage();
    top.offer(a, usage - lambda * (q_hat - sla.availability));
  });
  c.sample_ns = ns_per_call(20000, 7, [&](std::size_t) { g_sink = space.sample(rng).front(); });

  // The stage-3 residual GP at its final observation count.
  Matrix gx(kStage3Observations, space.dim());
  Vec gy(kStage3Observations);
  for (std::size_t r = 0; r < kStage3Observations; ++r) {
    gx.set_row(r, space.normalize(space.sample(rng)));
    gy[r] = rng.normal() * 0.05;
  }
  std::vector<Vec> gp_inputs(kStage2Candidates);
  for (Vec& in : gp_inputs) in = space.normalize(space.sample(rng));
  atlas::gp::GaussianProcess gp;
  c.gp_fit_ms = ns_per_call(1, 7, [&](std::size_t) { gp.fit(gx, gy); }) * 1e-6;
  c.gp_predict_us = ns_per_call(5000, 7, [&](std::size_t i) {
                      g_sink = gp.predict(gp_inputs[i % gp_inputs.size()]).mean;
                    }) * 1e-3;
  return c;
}

double predicted_stage2_surrogate_s(const ProbeCosts& c) {
  const double draws =
      static_cast<double>((kStageIterations[1] - kStage2Init) * kStage2Parallel);
  const double candidates = draws * static_cast<double>(kStage2Candidates);
  // Training cost grows with the dataset: iteration i trains on 4(i+1) rows.
  double rows = 0.0;
  for (std::size_t i = 0; i < kStageIterations[1]; ++i) {
    rows += static_cast<double>((i + 1) * kStage2Parallel);
  }
  const double final_rows = static_cast<double>(kStageIterations[1] * kStage2Parallel);
  return draws * c.thompson_us * 1e-6 + candidates * c.scan_ns * 1e-9 +
         rows / final_rows * c.train_ms * 1e-3;
}

}  // namespace perfbench
