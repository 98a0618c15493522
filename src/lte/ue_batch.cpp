#include "lte/ue_batch.hpp"

#include <algorithm>

namespace atlas::lte {

using atlas::math::Rng;

UeBatch::UeBatch(common::Arena& arena, std::size_t count, const RadioParams& dl,
                 double distance_m, double fading_sigma_db, double fading_rho,
                 int cqi_lag_ttis)
    : count_(count),
      params_(dl),
      floor_db_(noise_interference_floor_db(dl.budget)),
      fading_rho_(std::clamp(fading_rho, 0.0, 0.9999)),
      fading_enabled_(fading_sigma_db > 0.0),
      cqi_lag_(std::max(0, cqi_lag_ttis)) {
  // Same innovation-scale hoist as FadingProcess (and the same clamped rho),
  // so the AR(1) update below is expression-identical to the scalar step.
  innovation_scale_ = fading_sigma_db * std::sqrt(1.0 - fading_rho_ * fading_rho_);
  if (count_ == 0) return;
  distance_m_ = arena.allocate_array<double>(count_);
  pathloss_db_ = arena.allocate_array<double>(count_);
  fading_value_ = arena.allocate_array<double>(count_);
  innovation_ = arena.allocate_array<double>(count_);
  blocked_until_ = arena.allocate_array<double>(count_);
  tb_bits_ = arena.allocate_array<double>(count_);
  bler_p_ = arena.allocate_array<double>(count_);
  bler_threshold_ = arena.allocate_array<std::uint64_t>(count_);
  draw53_ = arena.allocate_array<std::uint64_t>(count_);
  if (cqi_lag_ > 0) {
    cqi_hist_ = arena.allocate_array<double>(count_ * (static_cast<std::size_t>(cqi_lag_) + 1));
  }
  const double pl =
      pathloss_db(distance_m, dl.budget.baseline_loss_db, dl.budget.pathloss_exponent);
  for (std::size_t i = 0; i < count_; ++i) {
    distance_m_[i] = distance_m;
    pathloss_db_[i] = pl;
    fading_value_[i] = 0.0;
    blocked_until_[i] = 0.0;
    tb_bits_[i] = 0.0;
    bler_p_[i] = 0.0;
    bler_threshold_[i] = 0;
  }
}

void UeBatch::set_distance(std::size_t i, double d) noexcept {
  distance_m_[i] = d;
  pathloss_db_[i] =
      pathloss_db(d, params_.budget.baseline_loss_db, params_.budget.pathloss_exponent);
  link_valid_ = false;
}

double UeBatch::cqi_fading(std::size_t i) const noexcept {
  // Mirrors UeRadio::cqi_fading_db: before the ring fills, the oldest value
  // is row 0; afterwards it is the row at hist_head_.
  if (cqi_lag_ == 0 || hist_count_ == 0) return fading_value_[i];
  const std::size_t rows = static_cast<std::size_t>(cqi_lag_) + 1;
  const std::size_t row = hist_count_ < rows ? 0 : hist_head_;
  return cqi_hist_[row * count_ + i];
}

void UeBatch::step_fading_impl(Rng& rng) {
  if (fading_enabled_) {
    // DOCUMENTED DRAW ORDER: one normal innovation per UE, UE 0 first —
    // identical to the scalar engine's `for (ue : background) step_fading`.
    // The draws are inherently sequential (one xoshiro stream); the state
    // update below is the flat, vectorizable part.
    for (std::size_t i = 0; i < count_; ++i) innovation_[i] = rng.normal();
    double* v = fading_value_;
    const double* innov = innovation_;
    const double rho = fading_rho_;
    const double scale = innovation_scale_;
    for (std::size_t i = 0; i < count_; ++i) {
      // Same expression shape as FadingProcess::step (mul + mul + add), so
      // any FP-contraction policy treats both paths identically.
      v[i] = rho * v[i] + scale * innov[i];
    }
    link_valid_ = false;
  }
  if (cqi_lag_ > 0) {
    const std::size_t rows = static_cast<std::size_t>(cqi_lag_) + 1;
    std::size_t row;
    if (hist_count_ < rows) {
      row = hist_count_++;
    } else {
      row = hist_head_;
      if (++hist_head_ == rows) hist_head_ = 0;
    }
    std::copy(fading_value_, fading_value_ + count_, cqi_hist_ + row * count_);
  }
}

void UeBatch::refresh_link(int per_ue, int extra, int granted, int mcs_offset) {
  // The full SINR -> MCS -> TBS -> BLER chain, per granted UE, through the
  // same inline phy.hpp kernels as UeRadio — pure functions of the inputs,
  // so caching them at batch scope cannot change any value the sweep sees.
  for (int i = 0; i < granted; ++i) {
    const int prbs = per_ue + (i < extra ? 1 : 0);
    const double reported =
        sinr_db_cached(params_.budget, pathloss_db_[i], floor_db_, cqi_fading(i));
    const double inst =
        sinr_db_cached(params_.budget, pathloss_db_[i], floor_db_, fading_value_[i]);
    const int mcs = select_mcs(reported, params_.la_margin_db, mcs_offset, params_.mcs_cap);
    tb_bits_[i] = tbs_bits(mcs, prbs, params_.tbs_overhead);
    bler_p_[i] = bler(mcs, inst);
    // k < ceil(p * 2^53) over the 53 draw bits == uniform() < p, exactly
    // (see bler_threshold_'s declaration). p * 2^53 never rounds: a
    // power-of-two scale only shifts the exponent.
    bler_threshold_[i] = static_cast<std::uint64_t>(std::ceil(bler_p_[i] * 0x1.0p53));
  }
  link_valid_ = true;
  memo_per_ue_ = per_ue;
  memo_extra_ = extra;
  memo_offset_ = mcs_offset;
}

void UeBatch::run_dl_tti(double now, int budget_prbs, int mcs_offset, Rng& rng,
                         BatchTtiStats& out) {
  out = BatchTtiStats{};
  if (count_ == 0 || budget_prbs <= 0) return;
  const int n = static_cast<int>(count_);
  const int per_ue = budget_prbs / n;
  const int extra = budget_prbs % n;
  // With fewer PRBs than UEs only the first `extra` UEs receive a grant;
  // the rest are skipped outright (no TB, no draw), like the scalar
  // scheduler's `if (grant <= 0) continue`.
  const int granted = per_ue > 0 ? n : extra;
  if (granted == 0) return;

  // Steady state (fading disabled, same grant layout and offset as last
  // TTI — every background UE on the simulator profile) reuses the cached
  // TB/BLER arrays; the TTI then costs one uniform draw + compare per UE.
  if (!(link_valid_ && !fading_enabled_ && per_ue == memo_per_ue_ &&
        extra == memo_extra_ && mcs_offset == memo_offset_)) {
    refresh_link(per_ue, extra, granted, mcs_offset);
  }

  const double* p = bler_p_;
  const double* tb = tb_bits_;
  const std::uint64_t* thr = bler_threshold_;
  if (now >= max_blocked_until_) {
    // Fast path: no UE is inside a HARQ round trip, so every granted UE
    // draws exactly one uniform, ascending index (DOCUMENTED DRAW ORDER).
    // The draw IS rng.uniform()'s raw 53 bits; `k < thr` is bit-equivalent
    // to `uniform() < p` (see bler_threshold_), so the whole Bernoulli
    // sweep is one serial RNG chain plus integer compares.
    int errs = 0;
    for (int i = 0; i < granted; ++i) {
      const std::uint64_t k = rng.next_u64() >> 11;
      draw53_[i] = k;
      errs += k < thr[i] ? 1 : 0;
    }
    out.tb_total = granted;
    out.tb_err = errs;

    if (errs == 0) {
      // All delivered: left-to-right sum, the scalar accumulation order.
      double delivered = 0.0;
      for (int i = 0; i < granted; ++i) delivered += tb[i];
      out.delivered_bits = delivered;
      return;
    }
    // Errored TBs gate their UE for the HARQ round trip; delivered bits
    // keep the scalar left-to-right accumulation (skipped terms are the
    // skipped UEs, exactly as in the scalar walk).
    const double until = now + static_cast<double>(params_.harq_rtt_ttis) * kTtiMs;
    double delivered = 0.0;
    for (int i = 0; i < granted; ++i) {
      if (draw53_[i] < thr[i]) {
        blocked_until_[i] = until;
      } else {
        delivered += tb[i];
      }
    }
    out.delivered_bits = delivered;
    max_blocked_until_ = std::max(max_blocked_until_, until);
    return;
  }

  // Slow path (some UE mid-HARQ, e.g. the real profile's 3-TTI round
  // trip): per-UE walk that skips blocked UEs without drawing — the draw
  // order is still "granted, unblocked UEs, ascending index".
  for (int i = 0; i < granted; ++i) {
    if (now < blocked_until_[i]) continue;
    ++out.tb_total;
    if (rng.uniform() < p[i]) {
      ++out.tb_err;
      const double until = now + static_cast<double>(params_.harq_rtt_ttis) * kTtiMs;
      blocked_until_[i] = until;
      max_blocked_until_ = std::max(max_blocked_until_, until);
    } else {
      out.delivered_bits += tb[i];
    }
  }
}

}  // namespace atlas::lte
