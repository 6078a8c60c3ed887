#include "transient/bidding.hpp"

#include <algorithm>
#include <cmath>

namespace deflate::transient {

double BidOptimizer::penalty_for(std::size_t priority_class) const noexcept {
  const auto& table = config_.class_penalty_hours;
  if (table.empty()) return 0.0;
  return table[std::min(priority_class, table.size() - 1)];
}

double BidOptimizer::revocation_rate(const PriceTrace& trace, double bid,
                                     const RevocationConfig& revocation) {
  RevocationConfig at_bid = revocation;
  at_bid.bid = bid;
  return make_revocation_model(revocation_model_of(revocation))
      ->expected_rate_per_hour(at_bid, &trace);
}

double BidOptimizer::cost_at_rate(const PriceTrace& trace, double bid,
                                  double penalty_hours, double rate) const {
  const auto& samples = trace.samples();
  if (samples.empty()) return config_.on_demand_price;

  std::size_t held = 0;
  double held_price_sum = 0.0;
  for (const double price : samples) {
    if (price <= bid) {
      ++held;
      held_price_sum += price;
    }
  }
  const double availability =
      static_cast<double>(held) / static_cast<double>(samples.size());
  const double spot_payment = held_price_sum / static_cast<double>(samples.size());
  return spot_payment +
         (1.0 - availability) * config_.on_demand_price *
             std::clamp(config_.fallback_discount, 0.0, 1.0) +
         penalty_hours * rate;
}

double BidOptimizer::expected_cost(const PriceTrace& trace, double bid,
                                   double penalty_hours,
                                   const RevocationConfig& revocation) const {
  return cost_at_rate(trace, bid, penalty_hours,
                      revocation_rate(trace, bid, revocation));
}

ClassBid BidOptimizer::optimize(const PriceTrace& trace,
                                std::size_t priority_class,
                                const RevocationConfig& revocation) const {
  ClassBid best;
  best.priority_class = priority_class;
  best.bid = config_.on_demand_price;
  if (trace.empty()) {
    best.expected_cost = config_.on_demand_price;
    return best;
  }

  // Distinct price levels + the on-demand price: the objective is a step
  // function of the bid that only changes at these points, so this sweep
  // is an exact minimization. Bidding above the on-demand rate is never
  // rational (buy on-demand instead), so spike samples above it are not
  // candidates.
  std::vector<double> candidates;
  candidates.reserve(trace.samples().size() + 1);
  for (const double price : trace.samples()) {
    if (price <= config_.on_demand_price) candidates.push_back(price);
  }
  candidates.push_back(config_.on_demand_price);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  const double penalty = penalty_for(priority_class);
  const std::shared_ptr<const RevocationModelPolicy> model =
      make_revocation_model(revocation_model_of(revocation));
  RevocationConfig at_bid = revocation;
  const auto rate_at = [&](double bid) {
    at_bid.bid = bid;
    return model->expected_rate_per_hour(at_bid, &trace);
  };
  best.bid = candidates.front();
  best.expected_cost =
      cost_at_rate(trace, best.bid, penalty, rate_at(best.bid));
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double cost =
        cost_at_rate(trace, candidates[i], penalty, rate_at(candidates[i]));
    if (cost < best.expected_cost) {  // strict: ties keep the lowest bid
      best.expected_cost = cost;
      best.bid = candidates[i];
    }
  }
  best.availability = 1.0 - trace.fraction_above(best.bid);
  best.revocation_rate_per_hour = rate_at(best.bid);
  return best;
}

std::vector<ClassBid> BidOptimizer::optimize_classes(
    const PriceTrace& trace, const RevocationConfig& revocation) const {
  std::vector<ClassBid> bids;
  const std::size_t classes = std::max<std::size_t>(
      config_.class_penalty_hours.size(), 1);
  bids.reserve(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    if (c == 0) {
      // The on-demand class never bids; publish the sticker rate so
      // index-aligned consumers see a well-defined entry.
      ClassBid od;
      od.priority_class = 0;
      od.bid = config_.on_demand_price;
      od.expected_cost = config_.on_demand_price;
      bids.push_back(od);
      continue;
    }
    bids.push_back(optimize(trace, c, revocation));
  }
  return bids;
}

}  // namespace deflate::transient
