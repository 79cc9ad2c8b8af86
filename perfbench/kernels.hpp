#pragma once

#include "inputs.hpp"

#include "perpos/core/sample.hpp"
#include "perpos/fusion/features.hpp"
#include "perpos/locmodel/building.hpp"
#include "perpos/wifi/fingerprint.hpp"

#include <unordered_set>
#include <vector>

/// \file kernels.hpp
/// Kernel self times of the traced run: a workload's recorded inputs are
/// replayed through the layers' public functions outside the graph, so the
/// numbers hold no dispatch, provenance or feature-hook cost. Every figure
/// is the median over batches.

namespace perfbench {

/// StreamParser::feed, per raw fragment.
double parse_ns(const std::vector<DeviceInputs>& inputs);

/// The Resolver's lookup (frame conversion + Building::room_at), per
/// recorded resolver input (PositionFix or LocalPosition).
double resolve_ns(const std::vector<perpos::core::Sample>& resolver_inputs,
                  const perpos::locmodel::Building& building);

/// FingerprintDatabase::estimate, per scan.
double knn_us(const std::vector<DeviceInputs>& inputs,
              const perpos::wifi::FingerprintDatabase& database);

struct FilterKernels {
  double tree_us = 0.0;          ///< DataTree::build per channel output.
  double tree_nodes = 0.0;       ///< Mean nodes per tree.
  double update_us = 0.0;        ///< predict + weight + resample per fix.
  double likelihood_ns = 0.0;    ///< Likelihood-weighting per particle.
};

/// The particle-filter channel of one device, replayed in order: the
/// channel data tree, the device's own Likelihood feature's apply (its HDOP
/// lookups reach the live graph), then predict (with walls), weight through
/// the feature, resample.
FilterKernels filter_kernels(
    const std::vector<perpos::core::Sample>& filter_inputs,
    const std::unordered_set<perpos::core::ComponentId>& channel_members,
    perpos::fusion::HdopLikelihoodFeature& likelihood,
    const perpos::locmodel::Building& building, int particles);

}  // namespace perfbench
