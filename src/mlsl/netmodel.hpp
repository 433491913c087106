// Analytic interconnect model for the paper's testbed: a 16-node cluster on
// a single 48-port Intel Omni-Path switch (Section III). Used to project the
// Figure 9 strong-scaling series on hardware we do not have (the cluster is
// substituted by this model plus in-process ranks; see the README section
// "Multi-node training and the overlapped allreduce"): ring-allreduce time
// per iteration, overlapped with the backward pass as MLSL does ("the
// allreduce of the gradient weights in the backward pass is completely
// overlapped").
//
// Since the topology-aware communicator redesign the model also describes a
// *two-level* machine: a `Topology` groups `ranks_per_node` ranks onto each
// of `nodes` nodes and carries one NetworkModel per level (the fast
// intra-node fabric and the slower inter-node links), which is what the
// hierarchical allreduce and its simulated-wire delay are driven by.
#pragma once

#include <cstddef>
#include <vector>

namespace xconv::mlsl {

struct NetworkModel {
  double link_bandwidth_gbs = 12.5;  ///< Omni-Path 100 Gbit/s per direction
  double latency_us = 1.0;           ///< switch + NIC per-message latency
  int chunk_messages = 2;            ///< messages per ring step

  /// Ring allreduce wall time for `bytes` of gradients across `nodes`.
  double allreduce_seconds(std::size_t bytes, int nodes) const;

  /// Calibrate a model against one *measured* allreduce: `seconds` of wall
  /// time moving `bytes` of payload ring-wise across `nodes`. With a single
  /// sample bandwidth and latency are not separable, so per-message latency
  /// is folded into the effective bandwidth (latency_us == 0) and
  /// `from_measured(b, k, t).allreduce_seconds(b, k) == t` — the anchor for
  /// the projected-vs-measured exposed-comm reconciliation in bench_overlap.
  /// Prefer the two-point overload when two payload sizes are available:
  /// the folded model over-charges large payloads and under-charges small
  /// ones on any link with real per-message cost.
  static NetworkModel from_measured(std::size_t bytes, int nodes,
                                    double seconds);

  /// Two-point calibration over two payload sizes (e.g. a small and a large
  /// bucket): solves the ring-time model
  ///   t_i = 2(k-1)/k * bytes_i / BW + 2(k-1) * chunk_messages * latency
  /// for bandwidth and per-message latency *separately*. Latency is clamped
  /// to >= 0; degenerate inputs (equal sizes, non-increasing times, k <= 1)
  /// fall back to the one-point calibration on the larger sample.
  static NetworkModel from_measured(std::size_t bytes_small,
                                    double seconds_small,
                                    std::size_t bytes_large,
                                    double seconds_large, int nodes);
};

/// Two-level machine descriptor for the topology-aware communicator:
/// `nodes` node groups of `ranks_per_node` ranks each, with one NetworkModel
/// per reduction level. Both levels default to zero bandwidth, which
/// disables the simulated-wire delay at that level (shared memory is the
/// wire); CommConfig::wire_gbs seeds both levels for the legacy homogeneous
/// wire.
struct Topology {
  int ranks_per_node = 1;
  /// Node-group count; 0 = derive from the communicator's rank count
  /// (ranks / ranks_per_node, which must divide evenly).
  int nodes = 0;
  NetworkModel intra{0.0, 0.0};  ///< intra-node fabric (bw 0 = no wire sim)
  NetworkModel inter{0.0, 0.0};  ///< inter-node links (bw 0 = no wire sim)

  int ranks() const { return ranks_per_node * nodes; }

  /// Throws std::invalid_argument on non-positive ranks_per_node, negative
  /// nodes, or negative bandwidth/latency at either level.
  void validate() const;

  /// One rank per node, wire simulation off at both levels (note `{}` for a
  /// NetworkModel would mean the 12.5 GB/s Omni-Path default, not "off").
  static Topology flat(int ranks) {
    Topology t;
    t.ranks_per_node = 1;
    t.nodes = ranks;
    return t;
  }
};

/// Scaling projection for one data-parallel training iteration:
///   t(k) = t_compute + exposed_comm(k) + sync_overhead(k)
/// where t_compute is the single-node iteration time (compute cores reduced
/// by `comm_cores_reserved` as the paper does: 8 of 72 on KNM, 4 of 56 on
/// SKX are set aside to drive the network) and exposed_comm comes either
/// from the scalar backward_fraction window (legacy) or from a measured
/// per-bucket wait histogram (see ScalingConfig).
struct ScalingPoint {
  int nodes = 1;
  double images_per_second = 0;
  double parallel_efficiency = 1.0;
  double allreduce_ms = 0;
  double exposed_comm_ms = 0;
};

struct ScalingConfig {
  double single_node_img_s = 0;   ///< measured or paper-reported
  int local_minibatch = 0;        ///< images per node per iteration
  std::size_t gradient_bytes = 0; ///< model size (fp32 gradients)
  /// Share of t_iter overlappable with the allreduce — the legacy scalar
  /// window, used only when the per-bucket profile below is absent.
  double backward_fraction = 0.55;
  double comm_core_penalty = 1.0;   ///< compute slowdown from reserved cores
  /// Per-iteration synchronization / straggler overhead as a fraction of
  /// compute time per log2(nodes) doubling — calibrated so 16 nodes land at
  /// the paper's ~90% parallel efficiency.
  double sync_overhead_frac = 0.028;
  NetworkModel net;

  // --- measured per-bucket overlap profile (preferred) ---------------------
  // Taken from a real overlapped run at `measured_nodes` scale: bucket b
  // moved `bucket_bytes[b]` of wire payload and exposed
  // `bucket_wait_seconds[b]` of blocked wait per iteration
  // (MultiNodeStats::bucket_wait_seconds / iterations). The projection
  // derives each bucket's overlap window
  //   window_b = max(0, t_ar(bucket_bytes[b], measured_nodes) - wait_b)
  // — the comm time the backward pass demonstrably hid at measurement scale
  // — and projects exposed(k) = sum_b max(0, t_ar(bucket_bytes[b], k) -
  // window_b). Buckets that already exposed comm keep exposing it; fully
  // hidden buckets absorb growth until their window is spent. Both vectors
  // must have equal size and measured_nodes must be > 1, else the scalar
  // backward_fraction path is used.
  std::vector<std::size_t> bucket_bytes;
  std::vector<double> bucket_wait_seconds;
  int measured_nodes = 0;
};

ScalingPoint project_scaling(const ScalingConfig& cfg, int nodes);

}  // namespace xconv::mlsl
