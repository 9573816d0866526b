// Tunable parameters for SEER's semantic-distance and clustering algorithms.
//
// The paper's published values: n = 20 neighbors per file and M = 100 for
// the update horizon (Section 3.1.3); kn and kf are described but their
// values are in the author's thesis, so our defaults come from the parameter
// search that bench/ablation_params reproduces (Section 4.9's methodology).
#ifndef SRC_CORE_PARAMS_H_
#define SRC_CORE_PARAMS_H_

#include <cstdint>

namespace seer {

// Distance definition in use (Section 3.1.1). Lifetime distance is SEER's
// production setting; the others exist for the ablation benches.
enum class DistanceKind : uint8_t {
  kTemporal,  // Definition 1: elapsed clock time
  kSequence,  // Definition 2: intervening references
  kLifetime,  // Definition 3: intervening opens, 0 while the source is open
};

// Reduction from per-reference distances to a per-file-pair value
// (Section 3.1.2).
enum class MeanKind : uint8_t {
  kArithmetic,
  kGeometric,
};

// Largest n that text input (params files, `params set`, a snapshot's
// PRMS section) may ask for. The relation slab reserves n slots of 48
// bytes per file, so this caps what a params directive can make a restore
// allocate at 12 KiB per file. The paper uses 20; the ablation sweeps to 40.
inline constexpr int kMaxNeighbors = 256;

struct SeerParams {
  // n: nearest-neighbor distances kept per file (Section 3.1.3).
  int max_neighbors = 20;

  // M: a new reference updates only distances from files referenced within
  // the last M opens; larger computed values are clamped to M
  // (the compensation insertion, Section 3.1.3).
  int distance_horizon = 100;

  // kn / kf: shared-neighbor thresholds for combining and overlapping
  // clusters, kn > kf (Section 3.3.2).
  int cluster_near = 10;
  int cluster_far = 6;

  DistanceKind distance_kind = DistanceKind::kLifetime;
  MeanKind mean_kind = MeanKind::kGeometric;

  // Geometric-mean floor for zero distances (Section 3.1.2 keeps zero
  // meaningful: a run of zeros must stay below every nonzero distance).
  double geometric_zero_floor = 0.5;

  // Per-process streams (Section 4.7). Disable for the ablation bench that
  // shows why interleaved streams create spurious relationships.
  bool per_process_streams = true;

  // Aging (Section 3.1.3): a neighbor entry not updated for this many
  // relation-table updates may be replaced by a newer candidate even when
  // its distance is smaller.
  uint64_t aging_updates = 50'000;

  // File deletion is soft; the entry is purged only after this many further
  // deletions (Section 4.8).
  uint64_t delete_delay = 64;

  // Weight applied to the directory-distance measure when adjusting
  // shared-neighbor counts (subtracted; Section 3.3.3). 0 disables.
  double dir_distance_weight = 1.0;

  // Multiplier on investigator-provided relation strengths when adjusting
  // shared-neighbor counts (added; Section 3.3.3).
  double investigator_weight = 1.0;

  // Temporal distances (Definition 1) are measured in seconds and clamped
  // to this ceiling before reduction, playing the role M plays for
  // open-count distances.
  double temporal_horizon_seconds = 600.0;
};

}  // namespace seer

#endif  // SRC_CORE_PARAMS_H_
