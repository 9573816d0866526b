// SeerParams text parsing.
//
// The correlator's parameters (Section 4.9) can be loaded from a small text
// file so deployments and the parameter-search harness need no recompile:
//
//   # comment
//   n 20              # neighbors per file, at most kMaxNeighbors
//   M 100             # update horizon
//   kn 10             # combine threshold
//   kf 6              # overlap threshold
//   distance lifetime # lifetime | sequence | temporal
//   mean geometric    # geometric | arithmetic
//   per-process on
//   aging-updates 50000
//   delete-delay 64
//   dir-weight 1.0
//   investigator-weight 1.0
//   temporal-horizon 600
#ifndef SRC_CORE_PARAMS_IO_H_
#define SRC_CORE_PARAMS_IO_H_

#include <string>
#include <string_view>

#include "src/core/params.h"
#include "src/util/status.h"

namespace seer {

// Parses directives on top of `base`; kInvalidArgument with a
// line-numbered message on bad input.
StatusOr<SeerParams> ParseSeerParams(std::string_view text, const SeerParams& base = {});

// Renders params as parseable text.
std::string FormatSeerParams(const SeerParams& params);

}  // namespace seer

#endif  // SRC_CORE_PARAMS_IO_H_
