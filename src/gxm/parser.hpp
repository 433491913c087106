// Topology description parser for GxM (paper Section II-L / Figure 3).
//
// The paper expresses DNN topologies in Protobuf text format; this repo uses
// an equivalent minimal prototxt-style syntax instead of linking protobuf:
//
//   layer { name: "conv1" type: "Convolution" bottom: "data" top: "conv1"
//           K: 64 R: 7 S: 7 stride: 2 pad: 3 }
//
// Repeated `bottom:` keys accumulate (multi-input nodes like Eltwise).
// Parsing produces the Network List (NL) — the first stage of Figure 3.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace xconv::gxm {

struct NodeSpec {
  std::string name;
  std::string type;
  std::vector<std::string> bottoms;
  std::vector<std::string> tops;
  std::map<std::string, int> iparams;       ///< K:, R:, stride:, relu:, ...
  std::map<std::string, double> fparams;    ///< lr:, momentum:, ...

  int geti(const std::string& key, int fallback) const {
    auto it = iparams.find(key);
    return it == iparams.end() ? fallback : it->second;
  }
  double getf(const std::string& key, double fallback) const {
    auto it = fparams.find(key);
    return it == fparams.end() ? fallback : it->second;
  }
};

/// Parse a topology description into the Network List. Throws
/// std::runtime_error with line information on malformed input.
std::vector<NodeSpec> parse_topology(const std::string& text);

}  // namespace xconv::gxm
