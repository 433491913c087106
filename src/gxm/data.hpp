// Synthetic dataset for GxM (substitutes ImageNet/LMDB: the
// paper's own layer benchmarks auto-generate inputs, and end-to-end img/s is
// content-independent). Images are deterministic class-dependent patterns
// plus noise, so training losses genuinely decrease — convergence tests rely
// on that signal.
#pragma once

#include <vector>

#include "tensor/layout.hpp"

namespace xconv::gxm {

/// Fill `batch` (blocked activation tensor) with one synthetic minibatch and
/// `labels` with the class of each image. Deterministic in `seed`.
void synth_batch(tensor::ActTensor& batch, std::vector<int>& labels,
                 int classes, unsigned seed);

}  // namespace xconv::gxm
