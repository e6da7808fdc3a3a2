// Predict-path instrumentation seam for the no-allocation assertion.
//
// serve_alloc_test replaces global operator new in its own translation
// unit and installs a probe here; the shard worker calls the probe with
// entering=true/false around the drained-work section of every iteration.
// In production no probe is installed and the cost is one relaxed load per
// drain group. This keeps the assertion machinery out of the runtime while
// letting the test prove "predict path allocates nothing" on the real
// code, not a copy of it.
#pragma once

namespace reghd::serve {

using PredictPathProbe = void (*)(bool entering);

/// Installs (or, with nullptr, removes) the process-wide probe.
void set_predict_path_probe(PredictPathProbe probe) noexcept;

/// The currently installed probe, or nullptr.
[[nodiscard]] PredictPathProbe predict_path_probe() noexcept;

}  // namespace reghd::serve
