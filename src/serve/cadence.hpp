// Snapshot-publication cadence policy, extracted from the trainer loop so
// its clock arithmetic is testable with synthetic timestamps.
//
// Two triggers, whichever fires first:
//
//   * count: `every` applied updates since the last publication;
//   * time:  `interval_ns` elapsed since the last publication *returned*,
//            with at least one update pending.
//
// The time trigger is anchored at the instant the previous publish finished,
// not the instant it was decided: a publish copies the whole learner, and
// stamping the pre-publish clock made the interval timer
// systematically fire early under load — each cycle's budget was silently
// shortened by the previous publish's cost. published() therefore takes the
// post-publish clock reading.
#pragma once

#include <cstddef>
#include <cstdint>

namespace reghd::serve {

struct PublishCadence {
  std::uint64_t interval_ns = 0;  ///< time trigger; 0 disables.
  std::size_t every = 0;          ///< count trigger; 0 disables.

  std::size_t dirty = 0;          ///< updates applied since last publish.
  std::uint64_t last_ns = 0;      ///< when the last publish *returned*.

  /// Records `n` freshly applied updates.
  void applied(std::size_t n) noexcept { dirty += n; }

  /// True when either trigger fires at clock reading `now`.
  [[nodiscard]] bool due(std::uint64_t now) const noexcept {
    const bool count_due = every > 0 && dirty >= every;
    const bool time_due = interval_ns > 0 && dirty > 0 && now - last_ns >= interval_ns;
    return count_due || time_due;
  }

  /// Resets both triggers. `now_after_publish` must be read *after* the
  /// publish returned, so the next interval starts from the publish's end.
  void published(std::uint64_t now_after_publish) noexcept {
    dirty = 0;
    last_ns = now_after_publish;
  }
};

}  // namespace reghd::serve
