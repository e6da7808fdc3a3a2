// checkpoint_torture — kill-and-resume harness for the crash-safe
// checkpoint subsystem (core/checkpoint).
//
// The harness runs an online RegHD stream twice over the same synthetic
// data:
//
//  1. an uninterrupted reference run, and
//  2. a tortured run that is "killed" --kills times at random points
//     (dropping all state that was not checkpointed), resuming each time
//     from the newest valid checkpoint via CheckpointManager::recover().
//
// On a rotating schedule the checkpoint written right before a kill is
// damaged through the fault-injection hooks (truncation, bit flips, short
// writes — silent storage corruption the writer never notices), so recovery
// must detect the damage via CRC32C and fall back to an older checkpoint,
// replaying the lost samples. A detected-failure case (kFailAt: the write
// syscall itself errors) is exercised too, asserting that a failed save
// never damages existing checkpoints.
//
// Success criteria, both enforced:
//  * the tortured run's final serialized state is BIT-IDENTICAL to the
//    reference run's, and
//  * every injected corruption is detected as a typed util::FormatError
//    when the damaged file is loaded directly.
//
//   checkpoint_torture [--kills 10] [--rows 1200] [--every 64] [--seed 7]
//                      [--dim 512] [--models 4] [--dir PATH]
//
// Exit status: 0 on success, 1 on any mismatch or undetected corruption, or
// on an option not listed above (named on stderr; nothing runs).
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "core/reghd.hpp"
#include "data/synthetic.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"
#include "util/fault_injection.hpp"
#include "util/framing.hpp"
#include "util/random.hpp"

namespace {

using namespace reghd;
namespace fs = std::filesystem;

std::string serialize(const core::OnlineRegHD& learner) {
  std::ostringstream out(std::ios::binary);
  core::save_online_checkpoint(out, learner);
  return out.str();
}

/// Every option main() reads; any other is a usage error.
constexpr std::string_view kOptions[] = {"kills", "rows", "every", "seed",
                                         "dim",   "models", "dir"};

int fail(const std::string& message) {
  std::cerr << "checkpoint_torture: FAIL — " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (const std::optional<std::string> unknown = args.first_unknown(kOptions)) {
    std::cerr << "checkpoint_torture: unknown option --" << *unknown << "\n";
    return 1;
  }
  const auto kills = static_cast<std::size_t>(args.get_int("kills", 10));
  const auto rows = static_cast<std::size_t>(args.get_int("rows", 1200));
  const auto every = static_cast<std::size_t>(args.get_int("every", 64));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::string dir = args.get_string(
      "dir", (fs::temp_directory_path() / "reghd-torture").string());

  core::OnlineConfig cfg;
  cfg.reghd.dim = static_cast<std::size_t>(args.get_int("dim", 512));
  cfg.reghd.models = static_cast<std::size_t>(args.get_int("models", 4));
  cfg.reghd.cluster_mode = core::ClusterMode::kQuantized;
  cfg.reghd.seed = seed;
  cfg.requantize_every = 96;  // off-cadence with --every: snapshots go stale

  try {
    const data::Dataset dataset = data::make_friedman1(rows, 123);

    // Reference: the stream that never crashes.
    core::OnlineRegHD reference(cfg, dataset.num_features());
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      reference.update(dataset.row(i), dataset.target(i));
    }
    const std::string reference_bytes = serialize(reference);

    fs::remove_all(dir);
    core::CheckpointConfig ckpt_cfg;
    ckpt_cfg.dir = dir;
    ckpt_cfg.keep_last = 3;
    ckpt_cfg.every = every;

    // Detected-failure case: a save whose write syscall errors must throw
    // and must not disturb the checkpoint directory.
    {
      core::CheckpointManager manager(ckpt_cfg);
      core::OnlineRegHD probe(cfg, dataset.num_features());
      for (std::size_t i = 0; i < every; ++i) {
        probe.update(dataset.row(i), dataset.target(i));
      }
      manager.save(probe);
      const auto before = manager.checkpoints();
      manager.set_fault_plan({util::FaultMode::kFailAt, 100, seed});
      bool threw = false;
      try {
        manager.save(probe);
      } catch (const util::IoError&) {
        threw = true;
      }
      if (!threw) {
        return fail("kFailAt save did not raise util::IoError");
      }
      if (manager.checkpoints() != before) {
        return fail("failed save changed the checkpoint set");
      }
      fs::remove_all(dir);
    }

    const util::FaultMode silent_modes[] = {util::FaultMode::kTruncateAt,
                                            util::FaultMode::kBitFlipAt,
                                            util::FaultMode::kShortWrite};
    util::Rng rng(seed ^ 0x7041A7UL);
    std::size_t corruptions = 0;
    std::size_t detected = 0;

    for (std::size_t cycle = 0; cycle <= kills; ++cycle) {
      core::CheckpointManager manager(ckpt_cfg);
      std::optional<core::OnlineRegHD> learner = manager.recover();
      if (!learner) {
        learner.emplace(cfg, dataset.num_features());
      }
      const std::size_t start = learner->samples_seen();
      const bool final_pass = cycle == kills;
      const std::size_t stop =
          final_pass ? dataset.size()
                     : std::min(dataset.size(),
                                start + 1 + rng.uniform_index(dataset.size() / 4 + 1));
      for (std::size_t i = start; i < stop; ++i) {
        learner->update(dataset.row(i), dataset.target(i));
        manager.maybe_save(*learner);
      }
      if (final_pass) {
        const std::string tortured_bytes = serialize(*learner);
        if (tortured_bytes != reference_bytes) {
          return fail("resumed stream state is not bit-identical to the reference");
        }
        break;
      }

      // Every other kill: the last checkpoint before the crash lands on
      // storage silently damaged. Recovery next cycle must reject it.
      if (cycle % 2 == 0) {
        const util::FaultMode mode = silent_modes[corruptions % 3];
        const std::size_t size = serialize(*learner).size();
        const auto at = rng.uniform_index(size);
        manager.set_fault_plan({mode, at, seed + cycle});
        const std::string path = manager.save(*learner);
        ++corruptions;
        try {
          std::istringstream in(util::read_file_bytes(path), std::ios::binary);
          (void)core::load_online_checkpoint(in);
          return fail("corrupted checkpoint (" + util::to_string(mode) + " at byte " +
                      std::to_string(at) + ") loaded without error: " + path);
        } catch (const util::FormatError&) {
          ++detected;  // the required typed error
        }
      }
      // "kill -9": the learner is dropped; un-checkpointed progress is lost.
    }

    if (detected != corruptions) {
      return fail("only " + std::to_string(detected) + "/" + std::to_string(corruptions) +
                  " corruptions raised typed errors");
    }
    std::cout << "checkpoint_torture: OK — " << kills << " kill/resume cycles, "
              << corruptions << "/" << corruptions
              << " injected corruptions detected, final state bit-identical\n";
    fs::remove_all(dir);
    return 0;
  } catch (const std::exception& e) {
    return fail(std::string("unexpected exception: ") + e.what());
  }
}
