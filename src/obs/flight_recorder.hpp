// Always-on flight recorder: bounded-memory rings of coarse progress samples.
//
// One lane per worker thread (the runtime allocates nranks x workers lanes),
// each lane a fixed-capacity ring of samples. A sample is a handful of
// cumulative counters — superstep index, tasks executed, idle-taxonomy
// seconds, steals, bytes on wire, ready-queue depth — cheap enough to record
// at every idle transition without perturbing the run (<2% on the micro
// kernels, see bench_micro_kernels --flight-recorder).
//
// Writers are wait-free and never contend: a lane has exactly one writer, and
// every sample field is a relaxed atomic guarded by an even/odd per-slot
// sequence counter (seqlock per slot). A concurrent reader that catches a
// slot mid-write sees an odd or changed sequence and discards the slot, so a
// live scrape (TelemetryCollector, repro_top dumps) never blocks a worker and
// never observes a torn sample.
//
// Under -DREPRO_OBS_DISABLE the recorder compiles to an empty struct whose
// methods are constexpr no-ops — zero memory, zero instructions.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace repro::obs {

/// One coarse progress sample. All counter fields are cumulative since lane
/// start (deltas are taken by consumers), times are steady-clock seconds.
struct FlightSample {
  double t_s = 0.0;            ///< steady-clock capture time (seconds)
  std::uint64_t superstep = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t queue_depth = 0;
  double idle_halo_s = 0.0;    ///< waiting on a halo dependency
  double idle_noready_s = 0.0; ///< ready queue empty, nothing to steal
  double idle_steal_s = 0.0;   ///< idle gap ended by a successful steal
};

#ifndef REPRO_OBS_DISABLE

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;  ///< samples per lane

  explicit FlightRecorder(std::size_t lanes,
                          std::size_t capacity = kDefaultCapacity);

  std::size_t lanes() const { return lanes_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Record a sample into `lane`. Wait-free; exactly one writer per lane
  /// (enforced by the caller — the runtime maps each worker to its own lane).
  void record(std::size_t lane, const FlightSample& sample);

  /// Consistent snapshot of a lane's retained samples, oldest first. Slots
  /// caught mid-write are skipped, so the result is torn-free but may be one
  /// sample short of the writer's count.
  std::vector<FlightSample> snapshot(std::size_t lane) const;

  /// Total samples ever recorded into `lane` (retained = min(count,
  /// capacity)).
  std::uint64_t recorded(std::size_t lane) const;

 private:
  // Slot fields are individually-relaxed atomics; `seq` (even = stable,
  // odd = write in progress) makes the group consistent. Per-slot, not a
  // lane-wide seqlock, so the reader only discards the slot actually racing.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<double> t_s{0.0};
    std::atomic<std::uint64_t> superstep{0};
    std::atomic<std::uint64_t> tasks_executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> wire_bytes{0};
    std::atomic<std::uint64_t> queue_depth{0};
    std::atomic<double> idle_halo_s{0.0};
    std::atomic<double> idle_noready_s{0.0};
    std::atomic<double> idle_steal_s{0.0};
  };
  // One cache line per lane, so each lane's single writer owns its `count`
  // line: unpadded, four writers cost 21-25 ns of CPU per record against
  // 9-10 ns padded (BM_FlightRecorderRecord).
  struct alignas(64) Lane {
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> count{0};  ///< samples ever written
  };

  std::size_t capacity_;
  std::vector<Lane> lanes_;
};

#else  // REPRO_OBS_DISABLE

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 0;
  explicit FlightRecorder(std::size_t, std::size_t = 0) {}
  std::size_t lanes() const { return 0; }
  std::size_t capacity() const { return 0; }
  void record(std::size_t, const FlightSample&) {}
  std::vector<FlightSample> snapshot(std::size_t) const { return {}; }
  std::uint64_t recorded(std::size_t) const { return 0; }
};

#endif  // REPRO_OBS_DISABLE

}  // namespace repro::obs
