#include "probes.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "net/persistent_channel.hpp"
#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "stencil/halo.hpp"
#include "stream/stream.hpp"

namespace perfbench {

namespace stencil = repro::stencil;
namespace rt = repro::rt;
namespace net = repro::net;

namespace {

/// Median seconds per call of `body` over `chunks` chunks; the chunk size
/// doubles until one chunk lasts at least `min_chunk_s`.
template <typename Body>
double seconds_per_call(Body&& body, double min_chunk_s, int chunks) {
  long calls = 1;
  for (;;) {
    const double t0 = now_s();
    for (long i = 0; i < calls; ++i) body();
    if (now_s() - t0 >= min_chunk_s) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int c = 0; c < chunks; ++c) {
    const double t0 = now_s();
    for (long i = 0; i < calls; ++i) body();
    per_call.push_back((now_s() - t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

void fill(std::vector<double>& v, double base) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = base + 1e-3 * static_cast<double>(i % 97);
  }
}

std::size_t last_level_cache_bytes() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<std::size_t>(bytes) : std::size_t{32} << 20;
}

}  // namespace

KernelProbe probe_kernel(int tile, int ghost, stencil::KernelVariant variant,
                         bool tiny) {
  const stencil::TileGeom geom{tile, tile, ghost, ghost, ghost, ghost};
  std::vector<double> a(geom.size()), b(geom.size());
  fill(a, 1.0);
  b = a;
  // Weights summing to one keep the field near the fixed ghost values, so
  // repeated sweeps never drift into subnormal numbers.
  const stencil::Stencil5 weights{0.2, 0.2, 0.2, 0.2, 0.2};
  const double per_sweep = seconds_per_call(
      [&] {
        stencil::jacobi5_opt(a.data(), b.data(), geom, weights, 0, tile, 0,
                             tile, variant);
        std::swap(a, b);
      },
      tiny ? 0.002 : 0.03, tiny ? 3 : 9);
  KernelProbe probe;
  const double points = static_cast<double>(tile) * tile;
  probe.ns_per_pt = per_sweep / points * 1e9;
  probe.computed_gbs = 16.0 * points / per_sweep / 1e9;
  return probe;
}

PackProbe probe_pack(int tile, int depth, bool corners, bool tiny) {
  const stencil::TileGeom geom{tile, tile, depth, depth, depth, depth};
  std::vector<double> ext(geom.size());
  fill(ext, 1.0);
  std::vector<std::vector<double>> bands(4), blocks(4);
  double doubles = 0.0;
  for (int s = 0; s < 4; ++s) {
    bands[static_cast<std::size_t>(s)].resize(
        static_cast<std::size_t>(depth) * static_cast<std::size_t>(tile));
    doubles += static_cast<double>(bands[static_cast<std::size_t>(s)].size());
    if (corners) {
      blocks[static_cast<std::size_t>(s)].resize(
          static_cast<std::size_t>(depth) * static_cast<std::size_t>(depth));
      doubles +=
          static_cast<double>(blocks[static_cast<std::size_t>(s)].size());
    }
  }
  const double min_chunk = tiny ? 0.002 : 0.02;
  const int chunks = tiny ? 3 : 7;
  const double pack_s = seconds_per_call(
      [&] {
        for (int s = 0; s < 4; ++s) {
          const auto i = static_cast<std::size_t>(s);
          stencil::pack_band_planes_into(bands[i].data(), ext.data(), geom,
                                         stencil::kAllSides[i], depth, 1);
          if (corners) {
            stencil::pack_corner_planes_into(blocks[i].data(), ext.data(),
                                             geom, stencil::kAllCorners[i],
                                             depth, 1);
          }
        }
      },
      min_chunk, chunks);
  const double unpack_s = seconds_per_call(
      [&] {
        for (int s = 0; s < 4; ++s) {
          const auto i = static_cast<std::size_t>(s);
          stencil::unpack_band_planes(ext.data(), geom, stencil::kAllSides[i],
                                      bands[i], depth, 1);
          if (corners) {
            stencil::unpack_corner_planes(ext.data(), geom,
                                          stencil::kAllCorners[i], blocks[i],
                                          depth, 1);
          }
        }
      },
      min_chunk, chunks);
  return {pack_s / doubles * 1e9, unpack_s / doubles * 1e9};
}

double probe_dispatch_ns_per_task(int node_rows, int node_cols, int workers,
                                  int tiles, std::size_t tasks, bool tiny) {
  const std::size_t per_iter =
      static_cast<std::size_t>(tiles) * static_cast<std::size_t>(tiles);
  const int iters = static_cast<int>(std::max<std::size_t>(2, tasks / per_iter));
  const auto rank_of = [&](int i, int j) {
    return (i * node_rows / tiles) * node_cols + (j * node_cols / tiles);
  };
  std::vector<double> per_task;
  for (int rep = 0; rep < (tiny ? 1 : 3); ++rep) {
    rt::TaskGraph graph;
    for (int k = 0; k < iters; ++k) {
      for (int i = 0; i < tiles; ++i) {
        for (int j = 0; j < tiles; ++j) {
          rt::TaskSpec spec;
          spec.key = rt::TaskKey{k == 0 ? 0u : 1u, k, i, j};
          spec.rank = rank_of(i, j);
          spec.klass = "empty";
          if (k > 0) {
            const int di[] = {0, -1, 1, 0, 0};
            const int dj[] = {0, 0, 0, -1, 1};
            for (int d = 0; d < 5; ++d) {
              const int ni = i + di[d], nj = j + dj[d];
              if (ni < 0 || nj < 0 || ni >= tiles || nj >= tiles) continue;
              spec.inputs.push_back(
                  {rt::TaskKey{k == 1 ? 0u : 1u, k - 1, ni, nj}, 0});
            }
          }
          spec.body = [](rt::TaskContext& ctx) {
            ctx.publish(0, std::vector<double>(1, 0.0));
          };
          graph.add_task(std::move(spec));
        }
      }
    }
    rt::Config config;
    config.nranks = node_rows * node_cols;
    config.workers_per_rank = workers;
    config.metrics = std::make_shared<repro::obs::MetricsRegistry>();
    rt::Runtime runtime(config);
    const double t0 = now_s();
    const rt::RunStats stats = runtime.run(graph);
    const double wall = now_s() - t0;
    const double idle =
        config.metrics->snapshot().gauge_total("rt_idle_seconds_total");
    const double busy = wall * config.nranks * workers - idle;
    per_task.push_back(busy / static_cast<double>(stats.tasks_executed) * 1e9);
  }
  return median(per_task);
}

namespace {

std::uint64_t stamp_bits() { return std::bit_cast<std::uint64_t>(now_s()); }
double since_stamp(std::uint64_t bits) {
  return now_s() - std::bit_cast<double>(bits);
}

/// Ping one message at a time from rank 0 to rank 1; the receiver thread
/// records now - stamp. `make` builds an unstamped message, `stamp_and_send`
/// stamps and sends it.
template <typename Make, typename Send, typename Recv>
double one_way_us(int count, Make&& make, Send&& stamp_and_send,
                  Recv&& recv_stamp) {
  std::atomic<int> delivered{0};
  std::vector<double> latency(static_cast<std::size_t>(count));
  std::thread receiver([&] {
    for (int n = 0; n < count; ++n) {
      latency[static_cast<std::size_t>(n)] = since_stamp(recv_stamp());
      delivered.store(n + 1, std::memory_order_release);
    }
  });
  for (int n = 0; n < count; ++n) {
    auto msg = make();
    stamp_and_send(std::move(msg));
    while (delivered.load(std::memory_order_acquire) <= n) {
      std::this_thread::yield();
    }
  }
  receiver.join();
  return median(latency) * 1e6;
}

}  // namespace

NetProbe probe_net(std::size_t message_bytes, bool tiny) {
  // Wire bytes = 8 (tag) + 8 per header word + 8 per payload double; the
  // probe uses two header words like the runtime's flow headers.
  const std::size_t payload =
      message_bytes > 32 ? (message_bytes - 24) / sizeof(double) : 1;
  const int pings = tiny ? 200 : 4000;
  NetProbe probe;
  {
    net::Transport transport(2);
    probe.msg_us = one_way_us(
        pings,
        [&] {
          net::Message msg;
          msg.src = 0;
          msg.dst = 1;
          msg.header = {0, 0};
          msg.payload.assign(payload, 1.0);
          return msg;
        },
        [&](net::Message msg) {
          msg.header[0] = stamp_bits();
          transport.send(std::move(msg));
        },
        [&] { return transport.recv(1)->header[0]; });
  }
  {
    net::Transport transport(2);
    const std::size_t total_bytes = tiny ? (std::size_t{4} << 20)
                                         : (std::size_t{128} << 20);
    const int count = static_cast<int>(
        std::clamp<std::size_t>(total_bytes / message_bytes, 100, 200000));
    std::thread receiver([&] {
      for (int n = 0; n < count; ++n) transport.recv(1);
    });
    const double t0 = now_s();
    for (int n = 0; n < count; ++n) {
      net::Message msg;
      msg.src = 0;
      msg.dst = 1;
      msg.header = {0, 0};
      msg.payload.assign(payload, 1.0);
      transport.send(std::move(msg));
    }
    receiver.join();
    const double elapsed = now_s() - t0;
    probe.gbs = static_cast<double>(count) *
                static_cast<double>(message_bytes) / elapsed / 1e9;
  }
  {
    auto channel = std::make_shared<net::PersistentChannel>(
        std::make_shared<net::Transport>(2));
    channel->negotiate({net::RouteSpec{1, 0, 1, payload, 1}});
    probe.persistent_msg_us = one_way_us(
        pings, [&] { return channel->acquire(1); },
        [&](std::shared_ptr<std::vector<double>> slot) {
          channel->send(channel->make_fragment(1, 0, std::move(slot),
                                               {stamp_bits(), 0}));
        },
        [&] { return channel->recv(1)->header[0]; });
  }
  return probe;
}

ObsProbe probe_obs(int threads, bool tiny) {
  const long adds = tiny ? 20000 : 2000000;
  const long records = tiny ? 20000 : 1000000;
  repro::obs::Counter counter;
  repro::obs::FlightRecorder recorder(static_cast<std::size_t>(threads));
  std::vector<double> add_ns(static_cast<std::size_t>(threads));
  std::vector<double> record_ns(static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      double t0 = now_s();
      for (long i = 0; i < adds; ++i) counter.add(1);
      add_ns[static_cast<std::size_t>(t)] =
          (now_s() - t0) / static_cast<double>(adds) * 1e9;
      repro::obs::FlightSample sample;
      t0 = now_s();
      for (long i = 0; i < records; ++i) {
        sample.tasks_executed = static_cast<std::uint64_t>(i);
        recorder.record(static_cast<std::size_t>(t), sample);
      }
      record_ns[static_cast<std::size_t>(t)] =
          (now_s() - t0) / static_cast<double>(records) * 1e9;
    });
  }
  for (auto& th : pool) th.join();
  if (repro::obs::kEnabled &&
      counter.value() != static_cast<std::uint64_t>(adds) * threads) {
    throw std::runtime_error("obs probe: counter lost updates");
  }
  return {median(add_ns), median(record_ns)};
}

StreamProbe probe_stream(bool tiny) {
  StreamProbe probe;
  probe.llc_bytes = last_level_cache_bytes();
  const std::size_t doubles =
      tiny ? (std::size_t{1} << 20) : 4 * probe.llc_bytes / sizeof(double);
  probe.array_bytes = doubles * sizeof(double);
  const auto result = repro::stream::run_stream(doubles, tiny ? 1 : 2, 1);
  probe.copy_gbs = result.copy_Bps / 1e9;
  return probe;
}

double probe_des_ns_per_task(std::size_t tasks, int tiles, int tile) {
  namespace sim = repro::sim;
  const sim::Machine machine = sim::nacl();
  constexpr int kNodeSide = 4;
  const std::size_t per_iter =
      static_cast<std::size_t>(tiles) * static_cast<std::size_t>(tiles);
  const int iters = static_cast<int>(std::max<std::size_t>(2, tasks / per_iter));
  const auto node_of = [&](int i, int j) {
    return (i * kNodeSide / tiles) * kNodeSide + (j * kNodeSide / tiles);
  };
  sim::SimGraph graph;
  const double cost =
      static_cast<double>(tile) * tile / machine.worker_point_rate();
  const double band_bytes = 8.0 * tile;
  std::vector<std::uint32_t> prev(per_iter), cur(per_iter);
  for (int k = 0; k < iters; ++k) {
    for (int i = 0; i < tiles; ++i) {
      for (int j = 0; j < tiles; ++j) {
        const auto at = static_cast<std::size_t>(i * tiles + j);
        cur[at] = graph.add_task({node_of(i, j), cost, 0, 0});
        if (k == 0) continue;
        const int di[] = {0, -1, 1, 0, 0};
        const int dj[] = {0, 0, 0, -1, 1};
        for (int d = 0; d < 5; ++d) {
          const int ni = i + di[d], nj = j + dj[d];
          if (ni < 0 || nj < 0 || ni >= tiles || nj >= tiles) continue;
          graph.add_edge(prev[static_cast<std::size_t>(ni * tiles + nj)],
                         cur[at], band_bytes);
        }
      }
    }
    std::swap(prev, cur);
  }
  sim::SimMachineConfig config;
  config.nodes = kNodeSide * kNodeSide;
  config.workers_per_node = machine.compute_workers();
  config.link = machine.link;
  config.comm_overhead_s = machine.comm_overhead_s;
  std::vector<double> per_task;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    const sim::SimResult result = sim::simulate(graph, config);
    per_task.push_back((now_s() - t0) /
                       static_cast<double>(result.tasks_executed) * 1e9);
  }
  return median(per_task);
}

}  // namespace perfbench
