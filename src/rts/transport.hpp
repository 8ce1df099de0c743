#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/crc32c.hpp"

namespace paratreet::rts {

class Runtime;
using Task = std::function<void()>;

/// Protocol tag of one cross-rank message. Application traffic uses the
/// first four kinds; the remaining kinds are transport control frames
/// that never carry an application payload. The tag travels in the frame
/// header so a wire transport (and anyone snooping it) can tell fills
/// from checkpoints from protocol chatter.
enum class MessageKind : std::uint16_t {
  kData = 0,    ///< untagged application message
  kRequest,     ///< cache-fill request (key + routing metadata)
  kResponse,    ///< cache-fill response / nack
  kCheckpoint,  ///< buddy copy of a checkpoint chunk
  kAck,         ///< reliable-layer acknowledgement
  kHello,       ///< rank process announcing itself after spawn
  kReceipt,     ///< rank process confirming frame delivery
  kHeartbeat,   ///< liveness ping (parent → rank) / pong (rank → parent)
};
inline constexpr std::size_t kNumMessageKinds = 8;
inline constexpr const char* kMessageKindNames[kNumMessageKinds] = {
    "data", "request", "response", "checkpoint",
    "ack",  "hello",   "receipt",  "heartbeat"};

/// One cross-rank message: the envelope Runtime::send() takes. `bytes` is
/// the modeled payload size (what the communication-volume statistics and
/// the CommModel charge); `on_receive` runs exactly once on a worker of
/// rank `to` after delivery. `payload` optionally attaches the real
/// serialized bytes (core/serialization.hpp encodings, e.g. checkpoint
/// chunks) — a wire transport ships them verbatim, the in-proc transport
/// ignores them (the closure already owns the data in-address-space).
struct Message {
  int from = -1;
  int to = -1;
  std::size_t bytes = 0;
  MessageKind kind = MessageKind::kData;
  Task on_receive{};
  std::shared_ptr<const std::vector<std::byte>> payload{};
};

/// Receipt flag: the rank process received the frame intact on the wire
/// but its CRC32C check failed — the payload was corrupted in flight. The
/// parent treats it as a detected drop: the closure does NOT run, and the
/// reliable layer's ack-timeout retransmission heals it.
inline constexpr std::uint16_t kFrameFlagCorruptNack = 0x1;

/// Length-prefixed wire frame header, the TCP transport's unit of
/// exchange: header then exactly `payload_bytes` bytes of payload.
/// `declared_bytes` is the modeled message size (>= payload_bytes: filler
/// payloads are capped at TransportConfig.max_frame_bytes). `crc32c`
/// covers the whole frame — header (with the crc field zeroed) then
/// payload — so both metadata and payload bit-flips are detected
/// end-to-end, not just framing damage.
struct FrameHeader {
  static constexpr std::uint32_t kMagic = 0x50545246u;  // "PTRF"
  std::uint32_t magic = kMagic;
  std::uint16_t kind = 0;
  std::int16_t from = -1;
  std::int16_t to = -1;
  std::uint16_t flags = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc32c = 0;
  std::uint32_t reserved = 0;
  std::uint64_t seq = 0;
  std::uint64_t declared_bytes = 0;
};
static_assert(sizeof(FrameHeader) == 40, "frame header must be fixed-size");

/// CRC32C of one frame: the header with its crc field zeroed, chained
/// over the payload. Pure computation, async-signal-safe (rank processes
/// verify and stamp frames with it after fork).
inline std::uint32_t frameCrc(const FrameHeader& header,
                              const std::byte* payload,
                              std::size_t payload_len) {
  FrameHeader h = header;
  h.crc32c = 0;
  std::uint32_t crc = util::crc32c(&h, sizeof(h));
  if (payload_len != 0) crc = util::crc32c(payload, payload_len, crc);
  return crc;
}

/// Stamp `header.crc32c` for the given payload.
inline void stampFrameCrc(FrameHeader& header, const std::byte* payload,
                          std::size_t payload_len) {
  header.crc32c = frameCrc(header, payload, payload_len);
}

/// Does the stamped checksum match the frame's actual bytes?
inline bool frameCrcValid(const FrameHeader& header, const std::byte* payload,
                          std::size_t payload_len) {
  return header.crc32c == frameCrc(header, payload, payload_len);
}

/// Encode one frame: header + payload, CRC stamped, ready for the wire.
inline std::vector<std::byte> encodeFrame(FrameHeader header,
                                          const std::byte* payload,
                                          std::size_t payload_len) {
  if (payload_len != header.payload_bytes) {
    throw std::invalid_argument(
        "encodeFrame: header claims " + std::to_string(header.payload_bytes) +
        " payload byte(s) but " + std::to_string(payload_len) +
        " were supplied");
  }
  stampFrameCrc(header, payload, payload_len);
  std::vector<std::byte> out(sizeof(FrameHeader) + payload_len);
  std::memcpy(out.data(), &header, sizeof(FrameHeader));
  if (payload_len != 0) {
    std::memcpy(out.data() + sizeof(FrameHeader), payload, payload_len);
  }
  return out;
}

/// Decode and validate a frame header, mirroring the snapshot loader's
/// strictness: bad magic, an unknown kind, a payload larger than
/// `max_payload`, or a buffer smaller than the header are all corrupt
/// frames and throw rather than being guessed at. `len` is the number of
/// bytes available; callers with only a partial frame should wait until
/// at least sizeof(FrameHeader) bytes have arrived.
inline FrameHeader decodeFrameHeader(const std::byte* data, std::size_t len,
                                     std::uint32_t max_payload) {
  FrameHeader header;
  if (len < sizeof(FrameHeader)) {
    throw std::runtime_error(
        "transport frame corrupt: " + std::to_string(len) +
        " byte(s), smaller than the frame header");
  }
  std::memcpy(&header, data, sizeof(FrameHeader));
  if (header.magic != FrameHeader::kMagic) {
    throw std::runtime_error("transport frame corrupt: bad magic");
  }
  if (header.kind >= kNumMessageKinds) {
    throw std::runtime_error("transport frame corrupt: unknown kind " +
                             std::to_string(header.kind));
  }
  if (header.payload_bytes > max_payload) {
    throw std::runtime_error(
        "transport frame corrupt: payload of " +
        std::to_string(header.payload_bytes) + " byte(s) exceeds the " +
        std::to_string(max_payload) + "-byte frame cap");
  }
  return header;
}

/// Which backend carries cross-rank messages.
enum class TransportKind {
  kInProc,  ///< per-proc deques in one address space (the default)
  kTcp,     ///< each rank a forked OS process, frames over TCP sockets
};

inline std::string toString(TransportKind k) {
  switch (k) {
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kTcp: return "tcp";
  }
  return "?";
}

inline bool fromString(const std::string& s, TransportKind& out) {
  if (s == "inproc") out = TransportKind::kInProc;
  else if (s == "tcp") out = TransportKind::kTcp;
  else return false;
  return true;
}

/// Declarative transport selection + knobs, mirroring FaultConfig: lives
/// on Configuration (Configuration::transport) and on Runtime::Config.
/// The runtime builds the matching backend at construction.
struct TransportConfig {
  TransportKind kind = TransportKind::kInProc;

  // --- TCP backend knobs (ignored by kInProc) ------------------------------
  /// IPv4 literal the rank processes dial back to.
  std::string host = "127.0.0.1";
  /// Listening port; 0 picks an ephemeral port.
  int port = 0;
  /// Deadline for a spawned rank process to connect and say hello.
  double spawn_timeout_ms = 10000.0;
  /// Hard cap on one frame's wire payload: larger real payloads are
  /// truncated on the wire (the closure owns the data; the frame is the
  /// physical stand-in), larger *declared* sizes ship capped filler, and
  /// a received frame claiming more is rejected as corrupt.
  std::uint32_t max_frame_bytes = 1u << 20;

  // --- liveness (heartbeats) -----------------------------------------------
  /// Ping each rank this often; 0 disables heartbeats (the default —
  /// failure detection is then EOF-only on TCP, watchdog-only in-proc).
  /// The TCP backend drives pings from its poll loop; the in-proc
  /// backend runs a monitor thread that round-trips no-op tasks through
  /// each rank's scheduling queue — the logical equivalent of the wire
  /// ping, sensitive to the same wedge (a parked queue never pongs).
  double heartbeat_interval_ms = 0.0;
  /// Consecutive unanswered pings before a rank is declared dead. On
  /// TCP the child is then SIGKILLed so wire and model agree, and
  /// detection funnels into the EOF → markCrashed → checkpoint-recovery
  /// path; a SIGSTOP'd rank recovers with no EOF ever arriving.
  int miss_threshold = 3;

  /// Worst-case time from a rank wedging to its death being declared:
  /// the in-flight ping's interval plus `miss_threshold` further missed
  /// ticks. Drivers and tests size their drain deadlines above this.
  double heartbeatWindowMs() const {
    return heartbeat_interval_ms * static_cast<double>(miss_threshold + 1);
  }

  /// Empty when valid, else a message naming the offending field.
  std::string validate() const {
    if (host.empty()) return "host must be a non-empty IPv4 literal";
    if (port < 0 || port > 65535) {
      return "port = " + std::to_string(port) + ": must lie in [0, 65535]";
    }
    if (spawn_timeout_ms <= 0.0) {
      return "spawn_timeout_ms = " + std::to_string(spawn_timeout_ms) +
             ": must be > 0";
    }
    if (max_frame_bytes < 64) {
      return "max_frame_bytes = " + std::to_string(max_frame_bytes) +
             ": must be >= 64 (room for a control frame)";
    }
    if (heartbeat_interval_ms < 0.0) {
      return "heartbeat_interval_ms = " + std::to_string(heartbeat_interval_ms) +
             ": must be >= 0 (0 disables heartbeats)";
    }
    if (miss_threshold < 1) {
      return "miss_threshold = " + std::to_string(miss_threshold) +
             ": must be >= 1";
    }
    return {};
  }
};

/// The seam between Runtime::send() and whatever carries bytes between
/// ranks. A backend's one obligation: deliver(msg, delay) eventually runs
/// msg.on_receive exactly once on a worker of rank msg.to (after at least
/// `delay_us` of modeled latency), or — when that rank is down — parks
/// the message on the rank's queue so the drain watchdog sees it. The
/// ReliableLayer, the drain watchdog's quiescence accounting, and the
/// CheckpointStore's buddy exchange all sit above this interface and work
/// unchanged against any backend.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Bind to the runtime and bring the wire up. Called once from the
  /// Runtime constructor, before any worker thread exists (a process-
  /// spawning backend forks here, while the address space is still
  /// single-threaded).
  virtual void start(Runtime& rt) = 0;

  /// Tear the wire down. Called from the Runtime destructor after the
  /// final drain, when no message can be in flight.
  virtual void stop() = 0;

  /// Carry one already-admitted cross-rank message (stats counted, fault
  /// injection and reliable-delivery decisions made by the caller).
  virtual void deliver(Message msg, double delay_us) = 0;

  /// Is the rank's endpoint answering? Always true for in-proc ranks.
  virtual bool rankReachable(int rank) const = 0;

  /// The runtime marked `rank` crashed (armed crash schedule or external
  /// detection). A process-backed transport kills the rank's process so
  /// the wire state matches the model. Must be idempotent.
  virtual void onRankDead(int rank) { (void)rank; }

  /// A restart recovery is re-admitting `rank`; bring its endpoint back
  /// (respawn the process). Called off-worker while quiescent.
  virtual void restartRank(int rank) { (void)rank; }

  /// The runtime is arming a wedge fault on `rank`. Return true when the
  /// backend wedged the rank at the wire level (TCP: SIGSTOP the rank
  /// process — it stops ponging but its socket stays open, so only
  /// heartbeats can see it); false means the backend has no wire-level
  /// hang and the runtime should park the rank's scheduling instead.
  virtual bool onRankWedged(int rank) {
    (void)rank;
    return false;
  }

  virtual const char* name() const = 0;
  /// One-line state summary for the watchdog diagnostic.
  virtual std::string describe() const { return name(); }
};

/// Today's behavior, bit-identical: delivery is an enqueue on the
/// destination rank's ready queue (via the delayed queue when a CommModel
/// or injected delay applies). There is no wire to lose anything on —
/// modeled corruption discards the copy as if a receiver-side CRC check
/// rejected it (the reliable layer retransmits). When heartbeats are
/// enabled a monitor thread round-trips no-op tasks through each rank's
/// scheduling queue: the logical ping. A rank whose scheduling is parked
/// (kWedge) stops answering and is declared dead after miss_threshold
/// unanswered pings, mirroring the TCP detector.
class InProcTransport final : public Transport {
 public:
  InProcTransport() = default;
  explicit InProcTransport(TransportConfig config)
      : config_(std::move(config)) {}
  ~InProcTransport() override;

  void start(Runtime& rt) override;
  void stop() override;
  void deliver(Message msg, double delay_us) override;
  bool rankReachable(int rank) const override {
    (void)rank;
    return true;
  }
  void restartRank(int rank) override;
  const char* name() const override { return "inproc"; }

 private:
  void monitorLoop();

  /// Per-rank logical-heartbeat state, touched by the monitor thread and
  /// (acks only) by rank workers.
  struct RankPulse {
    std::shared_ptr<std::atomic<std::uint64_t>> acked =
        std::make_shared<std::atomic<std::uint64_t>>(0);
    std::uint64_t pinged = 0;  ///< monitor thread only
    int missed = 0;            ///< monitor thread only
    bool declared_dead = false;
  };

  TransportConfig config_;
  Runtime* rt_ = nullptr;
  std::thread monitor_;
  std::atomic<bool> monitor_stop_{false};
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  std::vector<RankPulse> pulses_;  ///< monitor thread + restartRank
  std::atomic<std::uint64_t> frame_ticket_{1};  ///< corrupt-decision ids
};

/// Each logical rank is a forked OS process speaking length-prefixed
/// frames over nonblocking TCP sockets, multiplexed by a poll() event
/// loop. The rank process is the rank's presence on the wire: every
/// cross-rank message is encoded as a frame, shipped to the destination
/// rank's process, and only on that process's delivery receipt does the
/// payload closure run on the destination's workers (the closure stays in
/// the parent — logical ranks still share the address space for compute;
/// the wire, the processes, and their deaths are real). kill -9 of a rank
/// process surfaces as EOF on its socket, marks the rank crashed, and
/// flows into the PR-4 checkpoint recovery protocol unchanged.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TransportConfig config);
  ~TcpTransport() override;

  void start(Runtime& rt) override;
  void stop() override;
  void deliver(Message msg, double delay_us) override;
  bool rankReachable(int rank) const override;
  void onRankDead(int rank) override;
  void restartRank(int rank) override;
  bool onRankWedged(int rank) override;
  const char* name() const override { return "tcp"; }
  std::string describe() const override;

  /// OS pid of rank `rank`'s process (-1 when down). Integration tests
  /// kill -9 this pid to fault a live rank for real.
  pid_t rankPid(int rank) const;
  /// The port the parent actually listens on (resolves port 0).
  int boundPort() const { return bound_port_; }

  std::uint64_t framesSent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t framesDelivered() const {
    return frames_delivered_.load(std::memory_order_relaxed);
  }
  /// Frames the rank processes nacked as corrupt (CRC mismatch).
  std::uint64_t framesCorrupt() const {
    return frames_corrupt_.load(std::memory_order_relaxed);
  }

 private:
  /// Parent-side state of one rank process's connection.
  struct Endpoint {
    int fd = -1;
    pid_t pid = -1;
    bool up = false;
    std::vector<std::byte> rx;  ///< partial receipt bytes
    std::deque<std::vector<std::byte>> txq;  ///< frames awaiting write
    std::size_t tx_off = 0;  ///< bytes of txq.front() already written
    // Heartbeat state (IO thread only, under mutex_):
    std::chrono::steady_clock::time_point next_ping{};  ///< next ping due
    bool hb_outstanding = false;  ///< a ping is awaiting its pong
    int hb_missed = 0;            ///< consecutive unanswered pings
  };
  /// A message whose frame is on the wire, keyed by frame seq; the
  /// closure runs when the rank process's receipt comes back.
  struct InFlight {
    Message msg;
    double delay_us = 0.0;
  };

  void spawnRank(int rank);
  void ioLoop();
  void wake();
  /// Send due pings, count misses, and kill ranks past the threshold
  /// (IO thread only). No-op unless heartbeats are enabled.
  void driveHeartbeats();
  /// Flush endpoint r's write queue (IO thread only).
  void flushWrites(int rank);
  /// Consume receipts from endpoint r's rx buffer (IO thread only).
  void consumeReceipts(int rank);
  /// Endpoint r's socket died: mark the rank crashed and park whatever
  /// was in flight to it on the rank's queue (IO thread only).
  void handleEndpointDeath(int rank);
  /// Hand an in-flight message to the runtime's queues and release its
  /// quiescence hold. Caller must not hold mutex_.
  void enqueueLocally(InFlight inflight);
  void reap(Endpoint& ep);

  TransportConfig config_;
  Runtime* rt_ = nullptr;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::thread io_thread_;
  std::atomic<bool> io_stop_{false};

  mutable std::mutex mutex_;
  std::vector<Endpoint> endpoints_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> frames_corrupt_{0};
};

/// Build the backend selected by `config`.
std::unique_ptr<Transport> makeTransport(const TransportConfig& config);

}  // namespace paratreet::rts
