// The FlexIO runtime: the middleware's user-facing entry point.
//
// A Runtime owns the message bus (transports), the directory server, and
// the per-process endpoints. Applications open StreamWriters/StreamReaders
// against it; whether a stream runs online (memory-to-memory through shm /
// RDMA) or offline (BP files) is decided purely by the method configuration
// (paper Section II.B: "a one-line update to the configuration file is
// sufficient to switch between file I/O and online data movement").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/program.h"
#include "core/stream_registry.h"
#include "core/wire.h"
#include "evpath/bus.h"
#include "evpath/directory.h"
#include "xml/config.h"

namespace flexio {

class StreamWriter;
class StreamReader;

/// A compiled Data Conditioning plug-in: transforms one data piece on the
/// fly (selection, sampling, unit conversion, markup...).
using PluginFn =
    std::function<StatusOr<wire::DataPiece>(const wire::DataPiece&)>;

/// Compiles CoD-mini source text into a plug-in. Installed by the cod
/// module; the core never parses plug-in source itself (the codelet is
/// mobile *source*, compiled where it lands -- paper Section II.F).
using PluginCompiler =
    std::function<StatusOr<PluginFn>(const std::string& source)>;

/// Identity of one rank of one program, plus its machine placement.
struct EndpointSpec {
  Program* program = nullptr;  // non-owning; must outlive the stream
  int rank = 0;
  evpath::Location location;
};

/// Everything needed to open one side of a stream.
struct StreamSpec {
  std::string stream;        // stream/file name (the "file" of stream mode)
  EndpointSpec endpoint;
  xml::MethodConfig method;  // method.method: "FLEXIO" (stream) | "BP" (file)
  std::string file_dir = "."; // where BP mode puts/finds files
  /// Reader only, membership mode: join a stream that is already running
  /// instead of taking part in the open handshake. The open state is
  /// bootstrapped from the directory's open-info blob and the rank blocks
  /// until the coordinator admits it at a step boundary.
  bool late_join = false;
};

class Runtime {
 public:
  Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Open the writer side. In stream mode this rendezvouses with the reader
  /// program (directory lookup + open handshake), so the matching
  /// open_reader must be issued concurrently.
  StatusOr<std::unique_ptr<StreamWriter>> open_writer(const StreamSpec& spec);

  /// Open the reader side.
  StatusOr<std::unique_ptr<StreamReader>> open_reader(const StreamSpec& spec);

  /// Install the DC plug-in compiler (see flexio::cod::make_plugin_compiler).
  void set_plugin_compiler(PluginCompiler compiler);
  PluginCompiler plugin_compiler() const;

  evpath::MessageBus& bus() { return bus_; }
  evpath::DirectoryServer& directory() { return directory_; }
  StreamRegistry& registry() { return registry_; }

  /// Deliver an encoded wire::Heartbeat frame to the directory. Readers
  /// beat through this adapter (encode -> deliver -> decode) rather than
  /// calling the directory object directly, so the directory can move out
  /// of process without a protocol change.
  Status deliver_heartbeat(ByteView frame);

 private:
  friend class StreamWriter;
  friend class StreamReader;

  evpath::MessageBus bus_;
  evpath::DirectoryServer directory_;
  // Declared after bus_ so channels and drainers are torn down while the
  // bus (which their endpoints reference) is still alive.
  StreamRegistry registry_{&bus_};
  mutable std::mutex mutex_;
  PluginCompiler plugin_compiler_;
};

}  // namespace flexio
