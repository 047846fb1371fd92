// SGQC — the versioned checkpoint/snapshot format (DESIGN.md §7): a
// little-endian container of named, length-framed, CRC-checked sections
// holding the engine's complete runtime state (vocabulary, executor
// clock, window partitions, per-operator state, sink buffers).
//
//   offset 0   magic "SGQC" (4 bytes)
//          4   u32  version        (currently 2)
//          8   u32  section_count
//         12   section_count × {
//                u16 name_len, name bytes,
//                u64 payload_len, u32 payload crc32,
//                payload bytes }
//          …   footer: end magic "CQGS" (4 bytes),
//              u32 crc32 of every preceding byte (header + sections +
//              end magic)
//
// Every frame is validated before any payload is handed out: truncation
// at any byte, a flipped bit in any section, or an unknown version is
// rejected with a *positioned* error (byte offset + section name), never
// a partial parse. Files are written through a temp-file + fsync +
// atomic-rename protocol (CheckpointWriter::WriteFile), so a crash mid-
// write can never leave a live-but-torn checkpoint under the final name.
// The writer streams frame by frame and never builds the image in one
// piece.
//
// The Put*/ByteReader helpers below are the single encode/decode
// vocabulary for section payloads — operators' Serialize/Deserialize
// methods use them so every decode path is bounds-checked and errors
// carry the offset of the offending field.

#ifndef SGQ_MODEL_CHECKPOINT_H_
#define SGQ_MODEL_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/sgt.h"

namespace sgq {

/// \brief SGQC magic bytes, footer magic, and current format version.
inline constexpr char kCheckpointMagic[4] = {'S', 'G', 'Q', 'C'};
inline constexpr char kCheckpointEndMagic[4] = {'C', 'Q', 'G', 'S'};
/// Version 2: per-operator liveness flags in the "ops" section and
/// (plan, live) registration history in "queries" — live query
/// deregistration (DESIGN.md §10) made both section layouts richer.
inline constexpr std::uint32_t kCheckpointVersion = 2;

// ---------------------------------------------------------------------------
// Little-endian payload encoding helpers
// ---------------------------------------------------------------------------

namespace internal {

/// \brief Appends the low `N` bytes of `v`, least significant first, as
/// one word-sized append. The shifts fold into a single store on little-
/// endian targets; nothing assumes the host byte order or alignment.
/// Inline: serializers call these once per field, millions of times per
/// checkpoint.
template <std::size_t N, typename T>
inline void PutLe(std::string* out, T v) {
  char bytes[N];
  for (std::size_t i = 0; i < N; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out->append(bytes, N);
}

}  // namespace internal

inline void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* out, std::uint16_t v) {
  internal::PutLe<2>(out, v);
}
inline void PutU32(std::string* out, std::uint32_t v) {
  internal::PutLe<4>(out, v);
}
inline void PutU64(std::string* out, std::uint64_t v) {
  internal::PutLe<8>(out, v);
}
inline void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}
/// \brief u32 length + raw bytes.
void PutStr(std::string* out, std::string_view s);

/// \brief u32 length + the bytes `fill(out)` appends: PutStr of a nested
/// blob serialized in place, with no temporary copy.
template <typename Fill>
void PutFramed(std::string* out, Fill&& fill) {
  const std::size_t at = out->size();
  PutU32(out, 0);
  fill(out);
  const std::size_t len = out->size() - at - 4;
  for (std::size_t i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
}

class ByteReader;

/// \brief Sge/Sgt codecs shared by the operator, sink, and executor
/// checkpoint sections (pending micro-batches, buffered results).
void PutSge(std::string* out, const Sge& e);
Sge GetSge(ByteReader* in);
void PutSgt(std::string* out, const Sgt& t);
Sgt GetSgt(ByteReader* in);

/// \brief Positioned little-endian decoder with a sticky error: after the
/// first out-of-bounds read every further read returns 0/empty and
/// status() carries "context: offset N: …". Callers check status() once
/// at the end (and ExpectEnd() to reject trailing garbage) instead of
/// bounds-checking every field.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64();
  /// \brief `n` raw bytes (a view into the input; valid while it lives).
  std::string_view Raw(std::size_t n);
  /// \brief u32 length + bytes (inverse of PutStr).
  std::string Str();

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// \brief The error-prefix context (for positioning sub-readers).
  const std::string& context() const { return context_; }

  /// \brief Error (with position) unless the input is fully consumed.
  Status ExpectEnd();

  /// \brief Flags a semantic error at the current offset (bad flag value,
  /// mismatched count, …); sticks like a bounds error.
  Status Fail(const std::string& what);

 private:
  std::string_view bytes_;
  std::string context_;
  std::size_t offset_ = 0;
  Status status_ = Status::OK();
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// \brief Destination abstraction for checkpoint bytes. WriteFile's
/// implementation wraps FileByteSink (model/stream_io.h); tests inject
/// failing sinks to simulate ENOSPC / short writes at any byte.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual Status Append(std::string_view bytes) = 0;
  virtual Status Close() = 0;
};

/// \brief ByteSink into a growing string (tests, in-memory checkpoints).
class StringByteSink : public ByteSink {
 public:
  Status Append(std::string_view b) override {
    bytes_.append(b.data(), b.size());
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// \brief Assembles an SGQC image from named sections and writes it out.
/// Section order is preserved (restore is order-independent, but a stable
/// order keeps checkpoint bytes deterministic for differential tests).
/// The writer owns its payloads, so a filled writer can be handed to
/// another thread for the write (Engine::Checkpoint does).
class CheckpointWriter {
 public:
  /// \brief Appends one section; names must be unique and < 64 KiB.
  void AddSection(std::string name, std::string payload);

  /// \brief Size in bytes of the image WriteTo produces.
  std::size_t EncodedSize() const;

  /// \brief The complete SGQC byte image (WriteTo into a StringByteSink).
  std::string Encode() const;

  /// \brief Streams the image through `sink` — header, then each section's
  /// frame and payload, then the footer, with the whole-file CRC carried
  /// across the pieces — and closes it. Any sink error (short write,
  /// injected ENOSPC) aborts and surfaces verbatim.
  Status WriteTo(ByteSink* sink) const;

  /// \brief Durable file write: WriteTo `path + ".tmp"`, fsync, then
  /// atomically rename over `path` and fsync the parent directory. A
  /// crash at any instant leaves either the previous file (or nothing)
  /// or the complete new checkpoint — never a torn one.
  Status WriteFile(const std::string& path) const;

  std::size_t num_sections() const { return sections_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// \brief One parsed section frame: `offset` is the absolute byte offset
/// of the payload (error positioning); payload bytes are viewed through
/// CheckpointReader::payload().
struct CheckpointSection {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

/// \brief Parses and fully validates an SGQC image before exposing any
/// payload: magic, version, every section frame + CRC, footer magic +
/// whole-file CRC. Owns the bytes, so sections stay valid for the
/// reader's lifetime.
class CheckpointReader {
 public:
  /// \brief `context` prefixes every error (typically the file path).
  static Result<CheckpointReader> Parse(std::string bytes,
                                        std::string context);

  /// \brief ReadFileBytes + Parse with the path as context.
  static Result<CheckpointReader> ParseFile(const std::string& path);

  std::uint32_t version() const { return version_; }
  const std::vector<CheckpointSection>& sections() const { return sections_; }

  /// \brief The section named `name`, or nullptr.
  const CheckpointSection* Find(std::string_view name) const;

  /// \brief Payload bytes of `section` (view into the reader's buffer).
  std::string_view payload(const CheckpointSection& section) const {
    return std::string_view(bytes_).substr(section.offset, section.length);
  }

  /// \brief ByteReader over the named section's payload, with errors
  /// positioned as "context: section 'name': …"; NotFound when absent.
  Result<ByteReader> Open(std::string_view name) const;

  const std::string& context() const { return context_; }

 private:
  CheckpointReader() = default;

  std::string bytes_;
  std::string context_;
  std::uint32_t version_ = 0;
  std::vector<CheckpointSection> sections_;
};

}  // namespace sgq

#endif  // SGQ_MODEL_CHECKPOINT_H_
