#include "model/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/logging.h"
#include "model/stream_io.h"

namespace sgq {
namespace {

std::string ErrnoText(int err) {
  return err != 0 ? std::strerror(err) : "unknown error";
}

std::string Hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

/// ByteSink over a FileByteSink whose Close() is the durable one: flush,
/// fsync, close.
class SyncingFileSink : public ByteSink {
 public:
  explicit SyncingFileSink(const std::string& path) : file_(path) {}
  Status Append(std::string_view bytes) override {
    return file_.Append(bytes);
  }
  Status Close() override {
    SGQ_RETURN_NOT_OK(file_.Sync());
    return file_.Close();
  }

 private:
  FileByteSink file_;
};

/// Directory part of `path` ("" when none) — for the post-rename fsync.
std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  return path.substr(0, slash == 0 ? 1 : slash);
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutSge(std::string* out, const Sge& e) {
  PutU64(out, e.src);
  PutU64(out, e.trg);
  PutU32(out, e.label);
  PutI64(out, e.t);
  PutU8(out, e.is_deletion ? 1 : 0);
}

Sge GetSge(ByteReader* in) {
  Sge e;
  e.src = in->U64();
  e.trg = in->U64();
  e.label = in->U32();
  e.t = in->I64();
  e.is_deletion = in->U8() != 0;
  return e;
}

void PutSgt(std::string* out, const Sgt& t) {
  PutU64(out, t.src);
  PutU64(out, t.trg);
  PutU32(out, t.label);
  PutI64(out, t.validity.ts);
  PutI64(out, t.validity.exp);
  PutU8(out, t.is_deletion ? 1 : 0);
  PutU32(out, static_cast<std::uint32_t>(t.payload.size()));
  for (const EdgeRef& e : t.payload) {
    PutU64(out, e.src);
    PutU64(out, e.trg);
    PutU32(out, e.label);
  }
}

Sgt GetSgt(ByteReader* in) {
  Sgt t;
  t.src = in->U64();
  t.trg = in->U64();
  t.label = in->U32();
  t.validity.ts = in->I64();
  t.validity.exp = in->I64();
  t.is_deletion = in->U8() != 0;
  const std::uint32_t n = in->U32();
  if (in->ok()) t.payload.reserve(n);
  for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
    EdgeRef e;
    e.src = in->U64();
    e.trg = in->U64();
    e.label = in->U32();
    t.payload.push_back(e);
  }
  return t;
}

// ---------------------------------------------------------------------------
// ByteReader
// ---------------------------------------------------------------------------

Status ByteReader::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::ParseError(context_ + ": offset " +
                                 std::to_string(offset_) + ": " + what);
    offset_ = bytes_.size();  // poison further reads
  }
  return status_;
}

std::string_view ByteReader::Raw(std::size_t n) {
  if (!status_.ok()) return {};
  if (bytes_.size() - offset_ < n) {
    Fail("truncated: need " + std::to_string(n) + " bytes, have " +
         std::to_string(bytes_.size() - offset_));
    return {};
  }
  const std::string_view out = bytes_.substr(offset_, n);
  offset_ += n;
  return out;
}

std::uint8_t ByteReader::U8() {
  const std::string_view b = Raw(1);
  return b.empty() ? 0 : static_cast<std::uint8_t>(b[0]);
}

std::uint16_t ByteReader::U16() {
  const std::string_view b = Raw(2);
  if (b.empty()) return 0;
  return static_cast<std::uint16_t>(static_cast<unsigned char>(b[0])) |
         static_cast<std::uint16_t>(
             static_cast<std::uint16_t>(static_cast<unsigned char>(b[1]))
             << 8);
}

std::uint32_t ByteReader::U32() {
  const std::string_view b = Raw(4);
  if (b.empty()) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[i]);
  }
  return v;
}

std::uint64_t ByteReader::U64() {
  const std::string_view b = Raw(8);
  if (b.empty()) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[i]);
  }
  return v;
}

std::int64_t ByteReader::I64() { return static_cast<std::int64_t>(U64()); }

std::string ByteReader::Str() {
  const std::uint32_t len = U32();
  if (!status_.ok()) return {};
  if (bytes_.size() - offset_ < len) {
    Fail("truncated string: length " + std::to_string(len) + ", have " +
         std::to_string(bytes_.size() - offset_));
    return {};
  }
  return std::string(Raw(len));
}

Status ByteReader::ExpectEnd() {
  SGQ_RETURN_NOT_OK(status_);
  if (offset_ != bytes_.size()) {
    return Fail(std::to_string(bytes_.size() - offset_) +
                " trailing bytes after the last expected field");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------

void CheckpointWriter::AddSection(std::string name, std::string payload) {
  sections_.emplace_back(std::move(name), std::move(payload));
}

std::size_t CheckpointWriter::EncodedSize() const {
  std::size_t n = sizeof(kCheckpointMagic) + 4 + 4 +
                  sizeof(kCheckpointEndMagic) + 4;
  for (const auto& [name, payload] : sections_) {
    n += 2 + name.size() + 8 + 4 + payload.size();
  }
  return n;
}

std::string CheckpointWriter::Encode() const {
  StringByteSink sink;
  const Status st = WriteTo(&sink);
  SGQ_CHECK(st.ok()) << st.ToString();  // a string sink cannot fail
  return sink.TakeBytes();
}

Status CheckpointWriter::WriteTo(ByteSink* sink) const {
  // `pending` holds framing bytes not yet handed to the sink; `file_crc`
  // covers everything that was. Payloads go to the sink as they are, so
  // no second contiguous copy of the snapshot is ever built, and each is
  // read once: its own CRC is folded into the file CRC by Crc32Combine.
  std::string pending;
  std::uint32_t file_crc = 0;
  pending.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutU32(&pending, kCheckpointVersion);
  PutU32(&pending, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    const std::uint32_t payload_crc = Crc32(payload);
    PutU16(&pending, static_cast<std::uint16_t>(name.size()));
    pending.append(name);
    PutU64(&pending, payload.size());
    PutU32(&pending, payload_crc);
    file_crc = Crc32(pending, file_crc);
    SGQ_RETURN_NOT_OK(sink->Append(pending));
    pending.clear();
    file_crc = Crc32Combine(file_crc, payload_crc, payload.size());
    SGQ_RETURN_NOT_OK(sink->Append(payload));
  }
  pending.append(kCheckpointEndMagic, sizeof(kCheckpointEndMagic));
  PutU32(&pending, Crc32(pending, file_crc));
  SGQ_RETURN_NOT_OK(sink->Append(pending));
  return sink->Close();
}

Status CheckpointWriter::WriteFile(const std::string& path) const {
  // Never expose a partially written file under the final name: stage the
  // image under a temp name, force it to stable storage, then rename —
  // POSIX rename(2) atomically replaces any previous checkpoint.
  const std::string tmp = path + ".tmp";
  {
    SyncingFileSink sink(tmp);
    const Status st = WriteTo(&sink);
    if (!st.ok()) {
      std::remove(tmp.c_str());
      return st;
    }
  }
  errno = 0;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = Status::Internal("cannot rename " + tmp + " to " +
                                       path + ": " + ErrnoText(errno));
    std::remove(tmp.c_str());
    return st;
  }
#if !defined(_WIN32)
  // The rename is only durable once the directory entry is flushed.
  const std::string dir = DirName(path);
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------------------

Result<CheckpointReader> CheckpointReader::Parse(std::string bytes,
                                                 std::string context) {
  CheckpointReader reader;
  reader.bytes_ = std::move(bytes);
  reader.context_ = std::move(context);
  const std::string& buf = reader.bytes_;

  // Footer first: the whole-file CRC proves the image is complete and
  // uncorrupted before any frame is trusted (a truncated file could
  // otherwise still parse if it happened to end on a frame boundary).
  constexpr std::size_t kFooterBytes = sizeof(kCheckpointEndMagic) + 4;
  ByteReader in(buf, reader.context_);
  if (buf.size() < 12 + kFooterBytes) {
    return Status::ParseError(reader.context_ + ": offset 0: file too small "
                              "for an SGQC checkpoint (" +
                              std::to_string(buf.size()) + " bytes)");
  }
  const std::size_t footer_at = buf.size() - kFooterBytes;
  if (std::memcmp(buf.data() + footer_at, kCheckpointEndMagic,
                  sizeof(kCheckpointEndMagic)) != 0) {
    return Status::ParseError(
        reader.context_ + ": offset " + std::to_string(footer_at) +
        ": footer magic missing (truncated or torn checkpoint)");
  }
  ByteReader footer(std::string_view(buf).substr(footer_at + 4),
                    reader.context_);
  const std::uint32_t stored_file_crc = footer.U32();
  const std::uint32_t file_crc = Crc32(buf.data(), footer_at + 4);
  if (stored_file_crc != file_crc) {
    return Status::ParseError(reader.context_ + ": offset " +
                              std::to_string(footer_at + 4) +
                              ": file CRC mismatch (stored " +
                              Hex32(stored_file_crc) + ", computed " +
                              Hex32(file_crc) + ")");
  }

  const std::string_view magic = in.Raw(sizeof(kCheckpointMagic));
  if (std::memcmp(magic.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return Status::ParseError(reader.context_ +
                              ": offset 0: bad magic (not an SGQC file)");
  }
  reader.version_ = in.U32();
  if (reader.version_ != kCheckpointVersion) {
    return Status::ParseError(
        reader.context_ + ": offset 4: unsupported checkpoint version " +
        std::to_string(reader.version_) + " (this build reads version " +
        std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint32_t count = in.U32();
  reader.sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CheckpointSection section;
    const std::uint16_t name_len = in.U16();
    section.name = std::string(in.Raw(name_len));
    section.length = in.U64();
    section.crc = in.U32();
    if (!in.ok()) return in.status();
    const std::uint64_t avail =
        in.offset() <= footer_at ? footer_at - in.offset() : 0;
    if (section.length > avail) {
      return in.Fail("section '" + section.name + "' truncated: payload of " +
                     std::to_string(section.length) + " bytes, have " +
                     std::to_string(avail));
    }
    section.offset = in.offset();
    const std::string_view payload = in.Raw(section.length);
    const std::uint32_t crc = Crc32(payload);
    if (crc != section.crc) {
      return Status::ParseError(
          reader.context_ + ": offset " + std::to_string(section.offset) +
          ": section '" + section.name + "': payload CRC mismatch (stored " +
          Hex32(section.crc) + ", computed " + Hex32(crc) + ")");
    }
    for (const CheckpointSection& prev : reader.sections_) {
      if (prev.name == section.name) {
        return in.Fail("duplicate section '" + section.name + "'");
      }
    }
    reader.sections_.push_back(std::move(section));
  }
  if (in.offset() != footer_at) {
    return in.Fail("unframed bytes between the last section and the footer");
  }
  return reader;
}

Result<CheckpointReader> CheckpointReader::ParseFile(const std::string& path) {
  SGQ_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return Parse(std::move(bytes), path);
}

const CheckpointSection* CheckpointReader::Find(std::string_view name) const {
  for (const CheckpointSection& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Result<ByteReader> CheckpointReader::Open(std::string_view name) const {
  const CheckpointSection* section = Find(name);
  if (section == nullptr) {
    return Status::NotFound(context_ + ": checkpoint has no section '" +
                            std::string(name) + "'");
  }
  return ByteReader(payload(*section),
                    context_ + ": section '" + std::string(name) + "'");
}

}  // namespace sgq
