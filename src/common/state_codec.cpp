#include "common/state_codec.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace blam {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Writer buffer: large enough that stream writes are rare, small enough
/// to stay in L2 while it fills.
constexpr std::size_t kWriteBufferBytes = std::size_t{64} << 10;
/// Reader chunk: one shard's server section (its ledger blob included) fits
/// without growing the buffer at the 4000-node city scale. The buffer
/// doubles when a larger section arrives.
constexpr std::size_t kReadChunkBytes = std::size_t{1} << 20;

/// "end " + 16 hex digits + '\n'.
constexpr std::size_t kTrailerBytes = 21;

/// Longest line quoted in an error message.
constexpr std::size_t kQuoteBytes = 80;

constexpr std::string_view kSectionPrefix = "section ";
constexpr std::string_view kBlobPrefix = "blob ";
constexpr std::string_view kEndPrefix = "end ";

/// Parses all of `text` as an unsigned/signed decimal; false on any junk.
template <typename T>
bool parse_decimal(std::string_view text, T& value) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  return ec == std::errc{} && ptr == last && !text.empty();
}

}  // namespace

std::uint64_t fnv1a64(std::uint64_t hash, const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

// --- StateWriter -------------------------------------------------------------

StateWriter::StateWriter(std::ostream& out)
    : out_{out}, buf_{std::make_unique_for_overwrite<char[]>(kWriteBufferBytes)} {}

StateWriter::~StateWriter() {
  // A destructor must not throw; a failed write is recorded in the stream's
  // own state, which checkpoint_to_file() checks.
  try {
    flush();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void StateWriter::require_section() const {
  if (!in_section_) throw std::logic_error{"StateWriter: value outside a section"};
}

void StateWriter::hash_pending() {
  if (in_section_) hash_ = fnv1a64(hash_, buf_.get() + hashed_, size_ - hashed_);
  hashed_ = size_;
}

void StateWriter::flush() {
  hash_pending();
  if (size_ > 0) out_.write(buf_.get(), static_cast<std::streamsize>(size_));
  size_ = 0;
  hashed_ = 0;
}

char* StateWriter::reserve(std::size_t n) {
  if (kWriteBufferBytes - size_ < n) flush();
  return buf_.get() + size_;
}

void StateWriter::append(const char* data, std::size_t size) {
  if (kWriteBufferBytes - size_ < size) flush();
  if (size <= kWriteBufferBytes) {
    std::memcpy(buf_.get() + size_, data, size);
    size_ += size;
    return;
  }
  // Larger than the whole buffer (a big blob): straight to the stream,
  // hashed in place. flush() above left nothing pending.
  if (in_section_) hash_ = fnv1a64(hash_, data, size);
  out_.write(data, static_cast<std::streamsize>(size));
}

void StateWriter::begin_section(std::string_view name) {
  if (in_section_) {
    throw std::logic_error{"StateWriter: nested section '" + std::string{name} + "'"};
  }
  append(kSectionPrefix.data(), kSectionPrefix.size());
  append(name.data(), name.size());
  append("\n", 1);
  hashed_ = size_;
  hash_ = kFnv1aOffset;
  in_section_ = true;
}

void StateWriter::end_section() {
  if (!in_section_) throw std::logic_error{"StateWriter: end_section outside a section"};
  hash_pending();
  in_section_ = false;
  char* p = reserve(kTrailerBytes);
  std::memcpy(p, kEndPrefix.data(), kEndPrefix.size());
  write_hex16(p + kEndPrefix.size(), hash_);
  p[kTrailerBytes - 1] = '\n';
  size_ += kTrailerBytes;
  hashed_ = size_;
}

void StateWriter::put_u64(std::uint64_t value) {
  require_section();
  char* p = reserve(24);  // "u " + 20 digits + '\n'
  p[0] = 'u';
  p[1] = ' ';
  char* last = std::to_chars(p + 2, p + 22, value).ptr;
  *last = '\n';
  size_ = static_cast<std::size_t>(last + 1 - buf_.get());
}

void StateWriter::put_i64(std::int64_t value) {
  require_section();
  char* p = reserve(24);  // "i " + sign + 19 digits + '\n'
  p[0] = 'i';
  p[1] = ' ';
  char* last = std::to_chars(p + 2, p + 22, value).ptr;
  *last = '\n';
  size_ = static_cast<std::size_t>(last + 1 - buf_.get());
}

void StateWriter::put_double(double value) {
  require_section();
  char* p = reserve(19);  // "d " + 16 hex + '\n'
  p[0] = 'd';
  p[1] = ' ';
  write_hex16(p + 2, std::bit_cast<std::uint64_t>(value));
  p[18] = '\n';
  size_ += 19;
}

void StateWriter::put_string(std::string_view value) {
  require_section();
  if (value.find('\n') != std::string_view::npos) {
    throw std::logic_error{"StateWriter: string value contains a newline"};
  }
  append("s ", 2);
  append(value.data(), value.size());
  append("\n", 1);
}

void StateWriter::put_blob(std::string_view bytes) {
  require_section();
  char* p = reserve(kBlobPrefix.size() + 21);  // "blob " + 20 digits + '\n'
  std::memcpy(p, kBlobPrefix.data(), kBlobPrefix.size());
  char* last = std::to_chars(p + kBlobPrefix.size(), p + kBlobPrefix.size() + 20, bytes.size()).ptr;
  *last = '\n';
  size_ = static_cast<std::size_t>(last + 1 - buf_.get());
  append(bytes.data(), bytes.size());
  append("\n", 1);
}

// --- StateReader -------------------------------------------------------------

StateReader::StateReader(std::istream& in)
    : in_{in},
      buf_{std::make_unique_for_overwrite<char[]>(kReadChunkBytes)},
      capacity_{kReadChunkBytes} {}

bool StateReader::ensure(std::size_t n) {
  while (end_ - pos_ < n) {
    if (end_ == capacity_) {
      // Drop the consumed head. A section that fills the whole buffer
      // doubles it; growth follows bytes that really arrived, so a corrupt
      // blob length cannot allocate past twice the stream.
      const std::size_t live = end_ - pos_;
      if (pos_ == 0) {
        auto grown = std::make_unique_for_overwrite<char[]>(capacity_ * 2);
        std::memcpy(grown.get(), buf_.get(), live);
        buf_ = std::move(grown);
        capacity_ *= 2;
      } else {
        std::memmove(buf_.get(), buf_.get() + pos_, live);
      }
      pos_ = 0;
      end_ = live;
    }
    in_.read(buf_.get() + end_, static_cast<std::streamsize>(capacity_ - end_));
    const std::streamsize got = in_.gcount();
    if (got <= 0) return false;
    end_ += static_cast<std::size_t>(got);
  }
  return true;
}

std::size_t StateReader::line_length(std::size_t offset) {
  std::size_t searched = offset;
  for (;;) {
    const char* from = buf_.get() + pos_ + searched;
    const std::size_t available = end_ - pos_ - searched;
    if (const void* nl = std::memchr(from, '\n', available); nl != nullptr) {
      return static_cast<std::size_t>(static_cast<const char*>(nl) - (buf_.get() + pos_)) + 1 -
             offset;
    }
    searched += available;
    if (!ensure(searched + 1)) fail_truncated();
  }
}

std::size_t StateReader::hash_line(std::size_t offset, std::uint64_t& hash) {
  std::size_t i = offset;
  std::uint64_t h = hash;
  for (;;) {
    const char* data = buf_.get() + pos_;
    const std::size_t available = end_ - pos_;
    while (i < available) {
      const char c = data[i++];
      h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
      if (c == '\n') {
        hash = h;
        return i - offset;
      }
    }
    if (!ensure(i + 1)) fail_truncated();
  }
}

void StateReader::fail(std::string_view what, std::string_view line) const {
  std::string quoted{line.substr(0, kQuoteBytes)};
  if (line.size() > kQuoteBytes) quoted += "...";
  throw std::runtime_error{"state codec: " + std::string{what} + " in section '" + section_ +
                           "', got '" + quoted + "'"};
}

void StateReader::fail_truncated() const {
  throw std::runtime_error{"state codec: unexpected end of checkpoint in section '" + section_ +
                           "'"};
}

void StateReader::fail_here(std::string_view what) const {
  std::string_view line = "end of section";
  if (open_ && pos_ < trailer_) {
    const char* p = buf_.get() + pos_;
    const auto* nl = static_cast<const char*>(std::memchr(p, '\n', trailer_ - pos_));
    line = {p, nl != nullptr ? static_cast<std::size_t>(nl - p) : trailer_ - pos_};
  }
  fail(what, line);
}

void StateReader::begin_section(std::string_view name) {
  open_ = false;
  section_.assign(name);
  const std::size_t head = line_length(0);
  const std::string_view line{buf_.get() + pos_, head - 1};
  if (!line.starts_with(kSectionPrefix) || line.substr(kSectionPrefix.size()) != name) {
    fail("expected 'section " + std::string{name} + "'", line);
  }
  pos_ += head;

  // Load the whole section and check its layout before handing out any
  // value: every line is a value line or a complete blob, and the trailer
  // matches the FNV-1a of the body, hashed in the same pass. Offsets are
  // relative to pos_ because loading may move the buffer.
  std::uint64_t hash = kFnv1aOffset;
  std::size_t body = 0;
  for (;;) {
    // The shortest line is 4 bytes ("u 0\n"); a section ends in a 21-byte
    // trailer, so running out here is always a truncation.
    if (!ensure(body + 4)) fail_truncated();
    const char* text = buf_.get() + pos_ + body;
    const char tag = text[0];
    if (text[1] == ' ' && (tag == 'u' || tag == 'i' || tag == 'd' || tag == 's')) {
      body += hash_line(body, hash);
      continue;
    }
    const std::string_view head4{text, 4};
    if (head4 == kEndPrefix) {
      if (!ensure(body + kTrailerBytes)) fail_truncated();
      text = buf_.get() + pos_ + body;
      std::uint64_t expected = 0;
      if (text[kTrailerBytes - 1] != '\n' ||
          !parse_hex16({text + kEndPrefix.size(), 16}, expected)) {
        fail("malformed section trailer", {text, kTrailerBytes - 1});
      }
      if (expected != hash) {
        throw std::runtime_error{"state codec: checksum mismatch in section '" + section_ +
                                 "' (corrupted or truncated checkpoint)"};
      }
      trailer_ = pos_ + body;
      open_ = true;
      return;
    }
    if (head4 == kBlobPrefix.substr(0, 4)) {
      const std::size_t len = hash_line(body, hash);
      const auto header = [&] { return std::string_view{buf_.get() + pos_ + body, len - 1}; };
      std::size_t size = 0;
      if (!header().starts_with(kBlobPrefix) ||
          !parse_decimal(header().substr(kBlobPrefix.size()), size) || size > (SIZE_MAX >> 2)) {
        fail("malformed blob header", header());
      }
      if (!ensure(body + len + size + 1)) fail("truncated blob", header());
      const char* bytes = buf_.get() + pos_ + body + len;
      if (bytes[size] != '\n') fail("blob missing terminator", header());
      hash = fnv1a64(hash, bytes, size + 1);
      body += len + size + 1;
      continue;
    }
    fail("malformed line", {buf_.get() + pos_ + body, line_length(body) - 1});
  }
}

void StateReader::end_section() {
  if (!open_) throw std::runtime_error{"state codec: section trailer outside a section"};
  if (pos_ != trailer_) fail_here("expected section trailer");
  pos_ = trailer_ + kTrailerBytes;
  open_ = false;
  section_.clear();
}

// Every line before trailer_ was checked by begin_section(): it is a value
// line ("u ", "i ", "d ", "s ") or a blob header ("blob ") and ends in '\n'.

const char* StateReader::payload(char tag) {
  if (!open_ || pos_ >= trailer_ || buf_[pos_] != tag) {
    fail_here(tag == 'b' ? std::string{"expected 'blob ...'"}
                         : std::string{"expected '"} + tag + " ...'");
  }
  return buf_.get() + pos_ + (tag == 'b' ? kBlobPrefix.size() : 2);
}

template <typename T>
T StateReader::get_decimal(char tag, std::string_view what) {
  const char* text = payload(tag);
  const char* limit = buf_.get() + trailer_;
  T out{};
  const auto [ptr, ec] = std::from_chars(text, limit, out);
  if (ec != std::errc{} || ptr == limit || *ptr != '\n') fail_here(what);
  pos_ = static_cast<std::size_t>(ptr + 1 - buf_.get());
  return out;
}

std::uint64_t StateReader::get_u64() { return get_decimal<std::uint64_t>('u', "malformed u64"); }

std::int64_t StateReader::get_i64() { return get_decimal<std::int64_t>('i', "malformed i64"); }

double StateReader::get_double() {
  const char* text = payload('d');
  std::uint64_t bits = 0;
  if (trailer_ - pos_ < 19 || text[16] != '\n' || !parse_hex16({text, 16}, bits)) {
    fail_here("malformed hex16");
  }
  pos_ += 19;
  return std::bit_cast<double>(bits);
}

std::string StateReader::get_string() {
  const char* text = payload('s');
  const auto* nl = static_cast<const char*>(
      std::memchr(text, '\n', static_cast<std::size_t>(buf_.get() + trailer_ - text)));
  std::string out{text, nl};
  pos_ = static_cast<std::size_t>(nl + 1 - buf_.get());
  return out;
}

std::string_view StateReader::get_blob() {
  const std::size_t size = get_decimal<std::size_t>('b', "malformed blob header");
  // begin_section() checked that the payload and its terminator follow.
  const std::string_view bytes{buf_.get() + pos_, size};
  pos_ += size + 1;
  return bytes;
}

}  // namespace blam
