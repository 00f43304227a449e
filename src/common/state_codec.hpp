// Line-oriented "blamsim v1" checkpoint codec.
//
// A checkpoint is a sequence of named sections; inside a section every value
// is one typed token line:
//
//   section <name>
//   u 42                     (unsigned integer, decimal)
//   i -7                     (signed integer, decimal)
//   d 3ff0000000000000       (double, exact IEEE-754 bit pattern, hex16)
//   s some text to eol       (string; no embedded newlines)
//   blob 128                 (128 raw bytes follow, then a newline)
//   end a1b2c3d4e5f60718     (FNV-1a 64 of every byte since `section`)
//
// Doubles travel as bit patterns, never as formatted decimals: restore is
// bit-exact by construction, which is what lets a resumed run reproduce the
// uninterrupted run's figure CSVs byte for byte. The per-section FNV trailer
// turns a truncated or corrupted file (the expected failure mode after a
// kill -9 mid-write, despite the tmp+rename discipline) into a loud
// std::runtime_error naming the section instead of a silently wrong resume.
//
// Both ends are buffered (DESIGN.md sec. 15). The writer formats straight
// into one fixed buffer and hands it to the stream when it fills and at
// flush(). The reader pulls the stream in chunks, holds one whole section,
// and verifies the section's layout and FNV trailer before it hands out the
// first value, so no value of a damaged section is ever parsed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace blam {

/// FNV-1a 64 offset basis (the "blamsim v1" section trailers start here).
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;

/// Folds `size` bytes into a running FNV-1a 64 `hash`.
[[nodiscard]] std::uint64_t fnv1a64(std::uint64_t hash, const char* data, std::size_t size);

/// Writes `value` as 16 lowercase hex digits to out[0..16).
inline void write_hex16(char* out, std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[value & 0xfu];
    value >>= 4;
  }
}

namespace detail {

/// Hex digit value by byte; 0xff for a byte that is not a hex digit.
inline constexpr std::array<std::uint8_t, 256> kHexDigitValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(0xff);
  for (int c = 0; c < 10; ++c) {
    table[static_cast<std::size_t>('0' + c)] = static_cast<std::uint8_t>(c);
  }
  for (int c = 0; c < 6; ++c) {
    table[static_cast<std::size_t>('a' + c)] = static_cast<std::uint8_t>(10 + c);
    table[static_cast<std::size_t>('A' + c)] = static_cast<std::uint8_t>(10 + c);
  }
  return table;
}();

}  // namespace detail

/// Parses exactly 16 hex digits (either case) into `value`; false on any
/// other input.
[[nodiscard]] inline bool parse_hex16(std::string_view text, std::uint64_t& value) {
  if (text.size() != 16) return false;
  std::uint64_t out = 0;
  unsigned invalid = 0;
  for (const char c : text) {
    const std::uint8_t digit = detail::kHexDigitValue[static_cast<unsigned char>(c)];
    invalid |= digit;
    out = (out << 4) | (digit & 0xfu);
  }
  if ((invalid & 0xf0u) != 0) return false;
  value = out;
  return true;
}

class StateWriter {
 public:
  explicit StateWriter(std::ostream& out);
  /// Flushes whatever is still buffered.
  ~StateWriter();
  StateWriter(const StateWriter&) = delete;
  StateWriter& operator=(const StateWriter&) = delete;

  void begin_section(std::string_view name);
  /// Writes the FNV trailer and closes the current section.
  void end_section();

  void put_u64(std::uint64_t value);
  void put_i64(std::int64_t value);
  void put_double(double value);
  /// `value` must not contain newlines.
  void put_string(std::string_view value);
  /// Raw byte payload (may contain anything, including newlines).
  void put_blob(std::string_view bytes);

  /// Hands every buffered byte to the stream. The stream holds the complete
  /// checkpoint only after this (or the destructor) ran.
  void flush();

 private:
  /// Room for `n` more bytes at the buffer end (flushing first if needed);
  /// `n` must not exceed the buffer size.
  char* reserve(std::size_t n);
  void append(const char* data, std::size_t size);
  /// Folds the not-yet-hashed in-section bytes into hash_.
  void hash_pending();
  void require_section() const;

  std::ostream& out_;
  std::unique_ptr<char[]> buf_;
  std::size_t size_{0};
  /// buf_[0, hashed_) is already folded into hash_ (or is not section body).
  std::size_t hashed_{0};
  std::uint64_t hash_{0};
  bool in_section_{false};
};

class StateReader {
 public:
  /// Reads `in` in chunks from its current position; it may consume bytes
  /// past the last section it is asked for.
  explicit StateReader(std::istream& in);

  /// Consumes `section <name>`, then loads and verifies the whole section
  /// (line layout and FNV trailer). Throws std::runtime_error on a name
  /// mismatch, truncation or corruption.
  void begin_section(std::string_view name);
  /// Consumes the `end <fnv16hex>` trailer; throws if values are unread.
  void end_section();

  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] double get_double();
  [[nodiscard]] std::string get_string();
  /// The blob bytes, viewed in the reader's buffer: valid until the next
  /// begin_section().
  [[nodiscard]] std::string_view get_blob();

 private:
  /// Makes buf_[pos_, pos_ + n) readable; false if the stream ends first.
  bool ensure(std::size_t n);
  /// Length of the line at buf_[pos_ + offset] including its '\n', loading
  /// more of the stream as needed; throws on end of stream.
  std::size_t line_length(std::size_t offset);
  /// line_length() that also folds the line into `hash`.
  std::size_t hash_line(std::size_t offset, std::uint64_t& hash);
  /// Start of the next value of the open section, after its tag is checked.
  const char* payload(char tag);
  template <typename T>
  T get_decimal(char tag, std::string_view what);
  [[noreturn]] void fail(std::string_view what, std::string_view line) const;
  [[noreturn]] void fail_truncated() const;
  /// fail() quoting the line at the read position.
  [[noreturn]] void fail_here(std::string_view what) const;

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_;
  std::size_t pos_{0};
  std::size_t end_{0};
  /// Offset of the current section's `end` line in buf_; meaningful while
  /// open_ (a verified section is being read).
  std::size_t trailer_{0};
  bool open_{false};
  std::string section_;
};

}  // namespace blam
