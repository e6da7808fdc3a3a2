// Length-prefixed, CRC32C-checksummed section framing — the container layer
// of the v2 model/checkpoint format (core/model_io, core/checkpoint).
//
// File layout (all integers little-endian):
//
//   [u32 magic][u32 version]                       — written by the caller
//   [u32 kind]                                     — file kind FourCC
//   repeated sections:
//     [u32 tag][u64 payload_len][payload][u32 crc32c(payload)]
//   trailer (always last):
//     [u32 'END!'][u64 8][u32 file_crc][u32 section_count][u32 crc32c(payload)]
//
// file_crc is the CRC32C of every body byte before the trailer section (the
// kind field plus all ordinary sections, headers included), so corruption of
// a section *tag* — which the per-section CRC does not cover — is still
// detected. Readers parse fully before exposing any payload: every length is
// clamped against the bytes actually remaining, every checksum is verified,
// and any violation raises a FormatError carrying a typed kind. Unknown tags
// are preserved (forward compatibility); consumers require the tags they
// need and get kMissingSection otherwise.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32c.hpp"

namespace reghd::util {

enum class FormatErrorKind : std::uint8_t {
  kBadMagic = 0,
  kBadVersion,
  kBadKind,
  kTruncated,
  kBadSectionLength,
  kChecksumMismatch,
  kMissingSection,
  kBadValue,
  kIo,
};

[[nodiscard]] std::string to_string(FormatErrorKind kind);

/// The typed error every v2 reader throws. Derives from std::runtime_error so
/// legacy catch sites keep working; new code switches on kind().
class FormatError : public std::runtime_error {
 public:
  FormatError(FormatErrorKind kind, const std::string& message);
  [[nodiscard]] FormatErrorKind kind() const noexcept { return kind_; }

 private:
  FormatErrorKind kind_;
};

/// FourCC tag helper: fourcc("CONF") etc.
[[nodiscard]] constexpr std::uint32_t fourcc(const char (&s)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24);
}

inline constexpr std::uint32_t kEndTag = fourcc("END!");

struct Section {
  std::uint32_t tag = 0;
  std::string payload;
};

/// Writes the framed body of a v2 file: kind, sections, CRC trailer. The
/// caller writes magic/version first; add() every section, then finish()
/// exactly once.
class SectionWriter {
 public:
  SectionWriter(std::ostream& out, std::uint32_t kind);
  ~SectionWriter() = default;

  SectionWriter(const SectionWriter&) = delete;
  SectionWriter& operator=(const SectionWriter&) = delete;

  void add(std::uint32_t tag, std::string_view payload);

  /// Emits the trailer. No add() may follow.
  void finish();

 private:
  void write_raw(const void* data, std::size_t size, bool fold_into_file_crc);

  std::ostream& out_;
  Crc32c file_crc_;
  std::uint32_t section_count_ = 0;
  bool finished_ = false;
};

/// A fully parsed and checksum-verified v2 body.
struct ParsedFile {
  std::uint32_t kind = 0;
  std::vector<Section> sections;

  [[nodiscard]] const Section* find(std::uint32_t tag) const noexcept;

  /// Returns the section or throws FormatError{kMissingSection}.
  [[nodiscard]] const Section& require(std::uint32_t tag) const;
};

/// Parses everything after magic/version. Throws FormatError on any
/// violation; on return every section checksum and the file checksum have
/// been verified. `max_section_bytes` bounds a single payload (a corrupted
/// length must fail fast, not drive a giant allocation).
[[nodiscard]] ParsedFile parse_sections(std::string_view body,
                                        std::size_t max_section_bytes = (1ULL << 28));

/// Runs fn(std::istream&) over one section's payload and returns its result.
/// Any low-level failure inside a checksum-verified section is a structural
/// defect of the payload, so every exception but a FormatError is rethrown
/// as FormatError{kBadValue}: "<prefix>: malformed <what> section — <why>".
template <typename Fn>
auto parse_payload(const Section& section, const char* prefix, const char* what, Fn&& fn) {
  std::istringstream in(section.payload, std::ios::binary);
  try {
    return fn(in);
  } catch (const FormatError&) {
    throw;
  } catch (const std::exception& e) {
    throw FormatError(FormatErrorKind::kBadValue, std::string(prefix) + ": malformed " +
                                                      what + " section — " + e.what());
  }
}

}  // namespace reghd::util
