/**
 * @file
 * Little-endian wire formats: the byte helpers, the sealed-image
 * writer and the one bounds-checked reader every durable format is
 * parsed with (checkpoint blobs, generation manifests, fleet state,
 * journal records, WAL frames, kernel-cache entries).
 *
 * Integers are explicit little-endian with no padding; floats travel
 * as their IEEE-754 bit patterns, so a round trip is bitwise
 * lossless. A *sealed image* is
 *
 *   u32 magic | u32 version | fields | u64 FNV-1a 64 of every byte
 *                                       before it
 *
 * written by beginImage() + put*() + sealImage() and read by
 * WireReader::openImage() + typed reads + closeImage(). A WAL frame
 * has the same shape with its payload length and record type in the
 * two header words.
 *
 * WireReader checks every read against the bytes left. The first
 * short read or failed check sticks: later reads return zero and
 * consume nothing, and it becomes the one InvalidArgument Status the
 * parser returns, "<context>: <what failed>".
 */
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hpp"
#include "common/status.hpp"

namespace common {

/** FNV-1a 64-bit digest of @p size bytes at @p data. */
inline std::uint64_t
fnv1a64(const std::uint8_t* data, std::size_t size)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::vector<std::uint8_t>& bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

/** @name Append little-endian values to a byte vector. @{ */
inline void
putU32(std::vector<std::uint8_t>& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void
putU64(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void
putF32(std::vector<std::uint8_t>& out, float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU32(out, bits);
}

inline void
putF64(std::vector<std::uint8_t>& out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

/** A u32-length-prefixed name, as WireReader::name() reads it. */
inline void
putName(std::vector<std::uint8_t>& out, const std::string& s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}
/** @} */

/** Start a sealed image with room for @p field_bytes of fields:
 *  reserve the exact size and write the two header words. */
inline std::vector<std::uint8_t>
beginImage(std::uint32_t magic, std::uint32_t version,
           std::size_t field_bytes)
{
    std::vector<std::uint8_t> out;
    out.reserve(4 + 4 + field_bytes + 8);
    putU32(out, magic);
    putU32(out, version);
    return out;
}

/** Seal an image: append the FNV-1a 64 digest of every byte so far. */
inline void
sealImage(std::vector<std::uint8_t>& out)
{
    putU64(out, fnv1a64(out));
}

/** Bounds-checked reader over one byte image (see file comment). */
class WireReader
{
  public:
    /** Read @p size bytes at @p data; @p context starts every error
     *  message and must outlive the reader (a string literal). */
    WireReader(const std::uint8_t* data, std::size_t size,
               std::string_view context)
        : data_(data), size_(size), context_(context)
    {
        if (data == nullptr && size != 0)
            fail("null buffer with non-zero size");
    }

    WireReader(const std::vector<std::uint8_t>& bytes,
               std::string_view context)
        : WireReader(bytes.data(), bytes.size(), context)
    {
    }

    /** @name Typed reads; each names its field for the error. @{ */
    std::uint8_t u8(std::string_view f) { return le<std::uint8_t>(f); }
    std::uint32_t u32(std::string_view f) { return le<std::uint32_t>(f); }
    std::uint64_t u64(std::string_view f) { return le<std::uint64_t>(f); }
    float f32(std::string_view f) { return std::bit_cast<float>(u32(f)); }
    double f64(std::string_view f) { return std::bit_cast<double>(u64(f)); }

    /** The next @p n bytes, or an empty span once failed. */
    std::span<const std::uint8_t>
    bytes(std::size_t n, std::string_view field)
    {
        const std::uint8_t* p = take(n, field);
        if (p == nullptr)
            return {};
        return {p, n};
    }

    /** A u32-length-prefixed name of 1 to @p cap bytes. */
    std::string
    name(std::uint32_t cap, std::string_view field)
    {
        const std::uint32_t len = u32(field);
        check(len != 0 && len <= cap, field,
              " length out of range: ", len);
        const auto s = bytes(len, field);
        return {s.begin(), s.end()};
    }

    /** A u64 count of @p elem_bytes-sized elements, checked against
     *  @p cap and the bytes left before anything is allocated by it;
     *  0 once failed. */
    std::uint64_t
    count(std::string_view field, std::size_t elem_bytes,
          std::uint64_t cap = std::numeric_limits<std::uint64_t>::max())
    {
        const std::uint64_t n = u64(field);
        return check(n <= cap && n <= remaining() / elem_bytes, field,
                     " disagrees with size: ", n)
                   ? n
                   : 0;
    }
    /** @} */

    /** Fail with the concatenation of @p why unless @p cond.
     *  @return whether the reader is still good. */
    template <typename... Why>
    bool
    check(bool cond, const Why&... why)
    {
        if (!cond && ok())
            fail(detail::concat(why...));
        return ok();
    }

    /** @name Sealed images @{ */
    /** Read and check the header words. */
    void
    openImage(std::uint32_t magic, std::uint32_t version)
    {
        const std::uint32_t m = u32("magic");
        check(m == magic, "bad magic ", m);
        const std::uint32_t v = u32("version");
        check(v == version, "unsupported version ", v, " (expected ",
              version, ")");
    }

    /** Read a u64 digest and check it against the FNV-1a 64 of the
     *  bytes from @p start up to it. */
    void
    digest(std::size_t start, std::string_view field)
    {
        const std::uint64_t actual =
            ok() ? fnv1a64(data_ + start, pos_ - start) : 0;
        const std::uint64_t stored = u64(field);
        check(stored == actual, field, " mismatch");
    }

    /** Fail if any byte is left. */
    void
    end()
    {
        check(remaining() == 0, "trailing bytes after ", pos_);
    }

    /** The image's trailing digest, then nothing after it. */
    void
    closeImage()
    {
        digest(0, "trailing digest");
        end();
    }
    /** @} */

    bool ok() const { return status_.ok(); }

    /** The sticky failure (OK while every read and check passed). */
    Status takeStatus() { return std::move(status_); }

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

  private:
    /** A little-endian unsigned integer. */
    template <typename T>
    T
    le(std::string_view field)
    {
        const std::uint8_t* p = take(sizeof(T), field);
        T v = 0;
        for (std::size_t i = 0; p != nullptr && i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
        return v;
    }

    const std::uint8_t*
    take(std::size_t n, std::string_view field)
    {
        if (!check(n <= remaining(), "truncated before ", field))
            return nullptr;
        const std::uint8_t* p = data_ + pos_;
        pos_ += n;
        return p;
    }

    void
    fail(const std::string& why)
    {
        status_ = Status::failure(ErrorCode::InvalidArgument,
                                  detail::concat(context_, ": ", why));
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string_view context_;
    Status status_;
};

} // namespace common
