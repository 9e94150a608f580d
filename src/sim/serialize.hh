/**
 * @file
 * Minimal byte-oriented serialization used by the checkpoint subsystem.
 *
 * Fixed little-endian encodings, no alignment, no framing beyond what
 * the caller writes: the checkpoint format (DESIGN.md §15) is a strict
 * sequence of sections, each starting with a four-character tag, so a
 * reader that drifts out of sync fails loudly on the next tag check
 * instead of silently misinterpreting state. The reader is fail-soft
 * (reads past the end return zero and latch an error flag) so restore
 * code can run straight-line and check ok() once at the end.
 */

#ifndef LAZYGPU_SIM_SERIALIZE_HH
#define LAZYGPU_SIM_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace lazygpu
{

class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** Exact bit pattern; round-trips NaNs and signed zeros. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const std::uint8_t *p, std::size_t n)
    {
        // resize + memcpy rather than a range insert: GCC 12 misreads
        // the inlined insert of a 4-byte tag as an overflowing write
        // (-Wstringop-overflow).
        if (n == 0)
            return;
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        std::memcpy(buf_.data() + at, p, n);
    }

    /** Four-character section tag (format self-description). */
    void
    tag(const char (&t)[5])
    {
        bytes(reinterpret_cast<const std::uint8_t *>(t), 4);
    }

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit ByteReader(const std::vector<std::uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= std::uint32_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t(data_[pos_++]) << (8 * i);
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    bool
    bytes(std::uint8_t *out, std::size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    /** Consume a section tag; latches the error flag on mismatch. */
    bool
    tag(const char (&t)[5])
    {
        std::uint8_t got[4] = {};
        if (!bytes(got, 4))
            return false;
        if (std::memcmp(got, t, 4) != 0) {
            fail_ = true;
            return false;
        }
        return true;
    }

    bool ok() const { return !fail_; }
    bool atEnd() const { return pos_ == size_; }
    std::size_t pos() const { return pos_; }

  private:
    bool
    need(std::uint64_t n)
    {
        if (fail_ || n > size_ - pos_) {
            fail_ = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool fail_ = false;
};

} // namespace lazygpu

#endif // LAZYGPU_SIM_SERIALIZE_HH
