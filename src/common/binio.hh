/**
 * @file
 * Bounds-checked little-endian binary serialization primitives.
 *
 * The binary grid snapshots (sim/grid_io) and the daemon's persistent
 * snapshot store (daemon/snapshot_store) both serialize typed fields
 * into a byte payload that must survive hostile input: a snapshot file
 * can be truncated by a crash mid-write, corrupted on disk, or written
 * by a different version.  ByteWriter builds the payload; ByteReader
 * parses it and calls fatal() — never UB — the moment a read would run
 * past the end of the buffer.
 *
 * Doubles are serialized by bit pattern (not decimal text), so a
 * round trip is bit-identical by construction.  All integers are
 * little-endian regardless of host order.
 */

#ifndef MCDVFS_COMMON_BINIO_HH
#define MCDVFS_COMMON_BINIO_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace mcdvfs
{

/** Appends little-endian fields to a growing byte buffer. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t value)
    {
        buffer_.push_back(static_cast<char>(value));
    }

    void u32(std::uint32_t value) { appendLittleEndian(value); }

    void u64(std::uint64_t value) { appendLittleEndian(value); }

    /** Double by bit pattern (exact round trip). */
    void
    f64(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed string (u32 length + raw bytes). */
    void
    str(const std::string &value)
    {
        u32(static_cast<std::uint32_t>(value.size()));
        buffer_.append(value);
    }

    const std::string &bytes() const { return buffer_; }
    std::string take() { return std::move(buffer_); }

  private:
    /** One append of the value's bytes, least significant first. */
    template <typename Word>
    void
    appendLittleEndian(Word value)
    {
        char bytes[sizeof(Word)];
        for (std::size_t i = 0; i < sizeof(Word); ++i)
            bytes[i] = static_cast<char>(value >> (8 * i));
        buffer_.append(bytes, sizeof(Word));
    }

    std::string buffer_;
};

/**
 * Parses little-endian fields out of a fixed byte buffer; every read
 * past the end is a fatal() with the reader's context in the message.
 * The buffer must outlive the reader.
 */
class ByteReader
{
  public:
    /** @param context label prefixed to every diagnostic */
    ByteReader(std::string_view data, std::string context)
        : data_(data), context_(std::move(context))
    {}

    std::uint8_t
    u8()
    {
        need(1, "u8");
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        need(4, "u32");
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            value |= static_cast<std::uint32_t>(
                         static_cast<std::uint8_t>(data_[pos_ + i]))
                     << (8 * i);
        }
        pos_ += 4;
        return value;
    }

    std::uint64_t
    u64()
    {
        need(8, "u64");
        std::uint64_t value = 0;
        for (int i = 0; i < 8; ++i) {
            value |= static_cast<std::uint64_t>(
                         static_cast<std::uint8_t>(data_[pos_ + i]))
                     << (8 * i);
        }
        pos_ += 8;
        return value;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    std::string
    str()
    {
        const std::uint32_t length = u32();
        need(length, "string body");
        std::string value(data_.substr(pos_, length));
        pos_ += length;
        return value;
    }

    std::size_t remaining() const { return data_.size() - pos_; }

    /** Every byte must have been consumed. */
    void
    expectEnd() const
    {
        if (pos_ != data_.size()) {
            fatal(context_, ": ", data_.size() - pos_,
                  " trailing bytes after the last expected field");
        }
    }

  private:
    void
    need(std::size_t bytes, const char *what) const
    {
        if (data_.size() - pos_ < bytes) {
            fatal(context_, ": truncated input (need ", bytes,
                  " bytes for ", what, " at offset ", pos_, ", have ",
                  data_.size() - pos_, ")");
        }
    }

    std::string_view data_;
    std::size_t pos_ = 0;
    std::string context_;
};

} // namespace mcdvfs

#endif // MCDVFS_COMMON_BINIO_HH
