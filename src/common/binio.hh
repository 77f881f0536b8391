/**
 * @file
 * Bounds-checked little-endian binary serialization primitives.
 *
 * The binary grid snapshots (sim/grid_io) and the daemon's persistent
 * snapshot store (daemon/snapshot_store) both serialize typed fields
 * into a byte payload that must survive hostile input: a snapshot file
 * can be truncated by a crash mid-write, corrupted on disk, or written
 * by a different version.  ByteWriter builds the payload; ByteReader
 * parses it in place and calls fatal() — never UB — the moment a read
 * would run past the end of the buffer.  A whole run of fields — a
 * grid row, an index vector — takes one append (ByteWriter::extend,
 * then storeLittleEndian) or one bounds check (ByteReader::bytes, then
 * loadLittleEndian) instead of one per field.
 *
 * Doubles are serialized by bit pattern (not decimal text), so a
 * round trip is bit-identical by construction.  All integers are
 * little-endian regardless of host order.
 */

#ifndef MCDVFS_COMMON_BINIO_HH
#define MCDVFS_COMMON_BINIO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace mcdvfs
{

/** The little-endian @c Word stored at @c bytes, whatever the host order. */
template <typename Word>
inline Word
loadLittleEndian(const char *bytes)
{
    Word value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, bytes, sizeof(Word));
    } else {
        for (std::size_t i = 0; i < sizeof(Word); ++i)
            value |= static_cast<Word>(static_cast<unsigned char>(bytes[i]))
                     << (8 * i);
    }
    return value;
}

/** A double stored by bit pattern as a little-endian u64. */
inline double
loadF64(const char *bytes)
{
    return std::bit_cast<double>(loadLittleEndian<std::uint64_t>(bytes));
}

/** Store @c value at @c bytes as little-endian, whatever the host order. */
template <typename Word>
inline void
storeLittleEndian(char *bytes, Word value)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &value, sizeof(Word));
    } else {
        for (std::size_t i = 0; i < sizeof(Word); ++i)
            bytes[i] = static_cast<char>(value >> (8 * i));
    }
}

/** Store a double by bit pattern as a little-endian u64. */
inline void
storeF64(char *bytes, double value)
{
    storeLittleEndian(bytes, std::bit_cast<std::uint64_t>(value));
}

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
    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    /** Length-prefixed string (u32 length + raw bytes). */
    void
    str(const std::string &value)
    {
        u32(static_cast<std::uint32_t>(value.size()));
        buffer_.append(value);
    }

    /** Make room for @c bytes more without reallocating. */
    void
    reserve(std::size_t bytes)
    {
        buffer_.reserve(buffer_.size() + bytes);
    }

    /**
     * Append @c count bytes and return where they start, for a run of
     * fields filled at once with storeLittleEndian / storeF64; valid
     * until the next append.
     */
    char *
    extend(std::size_t count)
    {
        const std::size_t at = buffer_.size();
        buffer_.resize(at + count);
        return buffer_.data() + at;
    }

    /**
     * Overwrite the u64 written at @c offset: a length or checksum
     * known only once what follows it is serialized.
     */
    void
    patchU64(std::size_t offset, std::uint64_t value)
    {
        storeLittleEndian(buffer_.data() + offset, value);
    }

    std::size_t size() const { return buffer_.size(); }
    const std::string &bytes() const { return buffer_; }
    std::string take() { return std::move(buffer_); }

  private:
    /** One append of the value's bytes, least significant first. */
    template <typename Word>
    void
    appendLittleEndian(Word value)
    {
        char bytes[sizeof(Word)];
        storeLittleEndian(bytes, value);
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
        return loadLittleEndian<std::uint32_t>(bytes(4, "u32").data());
    }

    std::uint64_t
    u64()
    {
        return loadLittleEndian<std::uint64_t>(bytes(8, "u64").data());
    }

    double f64() { return loadF64(bytes(8, "f64").data()); }

    std::string
    str()
    {
        const std::uint32_t length = u32();
        return std::string(bytes(length, "string body"));
    }

    /**
     * The next @c count bytes, in place (a view into the buffer), after
     * one bounds check: a row of fields is then decoded with
     * loadLittleEndian / loadF64 without a check per field.
     */
    std::string_view
    bytes(std::size_t count, const char *what)
    {
        need(count, what);
        const std::string_view run = data_.substr(pos_, count);
        pos_ += count;
        return run;
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
