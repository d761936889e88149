#include "durable/wal.hpp"

#include "common/wire.hpp"

namespace durable {

std::vector<std::uint8_t>
encodeWalRecord(std::uint32_t type, std::uint64_t seq,
                const std::vector<std::uint8_t>& payload)
{
    // A frame is a sealed image whose two header words are the
    // payload length and the record type.
    std::vector<std::uint8_t> frame = common::beginImage(
        static_cast<std::uint32_t>(payload.size()), type,
        8 + payload.size());
    common::putU64(frame, seq);
    frame.insert(frame.end(), payload.begin(), payload.end());
    common::sealImage(frame);
    return frame;
}

WalReadResult
readWal(const std::uint8_t* data, std::size_t size,
        std::uint64_t first_seq)
{
    WalReadResult out;
    common::WireReader r(data, size, "wal record");
    for (std::uint64_t seq = first_seq; r.remaining() > 0; ++seq) {
        const std::size_t start = r.pos();
        const std::uint32_t len = r.u32("record header");
        r.check(len <= kWalMaxPayloadBytes, "payload length ", len,
                " exceeds cap");
        WalRecord rec;
        rec.type = r.u32("record header");
        rec.seq = r.u64("record header");
        const auto payload = r.bytes(len, "record body");
        r.digest(start, "record digest");
        r.check(rec.seq == seq, "sequence discontinuity: got ",
                rec.seq, ", expected ", seq);
        if (!r.ok()) {
            out.torn = true;
            out.tail_error = r.takeStatus().error().message;
            break;
        }
        rec.payload.assign(payload.begin(), payload.end());
        out.records.push_back(std::move(rec));
        out.clean_bytes = r.pos();
    }
    return out;
}

WalReadResult
readWal(const std::vector<std::uint8_t>& bytes,
        std::uint64_t first_seq)
{
    return readWal(bytes.data(), bytes.size(), first_seq);
}

WalWriter::WalWriter(StableStore& store, std::string file,
                     std::uint64_t next_seq)
    : store_(store), file_(std::move(file)), next_seq_(next_seq)
{
}

common::Status
WalWriter::append(std::uint32_t type,
                  const std::vector<std::uint8_t>& payload)
{
    if (payload.size() > kWalMaxPayloadBytes)
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "WAL payload exceeds cap: " +
                std::to_string(payload.size()));
    auto st = store_.append(
        file_, encodeWalRecord(type, next_seq_, payload));
    if (!st.ok())
        return st;
    ++next_seq_;
    ++pending_records_;
    return {};
}

common::Status
WalWriter::sync()
{
    if (pending_records_ == 0)
        return {};
    auto st = store_.syncRetry(file_);
    if (!st.ok())
        return st;
    pending_records_ = 0;
    ++syncs_;
    return {};
}

} // namespace durable
