#include "exec/proc/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/file_io.hh"

namespace dora
{

namespace
{

constexpr uint64_t kJournalMagic = 0x314E524A41524F44ull;  // "DORAJRN1"
constexpr uint32_t kJournalVersion = 1;
constexpr uint32_t kRecordMagic = 0x4345524Au;             // "JREC"
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
constexpr size_t kRecordHeadBytes = 4 + 8 + 4;
constexpr size_t kChecksumBytes = 8;
/** Records larger than this are treated as tail corruption (64 MiB). */
constexpr uint32_t kMaxRecordPayload = 64u * 1024 * 1024;

void
putRaw(std::string &out, const void *p, size_t n)
{
    out.append(static_cast<const char *>(p), n);
}

std::string
encodeHeader(uint64_t campaign_hash, uint64_t unit_count)
{
    std::string out;
    out.reserve(kHeaderBytes);
    putRaw(out, &kJournalMagic, sizeof(kJournalMagic));
    putRaw(out, &kJournalVersion, sizeof(kJournalVersion));
    putRaw(out, &campaign_hash, sizeof(campaign_hash));
    putRaw(out, &unit_count, sizeof(unit_count));
    const uint64_t fnv =
        hashLabel(std::string_view(out.data(), out.size()));
    putRaw(out, &fnv, sizeof(fnv));
    return out;
}

std::string
encodeRecord(uint64_t unit, std::string_view payload)
{
    std::string out;
    out.reserve(kRecordHeadBytes + payload.size() + kChecksumBytes);
    putRaw(out, &kRecordMagic, sizeof(kRecordMagic));
    putRaw(out, &unit, sizeof(unit));
    const uint32_t len = static_cast<uint32_t>(payload.size());
    putRaw(out, &len, sizeof(len));
    out.append(payload.data(), payload.size());
    const uint64_t fnv = hashLabel(std::string_view(
        out.data() + sizeof(kRecordMagic),
        out.size() - sizeof(kRecordMagic)));
    putRaw(out, &fnv, sizeof(fnv));
    return out;
}

} // namespace

ResultsJournal::~ResultsJournal()
{
    close();
}

void
ResultsJournal::close()
{
    if (fd_ >= 0) {
        ::fsync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ResultsJournal::open(const std::string &path, uint64_t campaign_hash,
                     uint64_t unit_count)
{
    close();
    loaded_.clear();
    truncatedTail_ = false;
    error_.clear();
    path_ = path;
    header_ = encodeHeader(campaign_hash, unit_count);

    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        error_ = "open(" + path + "): " + std::strerror(errno);
        return false;
    }

    std::string bytes;
    if (!readAll(fd_, &bytes)) {
        error_ = "read(" + path + "): " + std::strerror(errno);
        close();
        return false;
    }

    if (bytes.empty()) {
        // Fresh journal: write and sync the header.
        if (!writeAll(fd_, header_) ||
            ::fsync(fd_) != 0) {
            error_ = "write header(" + path + "): " +
                std::strerror(errno);
            close();
            return false;
        }
        return true;
    }

    // Existing journal: the header must match this campaign exactly.
    if (bytes.size() < kHeaderBytes ||
        bytes.compare(0, kHeaderBytes, header_) != 0) {
        error_ = "journal " + path +
            " does not match this campaign (different sweep, config, "
            "or build?); refusing to resume from it";
        close();
        return false;
    }

    // Walk records; stop at the first torn/corrupt one and truncate.
    size_t pos = kHeaderBytes;
    size_t good_end = pos;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < kRecordHeadBytes)
            break;
        uint32_t magic, len;
        uint64_t unit;
        std::memcpy(&magic, bytes.data() + pos, sizeof(magic));
        std::memcpy(&unit, bytes.data() + pos + 4, sizeof(unit));
        std::memcpy(&len, bytes.data() + pos + 12, sizeof(len));
        if (magic != kRecordMagic || len > kMaxRecordPayload)
            break;
        const size_t total = kRecordHeadBytes + len + kChecksumBytes;
        if (bytes.size() - pos < total)
            break;
        uint64_t fnv;
        std::memcpy(&fnv, bytes.data() + pos + kRecordHeadBytes + len,
                    sizeof(fnv));
        const uint64_t expect = hashLabel(std::string_view(
            bytes.data() + pos + sizeof(kRecordMagic),
            kRecordHeadBytes - sizeof(kRecordMagic) + len));
        if (fnv != expect)
            break;
        loaded_.emplace_back(
            unit, bytes.substr(pos + kRecordHeadBytes, len));
        pos += total;
        good_end = pos;
    }

    if (good_end < bytes.size()) {
        truncatedTail_ = true;
        warn("ResultsJournal: %s has a torn/corrupt tail (%zu bytes "
             "after the last intact record); truncating and resuming",
             path.c_str(), bytes.size() - good_end);
        if (::ftruncate(fd_, static_cast<off_t>(good_end)) != 0 ||
            ::fsync(fd_) != 0) {
            error_ = "truncate(" + path + "): " + std::strerror(errno);
            close();
            return false;
        }
    }

    if (::lseek(fd_, 0, SEEK_END) < 0) {
        error_ = "seek(" + path + "): " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
ResultsJournal::append(uint64_t unit, std::string_view payload)
{
    if (fd_ < 0) {
        error_ = "append on closed journal";
        return false;
    }
    const std::string record = encodeRecord(unit, payload);
    if (!writeAll(fd_, record)) {
        error_ = std::string("append: ") + std::strerror(errno);
        return false;
    }
    if (::fsync(fd_) != 0) {
        error_ = std::string("fsync: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
ResultsJournal::compactBelow(uint64_t floor)
{
    if (fd_ < 0) {
        error_ = "compactBelow on closed journal";
        return false;
    }

    // Re-read the live file: the journal keeps no in-memory copy of
    // appended payloads (that would defeat the memory bound the
    // compaction exists to preserve).
    if (::lseek(fd_, 0, SEEK_SET) < 0) {
        error_ = std::string("seek: ") + std::strerror(errno);
        return false;
    }
    std::string bytes;
    if (!readAll(fd_, &bytes)) {
        error_ = std::string("read: ") + std::strerror(errno);
        return false;
    }

    std::string out = header_;
    size_t pos = kHeaderBytes;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < kRecordHeadBytes)
            break;
        uint32_t magic, len;
        uint64_t unit;
        std::memcpy(&magic, bytes.data() + pos, sizeof(magic));
        std::memcpy(&unit, bytes.data() + pos + 4, sizeof(unit));
        std::memcpy(&len, bytes.data() + pos + 12, sizeof(len));
        if (magic != kRecordMagic || len > kMaxRecordPayload)
            break;
        const size_t total = kRecordHeadBytes + len + kChecksumBytes;
        if (bytes.size() - pos < total)
            break;
        if (unit >= floor)
            out.append(bytes, pos, total);
        pos += total;
    }

    if (!writeFileAtomic(path_, out)) {
        error_ = "rewrite(" + path_ + "): " + std::strerror(errno);
        return false;
    }

    // Swap the append fd to the compacted file.
    const int nfd =
        ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC, 0644);
    if (nfd < 0) {
        error_ = "reopen(" + path_ + "): " + std::strerror(errno);
        return false;
    }
    ::close(fd_);
    fd_ = nfd;
    return true;
}

} // namespace dora
