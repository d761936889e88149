#include "durable/manifest.hpp"

#include "common/wire.hpp"

namespace durable {

namespace {

/** Sanity cap on embedded file names. */
constexpr std::uint32_t kMaxNameBytes = 4096;

} // namespace

std::vector<std::uint8_t>
serializeManifest(const Manifest& m)
{
    std::vector<std::uint8_t> out = common::beginImage(
        kManifestMagic, kManifestVersion,
        8 + 4 + m.checkpoint_file.size() + 8 + 8 + 4 +
            m.wal_file.size());
    common::putU64(out, m.generation);
    common::putName(out, m.checkpoint_file);
    common::putU64(out, m.checkpoint_bytes);
    common::putU64(out, m.checkpoint_digest);
    common::putName(out, m.wal_file);
    common::sealImage(out);
    return out;
}

common::Result<Manifest>
parseManifest(const std::uint8_t* data, std::size_t size)
{
    common::WireReader r(data, size, "malformed manifest");
    r.openImage(kManifestMagic, kManifestVersion);
    Manifest m;
    m.generation = r.u64("generation");
    r.check(m.generation != 0, "generation must be positive");
    m.checkpoint_file = r.name(kMaxNameBytes, "checkpoint_file");
    m.checkpoint_bytes = r.u64("checkpoint size");
    m.checkpoint_digest = r.u64("checkpoint digest");
    m.wal_file = r.name(kMaxNameBytes, "wal_file");
    r.closeImage();
    if (!r.ok())
        return r.takeStatus();
    return m;
}

common::Result<Manifest>
parseManifest(const std::vector<std::uint8_t>& bytes)
{
    return parseManifest(bytes.data(), bytes.size());
}

CheckpointStore::CheckpointStore(StableStore& store, std::string dir)
    : store_(store), dir_(std::move(dir))
{
}

bool
CheckpointStore::hasState() const
{
    return store_.exists(manifestFile());
}

common::Result<Manifest>
CheckpointStore::install(std::uint64_t generation,
                         const std::vector<std::uint8_t>& payload,
                         const std::string& current_wal)
{
    if (generation == 0)
        return common::Status::failure(
            common::ErrorCode::InvalidArgument,
            "generation must be positive");

    // 1. The superseded WAL must be durable before the checkpoint
    //    that covers it, or a crash between the two loses records
    //    the new checkpoint does not contain.
    if (!current_wal.empty()) {
        if (auto st = store_.syncRetry(current_wal); !st.ok())
            return st;
    }

    // 2. Checkpoint payload: temp-write + sync + rename. Never an
    //    in-place overwrite -- writeFile truncates durably at once.
    const std::string tmp = checkpointFile(generation) + ".tmp";
    if (auto st = store_.writeFile(tmp, payload); !st.ok())
        return st;
    if (auto st = store_.syncRetry(tmp); !st.ok())
        return st;
    if (auto st = store_.rename(tmp, checkpointFile(generation));
        !st.ok())
        return st;

    // 3. The generation's fresh, empty WAL segment. writeFile of an
    //    empty vector creates the name; nothing to sync.
    if (auto st = store_.writeFile(walFile(generation), {}); !st.ok())
        return st;

    // 4. The commit point: rename the manifest into place.
    Manifest m;
    m.generation = generation;
    m.checkpoint_file = checkpointFile(generation);
    m.checkpoint_bytes = payload.size();
    m.checkpoint_digest = common::fnv1a64(payload);
    m.wal_file = walFile(generation);
    const std::string mtmp = manifestFile() + ".tmp";
    if (auto st = store_.writeFile(mtmp, serializeManifest(m));
        !st.ok())
        return st;
    if (auto st = store_.syncRetry(mtmp); !st.ok())
        return st;
    if (auto st = store_.rename(mtmp, manifestFile()); !st.ok())
        return st;

    // 5. GC everything in the directory the new manifest does not
    //    name. Failures are ignored: a crash mid-GC only strands
    //    files a recovering loader never opens.
    for (const auto& name : store_.list(dir_ + "/")) {
        if (name == manifestFile() || name == m.checkpoint_file ||
            name == m.wal_file)
            continue;
        auto st = store_.remove(name);
        if (!st.ok() &&
            st.code() == common::ErrorCode::Unavailable)
            break; // crashed mid-GC; recovery tolerates strays
    }
    return m;
}

common::Result<CheckpointStore::Loaded>
CheckpointStore::loadLatest() const
{
    auto mbytes = store_.read(manifestFile());
    if (!mbytes.ok())
        return mbytes.takeStatus();
    auto manifest = parseManifest(mbytes.value());
    if (!manifest.ok())
        return manifest.takeStatus();

    auto payload = store_.read(manifest.value().checkpoint_file);
    if (!payload.ok())
        return payload.takeStatus();
    const auto& blob = payload.value();
    if (blob.size() != manifest.value().checkpoint_bytes)
        return common::Status::failure(
            common::ErrorCode::DataLoss,
            "checkpoint size mismatch: manifest says " +
                std::to_string(manifest.value().checkpoint_bytes) +
                ", file has " + std::to_string(blob.size()));
    if (common::fnv1a64(blob) != manifest.value().checkpoint_digest)
        return common::Status::failure(
            common::ErrorCode::DataLoss,
            "checkpoint digest mismatch (torn write or bit rot): " +
                manifest.value().checkpoint_file);

    Loaded loaded;
    loaded.manifest = std::move(manifest).value();
    loaded.payload = std::move(payload).value();
    return loaded;
}

} // namespace durable
