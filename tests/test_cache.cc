/**
 * @file
 * Run-cache tests: the in-tree SHA-256 against FIPS 180-4 known
 * answers, key stability, publish/lookup byte-exactness, corrupt and
 * truncated entries reading as misses, mtime-LRU eviction under a
 * size cap, concurrent publishers sharing one directory, and the
 * sweep-level contract — a warm pass is all hits and aggregates
 * byte-identically to the cold pass that filled the cache.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/run_cache.hh"
#include "cache/sha256.hh"
#include "driver/sweep.hh"
#include "sim/logging.hh"

using namespace ts;
using namespace ts::cache;

namespace fs = std::filesystem;

namespace
{

/** Fresh per-test scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string& tag)
    {
        path = fs::temp_directory_path() /
               ("ts_cache_test_" + tag + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

RunCache
makeCache(const TempDir& dir, std::uint64_t cap = 0)
{
    return RunCache(RunCacheConfig{dir.str(), cap});
}

} // namespace

// ---------------------------------------------------------------------
// SHA-256: FIPS 180-4 known-answer vectors.
// ---------------------------------------------------------------------

TEST(Sha256Test, KnownAnswers)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                        "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs)
{
    const std::string chunk(1000, 'a');
    Sha256 h;
    for (int i = 0; i < 1000; ++i)
        h.update(chunk.data(), chunk.size());
    EXPECT_EQ(h.hexDigest(),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot)
{
    const std::string msg =
        "the quick brown fox jumps over the lazy dog, repeatedly, "
        "across buffer boundaries of every alignment";
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 h;
        h.update(msg.data(), split);
        h.update(msg.data() + split, msg.size() - split);
        EXPECT_EQ(h.hexDigest(), sha256Hex(msg)) << "split=" << split;
    }
}

// ---------------------------------------------------------------------
// RunCache: keys, round trips, and malformed entries.
// ---------------------------------------------------------------------

TEST(RunCacheTest, KeyIsStableAndSensitiveToBothInputs)
{
    const std::string k = RunCache::keyFor("fp", "cell");
    EXPECT_EQ(k.size(), 64u);
    EXPECT_EQ(k, RunCache::keyFor("fp", "cell"));
    EXPECT_NE(k, RunCache::keyFor("fp2", "cell"));
    EXPECT_NE(k, RunCache::keyFor("fp", "cell2"));
    // The fingerprint/cell boundary must be unambiguous.
    EXPECT_NE(RunCache::keyFor("ab", "c"), RunCache::keyFor("a", "bc"));
}

TEST(RunCacheTest, PublishThenLookupIsByteExact)
{
    TempDir dir("roundtrip");
    const RunCache cache = makeCache(dir);

    const std::string payload =
        "{\n  \"cycles\": 123,\n  \"binary\": \"\x01\x7f\"\n}\n";
    const std::string key = RunCache::keyFor("fp", "cell v1");
    EXPECT_FALSE(cache.contains(key));

    cache.publish(key, "cell v1", payload);
    EXPECT_TRUE(cache.contains(key));

    std::string got;
    ASSERT_TRUE(cache.lookup(key, got));
    EXPECT_EQ(got, payload);

    // A second publish of the same entry is harmless.
    cache.publish(key, "cell v1", payload);
    ASSERT_TRUE(cache.lookup(key, got));
    EXPECT_EQ(got, payload);
}

TEST(RunCacheTest, MissOnAbsentKey)
{
    TempDir dir("absent");
    const RunCache cache = makeCache(dir);
    std::string got;
    EXPECT_FALSE(cache.lookup(RunCache::keyFor("fp", "nope"), got));
}

TEST(RunCacheTest, TruncatedEntryIsAMiss)
{
    TempDir dir("truncated");
    const RunCache cache = makeCache(dir);
    const std::string key = RunCache::keyFor("fp", "cell");
    cache.publish(key, "cell", std::string(4096, 'x'));

    const fs::path entry = dir.path / key;
    ASSERT_TRUE(fs::exists(entry));
    fs::resize_file(entry, fs::file_size(entry) / 2);

    std::string got;
    EXPECT_FALSE(cache.lookup(key, got));
    EXPECT_FALSE(cache.contains(key));
}

TEST(RunCacheTest, GarbageEntryIsAMiss)
{
    TempDir dir("garbage");
    const RunCache cache = makeCache(dir);
    const std::string key = RunCache::keyFor("fp", "cell");

    {
        std::ofstream os(dir.path / key, std::ios::binary);
        os << "not a cache entry at all";
    }
    std::string got;
    EXPECT_FALSE(cache.lookup(key, got));

    {
        std::ofstream os(dir.path / key,
                         std::ios::binary | std::ios::trunc);
    }
    EXPECT_FALSE(cache.lookup(key, got));
}

TEST(RunCacheTest, EntryStoredUnderWrongKeyIsAMiss)
{
    TempDir dir("wrongkey");
    const RunCache cache = makeCache(dir);
    const std::string key = RunCache::keyFor("fp", "cell");
    const std::string other = RunCache::keyFor("fp", "other");
    cache.publish(key, "cell", "payload");

    // Simulate a mis-filed entry: valid format, wrong filename.
    fs::copy_file(dir.path / key, dir.path / other);
    std::string got;
    EXPECT_FALSE(cache.lookup(other, got));
}

TEST(RunCacheTest, EvictionKeepsFreshEntriesUnderTheCap)
{
    TempDir dir("evict");
    const std::string payload(1024, 'p');
    // Cap fits two payloads comfortably but never four.
    const RunCache cache = makeCache(dir, 2560);

    std::vector<std::string> keys;
    for (int i = 0; i < 4; ++i) {
        keys.push_back(
            RunCache::keyFor("fp", "cell " + std::to_string(i)));
        cache.publish(keys.back(), "cell", payload);
        // Distinct mtimes so LRU order is unambiguous.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    // The newest entry always survives its own publish.
    EXPECT_TRUE(cache.contains(keys.back()));
    // The oldest must have been evicted.
    EXPECT_FALSE(cache.contains(keys.front()));

    std::uintmax_t total = 0;
    for (const auto& e : fs::directory_iterator(dir.path))
        if (e.path().filename().string().size() == 64)
            total += fs::file_size(e.path());
    EXPECT_LE(total, 2.5 * 1024 + 256)
        << "entry bytes should be near or under the cap after "
           "eviction";
}

TEST(RunCacheTest, ConcurrentSweepsShareOneDirectory)
{
    TempDir dir("concurrent");
    constexpr int kKeys = 64;

    auto worker = [&](int salt) {
        const RunCache cache = makeCache(dir);
        for (int i = 0; i < kKeys; ++i) {
            const std::string cell = "cell " + std::to_string(i);
            const std::string key = RunCache::keyFor("fp", cell);
            const std::string payload =
                "payload " + std::to_string(i);
            if ((i + salt) % 2 == 0)
                cache.publish(key, cell, payload);
            std::string got;
            if (cache.lookup(key, got))
                EXPECT_EQ(got, payload);
        }
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();

    // Between them the threads published every key; all must hit now.
    const RunCache cache = makeCache(dir);
    for (int i = 0; i < kKeys; ++i) {
        const std::string key =
            RunCache::keyFor("fp", "cell " + std::to_string(i));
        std::string got;
        EXPECT_TRUE(cache.lookup(key, got)) << "key " << i;
        EXPECT_EQ(got, "payload " + std::to_string(i));
    }
}

// ---------------------------------------------------------------------
// Sweep integration: cold fills, warm hits, reports byte-identical.
// ---------------------------------------------------------------------

namespace
{

driver::SweepSpec
cachedSpec(const std::string& cacheDir)
{
    driver::SweepSpec spec;
    spec.workloads = {Wk::Spmv};
    spec.configs = driver::sweepConfigsFromList("static,delta");
    spec.seeds = {3, 5};
    spec.scales = {0.25};
    spec.baseline = "static";
    spec.cacheDir = cacheDir;
    return spec;
}

std::string
reportJson(const driver::SweepReport& report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

} // namespace

TEST(SweepCacheTest, ColdMissesWarmHitsByteIdenticalReport)
{
    TempDir dir("sweep");

    driver::Sweep cold(cachedSpec(dir.str()));
    const driver::SweepReport coldReport = cold.run();
    ASSERT_EQ(coldReport.failures(), 0u);
    EXPECT_EQ(coldReport.cacheHits, 0u);
    EXPECT_EQ(coldReport.cacheMisses, 4u);

    driver::Sweep warm(cachedSpec(dir.str()));
    const driver::SweepReport warmReport = warm.run();
    ASSERT_EQ(warmReport.failures(), 0u);
    EXPECT_EQ(warmReport.cacheHits, 4u);
    EXPECT_EQ(warmReport.cacheMisses, 0u);

    EXPECT_EQ(reportJson(coldReport), reportJson(warmReport))
        << "a cache replay must aggregate byte-identically to the "
           "run it stands in for";
}

TEST(SweepCacheTest, CachedOutcomesMatchUncachedRuns)
{
    TempDir dir("parity");

    driver::SweepSpec plain = cachedSpec("");
    driver::Sweep reference(plain);
    const driver::SweepReport ref = reference.run();

    driver::Sweep cold(cachedSpec(dir.str()));
    (void)cold.run();
    driver::Sweep warm(cachedSpec(dir.str()));
    const driver::SweepReport replay = warm.run();

    EXPECT_EQ(reportJson(ref), reportJson(replay))
        << "cache replays must be indistinguishable from uncached "
           "runs in the aggregate report";
}
