// The §3.2 encryption checkbox end to end: "Enabling encryption
// requires setting a checkbox ... we generate block-specific encryption
// keys ... wrap these with cluster-specific keys ... all user data,
// including backups, is encrypted." These tests verify plaintext never
// reaches the device or the object store, and that every managed
// operation (COPY, query, backup, restore, resize, VACUUM, rotation)
// keeps working with the box ticked.

#include <gtest/gtest.h>

#include "common/random.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

WarehouseOptions EncryptedOptions() {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 256;
  options.encrypted = true;
  return options;
}

/// The canary string we expect to never appear in stored bytes.
constexpr char kCanary[] = "TOPSECRET-cleartext-canary";

bool ContainsCanary(const Bytes& data) {
  const std::string needle(kCanary);
  return std::search(data.begin(), data.end(), needle.begin(),
                     needle.end()) != data.end();
}

class EncryptedWarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wh_ = std::make_unique<Warehouse>(EncryptedOptions());
    Must("CREATE TABLE secrets (id BIGINT, payload VARCHAR)");
    std::string sql = "INSERT INTO secrets VALUES ";
    for (int i = 0; i < 200; ++i) {
      if (i) sql += ", ";
      sql += "(" + std::to_string(i) + ", '" + kCanary + "-" +
             std::to_string(i) + "')";
    }
    Must(sql);
  }

  StatementResult Must(const std::string& sql) {
    auto r = wh_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(*r) : StatementResult{};
  }

  int64_t Count() {
    return Must("SELECT COUNT(*) AS n FROM secrets").rows.columns[0].IntAt(0);
  }

  std::unique_ptr<Warehouse> wh_;
};

TEST_F(EncryptedWarehouseTest, PlaintextNeverTouchesTheDevice) {
  // Queries see cleartext...
  auto r = Must("SELECT payload FROM secrets WHERE id = 7");
  ASSERT_EQ(r.rows.num_rows(), 1u);
  EXPECT_NE(r.rows.columns[0].StringAt(0).find(kCanary), std::string::npos);
  // ...but every stored block is ciphertext.
  for (int n = 0; n < wh_->data_plane()->num_nodes(); ++n) {
    storage::BlockStore* store = wh_->data_plane()->node(n)->store();
    for (storage::BlockId id : store->ListIds()) {
      auto raw = store->GetRaw(id);
      ASSERT_TRUE(raw.ok());
      EXPECT_FALSE(ContainsCanary(*raw)) << "block " << id << " on node " << n;
    }
  }
}

TEST_F(EncryptedWarehouseTest, BackupsAreEncryptedToo) {
  auto backup = wh_->Backup();
  ASSERT_TRUE(backup.ok()) << backup.status();
  backup::S3Region* region = wh_->s3()->region("us-east-1");
  int blocks_checked = 0;
  for (const std::string& key : region->ListPrefix("simpledw/blocks/")) {
    auto object = region->GetObject(key);
    ASSERT_TRUE(object.ok());
    EXPECT_FALSE(ContainsCanary(*object)) << key;
    ++blocks_checked;
  }
  EXPECT_GT(blocks_checked, 0);
}

TEST_F(EncryptedWarehouseTest, StreamingRestoreDecryptsOnFault) {
  const int64_t expected = Count();
  auto backup = wh_->Backup();
  ASSERT_TRUE(backup.ok());
  Must("DROP TABLE secrets");
  ASSERT_TRUE(wh_->RestoreInPlace(backup->snapshot_id).ok());
  EXPECT_EQ(Count(), expected);
  auto r = Must("SELECT payload FROM secrets WHERE id = 42");
  EXPECT_NE(r.rows.columns[0].StringAt(0).find(kCanary), std::string::npos);
}

TEST_F(EncryptedWarehouseTest, ResizeReEncryptsOnTheTarget) {
  const int64_t expected = Count();
  auto stats = wh_->Resize(4);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(Count(), expected);
  // Target device holds ciphertext only.
  for (int n = 0; n < wh_->data_plane()->num_nodes(); ++n) {
    storage::BlockStore* store = wh_->data_plane()->node(n)->store();
    for (storage::BlockId id : store->ListIds()) {
      auto raw = store->GetRaw(id);
      ASSERT_TRUE(raw.ok());
      EXPECT_FALSE(ContainsCanary(*raw));
    }
  }
}

TEST_F(EncryptedWarehouseTest, KeyRotationIsTransparent) {
  const int64_t before = Count();
  const uint64_t keys_before = wh_->keys()->num_block_keys();
  ASSERT_TRUE(wh_->RotateKeys().ok());
  EXPECT_EQ(Count(), before);  // data untouched, reads still decrypt
  EXPECT_EQ(wh_->keys()->num_block_keys(), keys_before);
  // Writes after rotation work too.
  Must("INSERT INTO secrets VALUES (999, 'post-rotation')");
  EXPECT_EQ(Count(), before + 1);
}

TEST_F(EncryptedWarehouseTest, VacuumRewritesUnderEncryption) {
  for (int run = 0; run < 3; ++run) {
    Must("INSERT INTO secrets VALUES (" + std::to_string(1000 + run) +
         ", 'late')");
  }
  const int64_t before = Count();
  auto vacuum = Must("VACUUM secrets");
  EXPECT_NE(vacuum.message.find("rewritten"), std::string::npos);
  EXPECT_EQ(Count(), before);
}

// Repudiation (cryptographic erasure) makes the data unreadable, also
// what memory still holds: decoded blocks survive across queries and a
// repeated SELECT would be a result-cache hit, so the front door
// refuses every statement but system-table reads.
TEST_F(EncryptedWarehouseTest, RepudiationRefusesReadsServedFromMemory) {
  const std::string sql = "SELECT payload FROM secrets WHERE id = 7";
  ASSERT_EQ(Must(sql).rows.num_rows(), 1u);
  ASSERT_TRUE(Must(sql).from_result_cache);
  wh_->keys()->Repudiate();

  // (i) A different SELECT over blocks already decoded in memory.
  auto other = wh_->Execute("SELECT COUNT(*) AS n FROM secrets");
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition)
      << other.status();
  // (ii) The same SELECT, whose answer sits in the result cache.
  auto repeated = wh_->Execute(sql);
  EXPECT_EQ(repeated.status().code(), StatusCode::kFailedPrecondition)
      << repeated.status();
  EXPECT_FALSE(wh_->Execute("INSERT INTO secrets VALUES (1, 'x')").ok());
  // Monitoring keeps working.
  EXPECT_TRUE(wh_->Execute("SELECT query_id FROM stl_query").ok());
}

TEST(EncryptionOffTest, RotationRequiresTheCheckbox) {
  WarehouseOptions options;
  options.cluster.num_nodes = 1;
  Warehouse wh(options);
  EXPECT_EQ(wh.RotateKeys().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wh.keys(), nullptr);
}

}  // namespace
}  // namespace sdw::warehouse
