// Unit tests for GmrReadPath against a hand-built component stack: a
// GmrCatalog populated through the maintenance plane, no notifier and no
// update traffic. Exercises both kinds of caller — a writer's (null
// context) repair side effects and a reader's strictly read-only probes
// (hit, invalid row, missing row, unmaterialized function, backward
// ranges).

#include <gtest/gtest.h>

#include "common/sim_clock.h"
#include "funclang/interpreter.h"
#include "gmr/gmr_catalog.h"
#include "gmr/gmr_maintenance.h"
#include "gmr/gmr_read_path.h"
#include "gom/object_manager.h"
#include "storage/buffer_pool.h"
#include "storage/sim_disk.h"
#include "storage/storage_manager.h"
#include "workload/cuboid_schema.h"

namespace gom {
namespace {

/// The three planes wired by hand — no GmrManager facade, no notifier.
struct Rig {
  Rig()
      : disk(&clock, CostModel::Default()),
        pool(&disk, 256),
        storage(&pool),
        om(&schema, &storage, &clock),
        interp(&om, &registry),
        catalog(&om, &registry, &storage, /*second_chance_rrr=*/false),
        maint(&om, &interp, &registry, &catalog, &stats, GmrManagerOptions{}),
        read_path(&interp, &catalog, &maint, &stats) {
    geo = *workload::CuboidSchema::Declare(&schema, &registry);
    iron = *geo.MakeMaterial(&om, "Iron", 7.86);
    c1 = *geo.MakeCuboid(&om, 10, 6, 5, iron);  // volume 300
    c2 = *geo.MakeCuboid(&om, 10, 5, 4, iron);  // volume 200
    c3 = *geo.MakeCuboid(&om, 5, 5, 4, iron);   // volume 100
  }

  GmrId MaterializeVolume() {
    GmrSpec spec;
    spec.name = "volume";
    spec.arg_types = {TypeRef::Object(geo.cuboid)};
    spec.functions = {geo.volume};
    auto id = maint.Materialize(std::move(spec));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  SimClock clock;
  SimDisk disk;
  BufferPool pool;
  StorageManager storage;
  Schema schema;
  ObjectManager om;
  funclang::FunctionRegistry registry;
  funclang::Interpreter interp;
  GmrStats stats;
  GmrCatalog catalog;
  GmrMaintenance maint;
  GmrReadPath read_path;
  workload::CuboidSchema geo;
  Oid iron, c1, c2, c3;
};

/// A session-style reader context: private clock and stats.
struct ReaderCtx {
  ReaderCtx() {
    ctx.clock = &clock;
    ctx.stats = &stats;
    ctx.session_id = 1;
  }
  SimClock clock;
  SessionStats stats;
  ExecutionContext ctx;
};

TEST(ReadPathTest, ConcurrentHitReturnsCachedValue) {
  Rig rig;
  GmrId id = rig.MaterializeVolume();
  ReaderCtx session;

  auto v = rig.read_path.ForwardLookup(&session.ctx, rig.geo.volume,
                                       {Value::Ref(rig.c1)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->as_float(), 300.0);
  EXPECT_EQ(rig.stats.forward_hits, 1u);
  EXPECT_EQ(session.stats.plain_evaluations, 0u);

  // Read-only: no row state changed.
  Gmr* gmr = *rig.catalog.Get(id);
  auto row = gmr->FindRow({Value::Ref(rig.c1)});
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*gmr->Get(*row))->valid[0]);
}

TEST(ReadPathTest, ConcurrentInvalidRowComputesTransiently) {
  Rig rig;
  GmrId id = rig.MaterializeVolume();
  ASSERT_TRUE(rig.maint.InvalidateAllResults(id).ok());
  ReaderCtx session;

  auto v = rig.read_path.ForwardLookup(&session.ctx, rig.geo.volume,
                                       {Value::Ref(rig.c1)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->as_float(), 300.0);
  EXPECT_EQ(rig.stats.forward_invalid, 1u);
  EXPECT_EQ(session.stats.plain_evaluations, 1u);

  // No self-heal: the row is still invalid — repair is maintenance work.
  Gmr* gmr = *rig.catalog.Get(id);
  auto row = gmr->FindRow({Value::Ref(rig.c1)});
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE((*gmr->Get(*row))->valid[0]);
}

TEST(ReadPathTest, ConcurrentMissingRowComputesTransiently) {
  Rig rig;
  GmrId id = rig.MaterializeVolume();
  // A cuboid born after materialization: with no notifier installed the
  // extension never hears about it.
  Oid c4 = *rig.geo.MakeCuboid(&rig.om, 2, 3, 4, rig.iron);  // volume 24
  ReaderCtx session;

  auto v = rig.read_path.ForwardLookup(&session.ctx, rig.geo.volume,
                                       {Value::Ref(c4)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->as_float(), 24.0);
  EXPECT_EQ(rig.stats.forward_misses, 1u);
  EXPECT_EQ(session.stats.plain_evaluations, 1u);

  // Unlike a writer, the reader inserted no row.
  Gmr* gmr = *rig.catalog.Get(id);
  EXPECT_EQ(gmr->live_rows(), 3u);
  EXPECT_FALSE(gmr->FindRow({Value::Ref(c4)}).ok());
}

TEST(ReadPathTest, ConcurrentUnmaterializedFunctionFallsThrough) {
  Rig rig;
  rig.MaterializeVolume();
  ReaderCtx session;

  EXPECT_TRUE(rig.read_path.IsMaterializedShared(rig.geo.volume));
  EXPECT_FALSE(rig.read_path.IsMaterializedShared(rig.geo.weight));

  auto v = rig.read_path.ForwardLookup(&session.ctx, rig.geo.weight,
                                       {Value::Ref(rig.c1)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->as_float(), 300.0 * 7.86);
  EXPECT_EQ(session.stats.plain_evaluations, 1u);
  EXPECT_EQ(rig.stats.forward_hits, 0u);
  EXPECT_EQ(rig.stats.forward_invalid, 0u);
  EXPECT_EQ(rig.stats.forward_misses, 0u);
}

TEST(ReadPathTest, ConcurrentBackwardRangeOverValidRows) {
  Rig rig;
  rig.MaterializeVolume();
  ReaderCtx session;

  auto rows = rig.read_path.BackwardRange(&session.ctx, rig.geo.volume, 150,
                                          400, true, true);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  std::vector<Oid> got = {(*rows)[0][0].as_ref(), (*rows)[1][0].as_ref()};
  EXPECT_TRUE((got[0] == rig.c1 && got[1] == rig.c2) ||
              (got[0] == rig.c2 && got[1] == rig.c1));
  EXPECT_EQ(rig.stats.backward_queries, 1u);
  EXPECT_EQ(session.stats.plain_evaluations, 0u);
}

TEST(ReadPathTest, ConcurrentBackwardResolvesInvalidRowsTransiently) {
  Rig rig;
  GmrId id = rig.MaterializeVolume();
  ASSERT_TRUE(rig.maint.InvalidateAllResults(id).ok());
  ReaderCtx session;

  auto rows = rig.read_path.BackwardRange(&session.ctx, rig.geo.volume, 150,
                                          400, true, true);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  // All three rows were invalid, so all three were recomputed transiently.
  EXPECT_EQ(session.stats.plain_evaluations, 3u);

  // Still no self-heal.
  Gmr* gmr = *rig.catalog.Get(id);
  auto row = gmr->FindRow({Value::Ref(rig.c1)});
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE((*gmr->Get(*row))->valid[0]);
}

TEST(ReadPathTest, ConcurrentBackwardRejectsIncrementalGmr) {
  Rig rig;
  GmrSpec spec;
  spec.name = "volume_cache";
  spec.arg_types = {TypeRef::Object(rig.geo.cuboid)};
  spec.functions = {rig.geo.volume};
  spec.complete = false;
  ASSERT_TRUE(rig.maint.Materialize(std::move(spec)).ok());
  ReaderCtx session;

  auto rows = rig.read_path.BackwardRange(&session.ctx, rig.geo.volume, 0,
                                          1000, true, true);
  EXPECT_EQ(rows.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReadPathTest, WriterPathStillHealsInvalidRows) {
  Rig rig;
  GmrId id = rig.MaterializeVolume();
  ASSERT_TRUE(rig.maint.InvalidateAllResults(id).ok());

  // A writer (null context): the pre-split repair semantics.
  auto v = rig.read_path.ForwardLookup(nullptr, rig.geo.volume,
                                       {Value::Ref(rig.c1)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->as_float(), 300.0);
  EXPECT_EQ(rig.stats.forward_invalid, 1u);

  Gmr* gmr = *rig.catalog.Get(id);
  auto row = gmr->FindRow({Value::Ref(rig.c1)});
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*gmr->Get(*row))->valid[0]);
}

TEST(ReadPathTest, ReaderBackwardSkipsInvalidRowOutOfRange) {
  Rig rig;
  GmrId id = rig.MaterializeVolume();
  Gmr* gmr = *rig.catalog.Get(id);
  RowId c3_row = *gmr->FindRow({Value::Ref(rig.c3)});  // volume 100
  ASSERT_TRUE(gmr->InvalidateResult(c3_row, 0).ok());
  ReaderCtx session;

  // [150, 400] holds c1 and c2 through the index; c3 is resolved
  // transiently and falls outside the range.
  auto rows = rig.read_path.BackwardRange(&session.ctx, rig.geo.volume, 150,
                                          400, true, true);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  for (const auto& r : *rows) EXPECT_NE(r[0].as_ref(), rig.c3);
  EXPECT_EQ(session.stats.plain_evaluations, 1u);
  EXPECT_FALSE(*gmr->ResultValid(c3_row, 0));
}

TEST(ReadPathTest, SessionClockChargesStayPrivate) {
  Rig rig;
  rig.MaterializeVolume();
  ReaderCtx session;
  double global_before = rig.clock.seconds();

  auto v = rig.read_path.BackwardRange(&session.ctx, rig.geo.volume, 0, 1000,
                                       true, true);
  ASSERT_TRUE(v.ok());
  // The index probe was charged to the session's clock, not the global one.
  EXPECT_GT(session.clock.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(rig.clock.seconds(), global_before);
}

}  // namespace
}  // namespace gom
