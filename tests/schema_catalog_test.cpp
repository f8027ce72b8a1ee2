#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/temporal_class.h"

namespace temporadb {
namespace {

Schema FacultySchema() {
  return *Schema::Make({Attribute{"name", Type::String()},
                        Attribute{"rank", Type::String()}});
}

TEST(Schema, MakeValidates) {
  EXPECT_TRUE(Schema::Make({Attribute{"a", Type::Int()}}).ok());
  EXPECT_FALSE(Schema::Make({Attribute{"", Type::Int()}}).ok());
  EXPECT_FALSE(Schema::Make({Attribute{"a", Type::Int()},
                             Attribute{"a", Type::Float()}})
                   .ok());
}

TEST(Schema, IndexOf) {
  Schema s = FacultySchema();
  EXPECT_EQ(*s.IndexOf("rank"), 1u);
  EXPECT_FALSE(s.IndexOf("salary").has_value());
}

TEST(Schema, Project) {
  Schema s = FacultySchema();
  Schema p = s.Project({1});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.at(0).name, "rank");
  std::vector<std::string> names{"r"};
  Schema renamed = s.Project({1}, &names);
  EXPECT_EQ(renamed.at(0).name, "r");
}

TEST(Schema, Concat) {
  Schema s = FacultySchema().Concat(
      *Schema::Make({Attribute{"salary", Type::Int()}}));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.at(2).name, "salary");
}

TEST(Schema, ToString) {
  EXPECT_EQ(FacultySchema().ToString(), "(name: string, rank: string)");
}

TEST(Schema, EncodeDecodeRoundTrip) {
  Schema s = *Schema::Make({Attribute{"name", Type::String()},
                            Attribute{"n", Type::Int()},
                            Attribute{"f", Type::Float()},
                            Attribute{"d", Type::DateType()},
                            Attribute{"b", Type::Bool()}});
  std::string buf;
  s.EncodeTo(&buf);
  std::string_view in = buf;
  Result<Schema> round = Schema::DecodeFrom(&in);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, s);
  EXPECT_TRUE(in.empty());
}

TEST(Schema, DecodeDetectsTruncation) {
  Schema s = FacultySchema();
  std::string buf;
  s.EncodeTo(&buf);
  buf.resize(buf.size() / 2);
  std::string_view in = buf;
  EXPECT_FALSE(Schema::DecodeFrom(&in).ok());
}

TEST(TemporalClassPredicates, MatchFigure11) {
  EXPECT_FALSE(SupportsTransactionTime(TemporalClass::kStatic));
  EXPECT_FALSE(SupportsValidTime(TemporalClass::kStatic));
  EXPECT_TRUE(SupportsTransactionTime(TemporalClass::kRollback));
  EXPECT_FALSE(SupportsValidTime(TemporalClass::kRollback));
  EXPECT_FALSE(SupportsTransactionTime(TemporalClass::kHistorical));
  EXPECT_TRUE(SupportsValidTime(TemporalClass::kHistorical));
  EXPECT_TRUE(SupportsTransactionTime(TemporalClass::kTemporal));
  EXPECT_TRUE(SupportsValidTime(TemporalClass::kTemporal));
}

TEST(TemporalClassPredicates, AppendOnlyTracksRollback) {
  // §5: kinds supporting rollback are append-only.
  for (TemporalClass c : {TemporalClass::kStatic, TemporalClass::kRollback,
                          TemporalClass::kHistorical,
                          TemporalClass::kTemporal}) {
    EXPECT_EQ(IsAppendOnly(c), SupportsTransactionTime(c));
  }
}

TEST(TemporalClassPredicates, DerivedClassRules) {
  EXPECT_EQ(DerivedClass(TemporalClass::kStatic), TemporalClass::kStatic);
  EXPECT_EQ(DerivedClass(TemporalClass::kRollback), TemporalClass::kStatic);
  EXPECT_EQ(DerivedClass(TemporalClass::kHistorical),
            TemporalClass::kHistorical);
  EXPECT_EQ(DerivedClass(TemporalClass::kTemporal), TemporalClass::kTemporal);
}

TEST(TemporalClassPredicates, MeetIsLatticeMeet) {
  EXPECT_EQ(MeetClass(TemporalClass::kTemporal, TemporalClass::kTemporal),
            TemporalClass::kTemporal);
  EXPECT_EQ(MeetClass(TemporalClass::kTemporal, TemporalClass::kHistorical),
            TemporalClass::kHistorical);
  EXPECT_EQ(MeetClass(TemporalClass::kTemporal, TemporalClass::kRollback),
            TemporalClass::kRollback);
  EXPECT_EQ(MeetClass(TemporalClass::kHistorical, TemporalClass::kRollback),
            TemporalClass::kStatic);
  EXPECT_EQ(MeetClass(TemporalClass::kStatic, TemporalClass::kTemporal),
            TemporalClass::kStatic);
}

TEST(TemporalClassNames, Stable) {
  EXPECT_EQ(TemporalClassName(TemporalClass::kStatic), "static");
  EXPECT_EQ(TemporalClassName(TemporalClass::kRollback), "rollback");
  EXPECT_EQ(TemporalClassName(TemporalClass::kHistorical), "historical");
  EXPECT_EQ(TemporalClassName(TemporalClass::kTemporal), "temporal");
  EXPECT_EQ(TemporalDataModelName(TemporalDataModel::kEvent), "event");
}

TEST(Catalog, CreateAndGet) {
  Catalog catalog;
  Result<RelationInfo> info = catalog.CreateRelation(
      "faculty", FacultySchema(), TemporalClass::kTemporal,
      TemporalDataModel::kInterval, false);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->id, 0u);
  Result<RelationInfo> got = catalog.GetRelation("faculty");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->temporal_class, TemporalClass::kTemporal);
  EXPECT_TRUE(catalog.HasRelation("faculty"));
  EXPECT_FALSE(catalog.HasRelation("students"));
}

TEST(Catalog, DuplicateNameRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateRelation("r", FacultySchema(),
                                     TemporalClass::kStatic,
                                     TemporalDataModel::kInterval, false)
                  .ok());
  Result<RelationInfo> dup = catalog.CreateRelation(
      "r", FacultySchema(), TemporalClass::kStatic,
      TemporalDataModel::kInterval, false);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(Catalog, EventRequiresValidTime) {
  Catalog catalog;
  EXPECT_FALSE(catalog.CreateRelation("e", FacultySchema(),
                                      TemporalClass::kRollback,
                                      TemporalDataModel::kEvent, false)
                   .ok());
  EXPECT_TRUE(catalog.CreateRelation("e", FacultySchema(),
                                     TemporalClass::kHistorical,
                                     TemporalDataModel::kEvent, false)
                  .ok());
}

TEST(Catalog, DropAndList) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateRelation("b", FacultySchema(),
                                     TemporalClass::kStatic,
                                     TemporalDataModel::kInterval, false)
                  .ok());
  ASSERT_TRUE(catalog.CreateRelation("a", FacultySchema(),
                                     TemporalClass::kStatic,
                                     TemporalDataModel::kInterval, false)
                  .ok());
  auto list = catalog.ListRelations();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "a");  // Name order.
  ASSERT_TRUE(catalog.DropRelation("a").ok());
  EXPECT_FALSE(catalog.HasRelation("a"));
  EXPECT_TRUE(catalog.DropRelation("a").IsNotFound());
}

TEST(Catalog, IdsNeverReused) {
  Catalog catalog;
  uint64_t id1 = catalog
                     .CreateRelation("x", FacultySchema(),
                                     TemporalClass::kStatic,
                                     TemporalDataModel::kInterval, false)
                     ->id;
  ASSERT_TRUE(catalog.DropRelation("x").ok());
  uint64_t id2 = catalog
                     .CreateRelation("x", FacultySchema(),
                                     TemporalClass::kStatic,
                                     TemporalDataModel::kInterval, false)
                     ->id;
  EXPECT_NE(id1, id2);
}

TEST(Catalog, EncodeDecodeRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateRelation("faculty", FacultySchema(),
                                     TemporalClass::kTemporal,
                                     TemporalDataModel::kInterval, true)
                  .ok());
  ASSERT_TRUE(catalog.CreateRelation("promotion", FacultySchema(),
                                     TemporalClass::kTemporal,
                                     TemporalDataModel::kEvent, false)
                  .ok());
  std::string buf;
  catalog.EncodeTo(&buf);
  std::string_view in = buf;
  Result<Catalog> round = Catalog::DecodeFrom(&in);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->size(), 2u);
  Result<RelationInfo> faculty = round->GetRelation("faculty");
  ASSERT_TRUE(faculty.ok());
  EXPECT_TRUE(faculty->persistent);
  EXPECT_EQ(faculty->temporal_class, TemporalClass::kTemporal);
  Result<RelationInfo> promotion = round->GetRelation("promotion");
  ASSERT_TRUE(promotion.ok());
  EXPECT_EQ(promotion->data_model, TemporalDataModel::kEvent);
  // next_id survives the round trip: new relations get fresh ids.
  Result<RelationInfo> fresh = round->CreateRelation(
      "z", FacultySchema(), TemporalClass::kStatic,
      TemporalDataModel::kInterval, false);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->id, promotion->id);
}

TEST(Catalog, IndexDeclarationsRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateRelation("faculty", FacultySchema(),
                                     TemporalClass::kTemporal,
                                     TemporalDataModel::kInterval, true)
                  .ok());
  ASSERT_TRUE(catalog.AddIndex("faculty", 1).ok());
  ASSERT_TRUE(catalog.AddIndex("faculty", 0).ok());
  EXPECT_EQ(catalog.AddIndex("faculty", 1).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.AddIndex("faculty", 2).IsInvalidArgument());
  EXPECT_TRUE(catalog.AddIndex("nope", 0).IsNotFound());
  std::string buf;
  catalog.EncodeTo(&buf);
  std::string_view in = buf;
  Result<Catalog> round = Catalog::DecodeFrom(&in);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->GetRelation("faculty")->indexed_attrs,
            (std::vector<uint32_t>{1, 0}));
}

TEST(Catalog, BadIndexDeclarationsAreCorruption) {
  // A declaration at or beyond the arity, or naming an attribute twice, is
  // damage, whatever the checksum said.
  for (const std::vector<uint32_t>& attrs :
       {std::vector<uint32_t>{2}, std::vector<uint32_t>{0, 0},
        std::vector<uint32_t>{1, 0, 1}, std::vector<uint32_t>{0xFFFFFFFFu}}) {
    RelationInfo info;
    info.id = 1;
    info.name = "faculty";
    info.schema = FacultySchema();
    info.indexed_attrs = attrs;
    std::string buf;
    EncodeRelationInfo(info, &buf);
    std::string_view in = buf;
    EXPECT_TRUE(DecodeRelationInfo(&in).status().IsCorruption())
        << attrs.size() << " declarations";
    // Every cut of a valid entry is Corruption too.
    info.indexed_attrs = {1};
    buf.clear();
    EncodeRelationInfo(info, &buf);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      std::string_view part(buf.data(), cut);
      EXPECT_TRUE(DecodeRelationInfo(&part).status().IsCorruption()) << cut;
    }
  }
}

}  // namespace
}  // namespace temporadb
