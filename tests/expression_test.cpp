#include "rel/expression.h"

#include <gtest/gtest.h>

#include <limits>

namespace temporadb {
namespace {

std::vector<Value> Row3() {
  return {Value("Merrie"), Value(int64_t{40000}), Value(2.5)};
}

TEST(Expression, LiteralEvaluates) {
  ExprPtr e = MakeLiteral(Value(int64_t{7}));
  EXPECT_EQ(e->Eval({})->AsInt(), 7);
  EXPECT_EQ(e->ToString(), "7");
  EXPECT_EQ(MakeLiteral(Value("s"))->ToString(), "\"s\"");
}

TEST(Expression, ColumnRef) {
  ExprPtr e = MakeColumnRef(0, "f.name");
  EXPECT_EQ(e->Eval(Row3())->AsString(), "Merrie");
  EXPECT_EQ(e->ToString(), "f.name");
  EXPECT_FALSE(MakeColumnRef(9, "oops")->Eval(Row3()).ok());
}

TEST(Expression, Comparisons) {
  auto cmp = [&](CompareOp op, Value l, Value r) {
    return MakeCompare(op, MakeLiteral(l), MakeLiteral(r))->Eval({})->AsBool();
  };
  EXPECT_TRUE(cmp(CompareOp::kEq, Value(int64_t{3}), Value(int64_t{3})));
  EXPECT_TRUE(cmp(CompareOp::kNe, Value("a"), Value("b")));
  EXPECT_TRUE(cmp(CompareOp::kLt, Value(int64_t{2}), Value(2.5)));
  EXPECT_TRUE(cmp(CompareOp::kLe, Value(int64_t{2}), Value(int64_t{2})));
  EXPECT_TRUE(cmp(CompareOp::kGt, Value("b"), Value("a")));
  EXPECT_TRUE(cmp(CompareOp::kGe, Value(2.5), Value(2.5)));
  EXPECT_FALSE(cmp(CompareOp::kLt, Value(int64_t{5}), Value(int64_t{2})));
}

TEST(Expression, ComparisonTypeErrors) {
  ExprPtr e = MakeCompare(CompareOp::kEq, MakeLiteral(Value("s")),
                          MakeLiteral(Value(int64_t{1})));
  EXPECT_FALSE(e->Eval({}).ok());
}

TEST(Expression, IntArithmetic) {
  auto arith = [&](ArithOp op, int64_t l, int64_t r) {
    return MakeArith(op, MakeLiteral(Value(l)), MakeLiteral(Value(r)))
        ->Eval({});
  };
  EXPECT_EQ(arith(ArithOp::kAdd, 2, 3)->AsInt(), 5);
  EXPECT_EQ(arith(ArithOp::kSub, 2, 3)->AsInt(), -1);
  EXPECT_EQ(arith(ArithOp::kMul, 4, 3)->AsInt(), 12);
  EXPECT_EQ(arith(ArithOp::kDiv, 7, 2)->AsInt(), 3);
  EXPECT_EQ(arith(ArithOp::kMod, 7, 2)->AsInt(), 1);
  EXPECT_FALSE(arith(ArithOp::kDiv, 1, 0).ok());
  EXPECT_FALSE(arith(ArithOp::kMod, 1, 0).ok());
}

TEST(Expression, IntOverflowIsAnError) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto arith = [&](ArithOp op, int64_t l, int64_t r) {
    return MakeArith(op, MakeLiteral(Value(l)), MakeLiteral(Value(r)))
        ->Eval({});
  };
  for (const Result<Value>& r :
       {arith(ArithOp::kAdd, kMax, 1), arith(ArithOp::kSub, kMin, 1),
        arith(ArithOp::kMul, kMax, 2), arith(ArithOp::kDiv, kMin, -1)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), "integer overflow");
  }
  // The edges themselves still evaluate.
  EXPECT_EQ(arith(ArithOp::kAdd, kMax - 1, 1)->AsInt(), kMax);
  EXPECT_EQ(arith(ArithOp::kSub, kMin + 1, 1)->AsInt(), kMin);
  EXPECT_EQ(arith(ArithOp::kMod, kMin, -1)->AsInt(), 0);
}

TEST(Expression, FloatArithmeticPromotes) {
  ExprPtr e = MakeArith(ArithOp::kMul, MakeLiteral(Value(int64_t{40000})),
                        MakeLiteral(Value(1.1)));
  Result<Value> v = e->Eval({});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), ValueType::kFloat);
  EXPECT_NEAR(v->AsFloat(), 44000.0, 1e-6);
}

TEST(Expression, LogicalOps) {
  ExprPtr t = MakeLiteral(Value(true));
  ExprPtr f = MakeLiteral(Value(false));
  EXPECT_TRUE(MakeLogical(LogicalOp::kAnd, t, t)->Eval({})->AsBool());
  EXPECT_FALSE(MakeLogical(LogicalOp::kAnd, t, f)->Eval({})->AsBool());
  EXPECT_TRUE(MakeLogical(LogicalOp::kOr, f, t)->Eval({})->AsBool());
  EXPECT_FALSE(MakeLogical(LogicalOp::kOr, f, f)->Eval({})->AsBool());
  EXPECT_FALSE(MakeNot(t)->Eval({})->AsBool());
  EXPECT_TRUE(MakeNot(f)->Eval({})->AsBool());
  // Non-boolean operands are errors.
  EXPECT_FALSE(
      MakeLogical(LogicalOp::kAnd, t, MakeLiteral(Value(int64_t{1})))
          ->Eval({})
          .ok());
  EXPECT_FALSE(MakeNot(MakeLiteral(Value(int64_t{1})))->Eval({}).ok());
}

TEST(Expression, ComposedPredicate) {
  // name = "Merrie" and salary * 1.1 > 42000
  ExprPtr pred = MakeLogical(
      LogicalOp::kAnd,
      MakeCompare(CompareOp::kEq, MakeColumnRef(0, "name"),
                  MakeLiteral(Value("Merrie"))),
      MakeCompare(CompareOp::kGt,
                  MakeArith(ArithOp::kMul, MakeColumnRef(1, "salary"),
                            MakeLiteral(Value(1.1))),
                  MakeLiteral(Value(int64_t{42000}))));
  Result<bool> b = EvalPredicate(*pred, Row3());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
  std::vector<Value> other{Value("Tom"), Value(int64_t{40000}), Value(0.0)};
  EXPECT_FALSE(*EvalPredicate(*pred, other));
}

TEST(Expression, EvalPredicateRequiresBool) {
  EXPECT_FALSE(EvalPredicate(*MakeLiteral(Value(int64_t{1})), {}).ok());
}

TEST(Expression, DateComparisons) {
  Value d1{*Date::Parse("09/01/77")};
  Value d2{*Date::Parse("12/01/82")};
  EXPECT_TRUE(MakeCompare(CompareOp::kLt, MakeLiteral(d1), MakeLiteral(d2))
                  ->Eval({})
                  ->AsBool());
}

TEST(Expression, ToStringReadable) {
  ExprPtr e = MakeCompare(CompareOp::kGe, MakeColumnRef(1, "salary"),
                          MakeLiteral(Value(int64_t{10})));
  EXPECT_EQ(e->ToString(), "(salary >= 10)");
  EXPECT_EQ(MakeNot(e)->ToString(), "not (salary >= 10)");
}

}  // namespace
}  // namespace temporadb
