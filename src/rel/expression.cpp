#include "rel/expression.h"

#include <cmath>
#include <limits>

#include "common/strings.h"

namespace temporadb {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "mod";
  }
  return "?";
}

namespace {

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}

  Result<Value> Eval(const std::vector<Value>&) const override {
    return value_;
  }

  std::string ToString() const override {
    if (value_.type() == ValueType::kString) {
      return "\"" + value_.ToString() + "\"";
    }
    return value_.ToString();
  }

 private:
  Value value_;
};

class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  Result<Value> Eval(const std::vector<Value>& values) const override {
    if (index_ >= values.size()) {
      return Status::Internal(StringPrintf(
          "column index %zu out of range (row arity %zu)", index_,
          values.size()));
    }
    return values[index_];
  }

  std::string ToString() const override { return name_; }

 private:
  size_t index_;
  std::string name_;
};

class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Result<Value> Eval(const std::vector<Value>& values) const override {
    TDB_ASSIGN_OR_RETURN(Value l, left_->Eval(values));
    TDB_ASSIGN_OR_RETURN(Value r, right_->Eval(values));
    TDB_ASSIGN_OR_RETURN(int c, Value::Compare(l, r));
    switch (op_) {
      case CompareOp::kEq:
        return Value(c == 0);
      case CompareOp::kNe:
        return Value(c != 0);
      case CompareOp::kLt:
        return Value(c < 0);
      case CompareOp::kLe:
        return Value(c <= 0);
      case CompareOp::kGt:
        return Value(c > 0);
      case CompareOp::kGe:
        return Value(c >= 0);
    }
    return Status::Internal("unhandled compare op");
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + " " +
           std::string(CompareOpName(op_)) + " " + right_->ToString() + ")";
  }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Result<Value> Eval(const std::vector<Value>& values) const override {
    TDB_ASSIGN_OR_RETURN(Value l, left_->Eval(values));
    TDB_ASSIGN_OR_RETURN(Value r, right_->Eval(values));
    bool int_math =
        l.type() == ValueType::kInt && r.type() == ValueType::kInt;
    if (int_math) {
      // int64 arithmetic is checked: signed overflow is an error, not UB.
      const int64_t a = l.AsInt(), b = r.AsInt();
      int64_t out = 0;
      bool overflow = false;
      switch (op_) {
        case ArithOp::kAdd:
          overflow = __builtin_add_overflow(a, b, &out);
          break;
        case ArithOp::kSub:
          overflow = __builtin_sub_overflow(a, b, &out);
          break;
        case ArithOp::kMul:
          overflow = __builtin_mul_overflow(a, b, &out);
          break;
        case ArithOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
          if (!overflow) out = a / b;
          break;
        case ArithOp::kMod:
          if (b == 0) return Status::InvalidArgument("mod by zero");
          out = b == -1 ? 0 : a % b;  // INT64_MIN % -1 traps on x86.
          break;
      }
      if (overflow) return Status::InvalidArgument("integer overflow");
      return Value(out);
    }
    TDB_ASSIGN_OR_RETURN(double a, l.AsNumeric());
    TDB_ASSIGN_OR_RETURN(double b, r.AsNumeric());
    switch (op_) {
      case ArithOp::kAdd:
        return Value(a + b);
      case ArithOp::kSub:
        return Value(a - b);
      case ArithOp::kMul:
        return Value(a * b);
      case ArithOp::kDiv:
        if (b == 0.0) return Status::InvalidArgument("division by zero");
        return Value(a / b);
      case ArithOp::kMod:
        if (b == 0.0) return Status::InvalidArgument("mod by zero");
        return Value(std::fmod(a, b));
    }
    return Status::Internal("unhandled arith op");
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + " " + std::string(ArithOpName(op_)) +
           " " + right_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class LogicalExpr final : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Result<Value> Eval(const std::vector<Value>& values) const override {
    TDB_ASSIGN_OR_RETURN(Value l, left_->Eval(values));
    TDB_ASSIGN_OR_RETURN(Value r, right_->Eval(values));
    if (l.type() != ValueType::kBool || r.type() != ValueType::kBool) {
      return Status::InvalidArgument("logical operand is not boolean");
    }
    return Value(op_ == LogicalOp::kAnd ? (l.AsBool() && r.AsBool())
                                        : (l.AsBool() || r.AsBool()));
  }

  std::string ToString() const override {
    return "(" + left_->ToString() +
           (op_ == LogicalOp::kAnd ? " and " : " or ") + right_->ToString() +
           ")";
  }

 private:
  LogicalOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr inner) : inner_(std::move(inner)) {}

  Result<Value> Eval(const std::vector<Value>& values) const override {
    TDB_ASSIGN_OR_RETURN(Value v, inner_->Eval(values));
    if (v.type() != ValueType::kBool) {
      return Status::InvalidArgument("'not' operand is not boolean");
    }
    return Value(!v.AsBool());
  }

  std::string ToString() const override {
    return "not " + inner_->ToString();
  }

 private:
  ExprPtr inner_;
};

}  // namespace

ExprPtr MakeLiteral(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}

ExprPtr MakeColumnRef(size_t index, std::string display_name) {
  return std::make_shared<ColumnRefExpr>(index, std::move(display_name));
}

ExprPtr MakeCompare(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<CompareExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeArith(ArithOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ArithExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeLogical(LogicalOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<LogicalExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeNot(ExprPtr inner) {
  return std::make_shared<NotExpr>(std::move(inner));
}

Result<bool> EvalPredicate(const Expr& expr,
                           const std::vector<Value>& values) {
  TDB_ASSIGN_OR_RETURN(Value v, expr.Eval(values));
  if (v.type() != ValueType::kBool) {
    return Status::InvalidArgument("predicate did not evaluate to a boolean");
  }
  return v.AsBool();
}

}  // namespace temporadb
