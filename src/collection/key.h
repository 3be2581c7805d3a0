#ifndef TDB_COLLECTION_KEY_H_
#define TDB_COLLECTION_KEY_H_

#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/result.h"
#include "object/pickle.h"

namespace tdb::collection {

/// Base class of index keys (§5.1.2: "all index key classes are required
/// to inherit from the GenericKey class to allow polymorphic access").
/// Keys must be totally ordered (B-tree/list) and hashable (hash table).
class GenericKey {
 public:
  virtual ~GenericKey() = default;

  /// <0, 0, >0 like memcmp. `other` is guaranteed by the collection store
  /// to be the same concrete class (checked via the indexer).
  virtual int Compare(const GenericKey& other) const = 0;
  virtual uint64_t Hash() const = 0;
  virtual void Pickle(object::Pickler* pickler) const = 0;
  virtual Status UnpickleFrom(object::Unpickler* unpickler) = 0;
  virtual std::unique_ptr<GenericKey> Clone() const = 0;

  /// Compares a key of this class pickled in `stored` (consumed) against
  /// this key: <0, 0, >0 as the stored key is less than, equal to or
  /// greater than *this. Index lookups compare a query key against every
  /// stored key they pass, so the built-in keys decode in place; the
  /// default unpickles into a Clone().
  virtual Result<int> ComparePickled(object::Unpickler* stored) const;
};

/// Signed 64-bit integer key.
class IntKey final : public GenericKey {
 public:
  IntKey() = default;
  explicit IntKey(int64_t value) : value_(value) {}

  int Compare(const GenericKey& other) const override;
  uint64_t Hash() const override;
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  std::unique_ptr<GenericKey> Clone() const override {
    return std::make_unique<IntKey>(value_);
  }
  Result<int> ComparePickled(object::Unpickler* stored) const override;

  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Byte-string key (lexicographic order). Variable-sized keys are exactly
/// what offset-based embedded databases cannot index (§5.1.1).
class StringKey final : public GenericKey {
 public:
  StringKey() = default;
  explicit StringKey(std::string value) : value_(std::move(value)) {}

  int Compare(const GenericKey& other) const override;
  uint64_t Hash() const override;
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  std::unique_ptr<GenericKey> Clone() const override {
    return std::make_unique<StringKey>(value_);
  }
  Result<int> ComparePickled(object::Unpickler* stored) const override;

  const std::string& value() const { return value_; }

 private:
  std::string value_;
};

/// IEEE double key (total order with NaN sorting last).
class DoubleKey final : public GenericKey {
 public:
  DoubleKey() = default;
  explicit DoubleKey(double value) : value_(value) {}

  int Compare(const GenericKey& other) const override;
  uint64_t Hash() const override;
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  std::unique_ptr<GenericKey> Clone() const override {
    return std::make_unique<DoubleKey>(value_);
  }
  Result<int> ComparePickled(object::Unpickler* stored) const override;

  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Lexicographically ordered composite of several key components (§5.1.1:
/// unlike offset-based schemes, functional indexes can combine any number
/// of fields — including derived ones — into one key).
///
///   using AccountKey = CompositeKey<IntKey, StringKey>;
///   AccountKey k(IntKey(7), StringKey("alice"));
template <typename... Components>
class CompositeKey final : public GenericKey {
  static_assert(sizeof...(Components) >= 1, "at least one component");
  static_assert((std::is_base_of_v<GenericKey, Components> && ...),
                "components must derive from GenericKey");

 public:
  CompositeKey() = default;
  explicit CompositeKey(Components... components)
      : components_(std::move(components)...) {}

  int Compare(const GenericKey& other) const override {
    const auto& rhs = static_cast<const CompositeKey&>(other);
    return CompareFrom<0>(rhs);
  }

  uint64_t Hash() const override {
    uint64_t h = 1469598103934665603ull;
    std::apply(
        [&h](const Components&... c) {
          ((h = (h ^ c.Hash()) * 1099511628211ull), ...);
        },
        components_);
    return h;
  }

  void Pickle(object::Pickler* pickler) const override {
    std::apply([pickler](const Components&... c) { (c.Pickle(pickler), ...); },
               components_);
  }

  Status UnpickleFrom(object::Unpickler* unpickler) override {
    Status status = Status::OK();
    std::apply(
        [&](Components&... c) {
          ((status.ok() ? (status = c.UnpickleFrom(unpickler), 0) : 0), ...);
        },
        components_);
    return status;
  }

  std::unique_ptr<GenericKey> Clone() const override {
    return std::make_unique<CompositeKey>(*this);
  }

  Result<int> ComparePickled(object::Unpickler* stored) const override {
    return ComparePickledFrom<0>(stored);
  }

  template <size_t I>
  const auto& get() const {
    return std::get<I>(components_);
  }

 private:
  // Components are pickled in order; the first unequal one decides.
  template <size_t I>
  Result<int> ComparePickledFrom(object::Unpickler* stored) const {
    if constexpr (I == sizeof...(Components)) {
      return 0;
    } else {
      TDB_ASSIGN_OR_RETURN(int c,
                           std::get<I>(components_).ComparePickled(stored));
      if (c != 0) return c;
      return ComparePickledFrom<I + 1>(stored);
    }
  }

  template <size_t I>
  int CompareFrom(const CompositeKey& rhs) const {
    if constexpr (I == sizeof...(Components)) {
      return 0;
    } else {
      int c = std::get<I>(components_).Compare(std::get<I>(rhs.components_));
      if (c != 0) return c;
      return CompareFrom<I + 1>(rhs);
    }
  }

  std::tuple<Components...> components_;
};

/// Serializes a key to its pickled form (the representation stored in
/// index nodes).
Buffer PickleKey(const GenericKey& key);

}  // namespace tdb::collection

#endif  // TDB_COLLECTION_KEY_H_
