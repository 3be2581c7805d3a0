#ifndef TDB_COLLECTION_INDEXER_H_
#define TDB_COLLECTION_INDEXER_H_

#include <functional>
#include <memory>
#include <string>

#include "collection/key.h"
#include "common/result.h"
#include "object/object.h"

namespace tdb::collection {

/// Physical organization of an index (§5.2.4).
enum class IndexKind : uint8_t {
  kBTree = 1,      // Ordered; supports scan, exact-match, range.
  kHashTable = 2,  // Larson dynamic hashing; scan and exact-match.
  kList = 3,       // Unordered list; scan, exact and range by linear walk.
};

enum class Uniqueness : uint8_t { kUnique = 1, kNonUnique = 2 };

/// §5.2.3: applications may declare an index's keys immutable, which lets
/// the collection store skip recording pre-update key snapshots for that
/// index and skip its maintenance at iterator close entirely.
enum class KeyMutability : uint8_t { kMutable = 1, kImmutable = 2 };

/// Type-erased view of an Indexer (§5.1.2: "all instances of the Indexer
/// class are required to inherit from non-templatized class GenericIndexer
/// to allow polymorphic access"). It carries the index's identity (name),
/// its organization, uniqueness, the functional key extractor, and the
/// runtime type checks for schema objects and query keys.
///
/// Confining all templates to Indexer keeps the rest of the collection
/// store untemplatized — the paper's defense against code bloat (§5.2.1).
class GenericIndexer {
 public:
  GenericIndexer(std::string name, Uniqueness uniqueness, IndexKind kind,
                 KeyMutability mutability = KeyMutability::kMutable)
      : name_(std::move(name)), uniqueness_(uniqueness), kind_(kind),
        mutability_(mutability) {}
  virtual ~GenericIndexer() = default;

  const std::string& name() const { return name_; }
  bool unique() const { return uniqueness_ == Uniqueness::kUnique; }
  bool immutable_keys() const {
    return mutability_ == KeyMutability::kImmutable;
  }
  IndexKind kind() const { return kind_; }

  /// Applies the extractor function. TypeMismatch if `obj` is not an
  /// instance of the collection schema class.
  virtual Result<std::unique_ptr<GenericKey>> ExtractKey(
      const object::Object& obj) const = 0;

  /// Appends the pickled key of `obj` (the bytes PickleKey would give for
  /// ExtractKey's result) to `pickler`, without a heap-allocated key.
  /// TypeMismatch if `obj` is not an instance of the schema class.
  virtual Status PickleKeyOf(const object::Object& obj,
                             object::Pickler* pickler) const = 0;

  /// Fresh key instance for unpickling stored keys.
  virtual std::unique_ptr<GenericKey> NewKey() const = 0;

  /// Runtime type checks (§5.2.1): objects inserted must subclass the
  /// schema class; query keys must match the index key class.
  virtual bool IsSchemaInstance(const object::Object& obj) const = 0;
  virtual bool IsKeyInstance(const GenericKey& key) const = 0;

 private:
  std::string name_;
  Uniqueness uniqueness_;
  IndexKind kind_;
  KeyMutability mutability_;
};

/// The only templatized class in the collection store (§5.2.1). `Schema`
/// is the collection schema class, `Key` the index key class; the
/// extractor must be a pure function of the object (§5.1.1).
template <typename Schema, typename Key>
class Indexer final : public GenericIndexer {
 public:
  static_assert(std::is_base_of_v<object::Object, Schema>,
                "Schema must derive from tdb::object::Object");
  static_assert(std::is_base_of_v<GenericKey, Key>,
                "Key must derive from tdb::collection::GenericKey");

  using Extractor = std::function<Key(const Schema&)>;

  Indexer(std::string name, Uniqueness uniqueness, IndexKind kind,
          Extractor extractor,
          KeyMutability mutability = KeyMutability::kMutable)
      : GenericIndexer(std::move(name), uniqueness, kind, mutability),
        extractor_(std::move(extractor)) {}

  Result<std::unique_ptr<GenericKey>> ExtractKey(
      const object::Object& obj) const override {
    const Schema* typed = dynamic_cast<const Schema*>(&obj);
    if (typed == nullptr) {
      return Status::TypeMismatch(
          "object is not an instance of the collection schema class");
    }
    return std::unique_ptr<GenericKey>(
        std::make_unique<Key>(extractor_(*typed)));
  }

  Status PickleKeyOf(const object::Object& obj,
                     object::Pickler* pickler) const override {
    const Schema* typed = dynamic_cast<const Schema*>(&obj);
    if (typed == nullptr) {
      return Status::TypeMismatch(
          "object is not an instance of the collection schema class");
    }
    extractor_(*typed).Pickle(pickler);
    return Status::OK();
  }

  std::unique_ptr<GenericKey> NewKey() const override {
    return std::make_unique<Key>();
  }

  bool IsSchemaInstance(const object::Object& obj) const override {
    return dynamic_cast<const Schema*>(&obj) != nullptr;
  }

  bool IsKeyInstance(const GenericKey& key) const override {
    return dynamic_cast<const Key*>(&key) != nullptr;
  }

 private:
  Extractor extractor_;
};

}  // namespace tdb::collection

#endif  // TDB_COLLECTION_INDEXER_H_
