// Open-addressing hash map for integer keys on simulator hot paths.
//
// The SAN resolves a message handler on every single delivery; with
// std::unordered_map that lookup is a bucket-pointer chase per hop, and the
// front end, the playback engine and the trace collector would allocate a
// node for every request, op and trace. FlatMap keeps a compact index (key, value position, state) in
// one flat array with linear probing, so the common hit touches one or two
// cache lines, and the values in a dense array whose erased positions are
// recycled by later insertions: a table of short-lived entries (request ids
// inserted and erased in turn) stops allocating once it has seen its peak
// number of live entries, and a rehash moves index entries, never values.
//
// Deliberately minimal: integer keys only, values must be default-
// constructible and movable, and a pointer to a value stays valid until the
// next insertion (erasing other keys never moves it). Iteration order is
// unspecified — callers needing deterministic order must sort (the SAN only
// iterates for shutdown-style bookkeeping, never on delivery paths).

#ifndef SRC_UTIL_FLAT_MAP_H_
#define SRC_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace sns {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K> && sizeof(K) <= 8,
                "FlatMap supports integer keys only");

 public:
  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Inserts or overwrites; returns the stored value.
  V& Set(K key, V value) {
    if ((size_ + tombstones_ + 1) * 4 >= capacity() * 3) Rehash();
    size_t i = FindSlot(key);
    Slot& s = slots_[i];
    if (s.state == kFull) {
      values_[s.pos] = std::move(value);
      return values_[s.pos];
    }
    if (s.state == kTombstone) --tombstones_;
    s.state = kFull;
    s.key = key;
    if (free_.empty()) {
      s.pos = static_cast<uint32_t>(values_.size());
      values_.push_back(std::move(value));
    } else {
      s.pos = free_.back();
      free_.pop_back();
      values_[s.pos] = std::move(value);
    }
    ++size_;
    return values_[s.pos];
  }

  V* Find(K key) {
    if (capacity() == 0) return nullptr;
    size_t mask = capacity() - 1;
    size_t i = Hash(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) return nullptr;
      if (s.state == kFull && s.key == key) return &values_[s.pos];
      i = (i + 1) & mask;
    }
  }
  const V* Find(K key) const { return const_cast<FlatMap*>(this)->Find(key); }

  bool Erase(K key) {
    if (capacity() == 0) return false;
    size_t mask = capacity() - 1;
    size_t i = Hash(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) return false;
      if (s.state == kFull && s.key == key) {
        Release(s);
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  // Erases every entry for which pred(key, value) is true; returns the count.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (Slot& s : slots_) {
      if (s.state == kFull && pred(s.key, values_[s.pos])) {
        Release(s);
        ++erased;
      }
    }
    return erased;
  }

  void Clear() {
    slots_.clear();
    spare_slots_.clear();
    values_.clear();
    free_.clear();
    size_ = 0;
    tombstones_ = 0;
  }

 private:
  enum State : uint8_t { kEmpty = 0, kTombstone, kFull };
  struct Slot {
    K key{};
    uint32_t pos = 0;  // Index into values_ while kFull.
    State state = kEmpty;
  };

  size_t capacity() const { return slots_.size(); }

  static size_t Hash(K key) {
    // splitmix64 finalizer: cheap, full-avalanche mixing for sequential ids.
    uint64_t x = static_cast<uint64_t>(key);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }

  // Tombstones the slot and recycles its value position (the value is reset
  // so it releases what it holds now, not when the position is reused).
  void Release(Slot& s) {
    values_[s.pos] = V();
    free_.push_back(s.pos);
    s.state = kTombstone;
    --size_;
    ++tombstones_;
  }

  // First matching-or-insertable slot for `key` (prefers a tombstone on miss).
  size_t FindSlot(K key) const {
    size_t mask = capacity() - 1;
    size_t i = Hash(key) & mask;
    size_t first_tomb = SIZE_MAX;
    while (true) {
      const Slot& s = slots_[i];
      if (s.state == kFull && s.key == key) return i;
      if (s.state == kTombstone && first_tomb == SIZE_MAX) first_tomb = i;
      if (s.state == kEmpty) return first_tomb != SIZE_MAX ? first_tomb : i;
      i = (i + 1) & mask;
    }
  }

  // Rebuilds the index without tombstones: at twice the capacity when live
  // entries would fill more than a quarter of it, at the same capacity
  // otherwise, so churn through a table of few live entries keeps its size
  // bounded by the peak live count rather than by the number ever inserted.
  // The index is rebuilt into the spare array, so a same-capacity rehash
  // allocates nothing.
  void Rehash() {
    size_t new_cap = capacity() == 0             ? 16
                     : (size_ + 1) * 4 > capacity() ? capacity() * 2
                                                  : capacity();
    spare_slots_.assign(new_cap, Slot{});
    size_t mask = new_cap - 1;
    for (const Slot& s : slots_) {
      if (s.state != kFull) continue;
      size_t i = Hash(s.key) & mask;
      while (spare_slots_[i].state == kFull) i = (i + 1) & mask;
      spare_slots_[i] = s;
    }
    slots_.swap(spare_slots_);
    // Size the spare for the next rehash now, while the table is growing
    // anyway, rather than on the first same-capacity rehash.
    spare_slots_.reserve(new_cap);
    tombstones_ = 0;
  }

  std::vector<Slot> slots_;
  std::vector<Slot> spare_slots_;  // Same capacity as slots_; contents unused.
  std::vector<V> values_;        // Live values and reset, recycled positions.
  std::vector<uint32_t> free_;   // Positions in values_ free for reuse.
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace sns

#endif  // SRC_UTIL_FLAT_MAP_H_
