// Deterministic visiting order over hash maps, for checkpoint serializers.
//
// Hash-map iteration order is the slot order (common/flat_map.h), so a
// serializer that must write the same bytes for the same state visits
// entries in key order instead. SortedEntries collects pointers to the
// entries in one pass and sorts them by key: each entry is then read
// through its pointer, never looked up again.

#ifndef SGQ_COMMON_SORTED_ENTRIES_H_
#define SGQ_COMMON_SORTED_ENTRIES_H_

#include <algorithm>
#include <functional>
#include <vector>

namespace sgq {

/// \brief Pointers to the entries (key/value pairs) of `map`, ordered by
/// key under `less`. Keys are unique, so the order is total. The pointers
/// are valid until the map is next modified.
template <typename Map, typename Less = std::less<>>
std::vector<const typename Map::value_type*> SortedEntries(const Map& map,
                                                           Less less = {}) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [&less](const auto* a, const auto* b) {
              return less(a->first, b->first);
            });
  return entries;
}

}  // namespace sgq

#endif  // SGQ_COMMON_SORTED_ENTRIES_H_
