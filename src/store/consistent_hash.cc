#include "src/store/consistent_hash.h"

#include <algorithm>

#include "src/util/strings.h"

namespace sns {

uint64_t ConsistentHashRing::PointHash(int64_t member, int vnode) const {
  if (point_hash_) {
    return point_hash_(member, vnode);
  }
  char buf[32];
  // Mix member and vnode through FNV for well-spread ring points.
  std::snprintf(buf, sizeof(buf), "%lld#%d", static_cast<long long>(member), vnode);
  return Fnv1a(buf, std::char_traits<char>::length(buf));
}

void ConsistentHashRing::AddMember(int64_t member) {
  if (!members_.insert(member).second) {
    return;
  }
  for (int v = 0; v < vnodes_; ++v) {
    points_.emplace_back(PointHash(member, v), member);
  }
  // Two vnodes of one member may share a point; the pair is kept once.
  std::sort(points_.begin(), points_.end());
  points_.erase(std::unique(points_.begin(), points_.end()), points_.end());
}

void ConsistentHashRing::RemoveMember(int64_t member) {
  if (members_.erase(member) == 0) {
    return;
  }
  std::erase_if(points_, [member](const Point& p) { return p.second == member; });
}

std::vector<int64_t> ConsistentHashRing::Members() const {
  return std::vector<int64_t>(members_.begin(), members_.end());
}

std::optional<int64_t> ConsistentHashRing::Lookup(const std::string& key) const {
  return LookupHash(Fnv1a(key));
}

size_t ConsistentHashRing::FirstAtOrAfter(uint64_t hash) const {
  auto it = std::lower_bound(points_.begin(), points_.end(), Point{hash, INT64_MIN});
  return it == points_.end() ? 0 : static_cast<size_t>(it - points_.begin());
}

std::optional<int64_t> ConsistentHashRing::LookupHash(uint64_t hash) const {
  if (points_.empty()) {
    return std::nullopt;
  }
  return points_[FirstAtOrAfter(hash)].second;
}

ConsistentHashRing::Chain ConsistentHashRing::LookupN(const std::string& key, size_t n) const {
  Chain out;
  if (points_.empty() || n == 0) {
    return out;
  }
  size_t i = FirstAtOrAfter(Fnv1a(key));
  for (size_t visited = 0; out.size() < n && visited < points_.size(); ++visited) {
    int64_t member = points_[i].second;
    if (std::find(out.begin(), out.end(), member) == out.end()) {
      out.push_back(member);
    }
    if (++i == points_.size()) {
      i = 0;  // Wrap around.
    }
  }
  return out;
}

}  // namespace sns
