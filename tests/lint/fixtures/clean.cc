// Fixture: idiomatic deterministic code — the linter must report nothing.
// Unordered containers used for membership/lookup only, ordered iteration
// over value-keyed containers, comments mentioning rand() and
// steady_clock::now(), and string literals containing "thread_local".
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

int MembershipOnly(const std::vector<int>& values) {
  const std::unordered_set<int> seen(values.begin(), values.end());
  int hits = 0;
  for (int v : values) hits += seen.count(v);  // iterates the vector
  return hits;
}

int LookupOnly(const std::unordered_map<std::string, int>& index,
               const std::vector<std::string>& keys) {
  int total = 0;
  for (const std::string& key : keys) {
    auto it = index.find(key);
    if (it != index.end()) total += it->second;
  }
  return total;
}

int OrderedIterationIsFine() {
  std::map<std::string, int> by_name{{"a", 1}, {"b", 2}};
  int total = 0;
  for (const auto& [name, value] : by_name) total += value + name.size();
  return total;
}

const char* MentionsBannedNamesInComments() {
  // Never call rand() or steady_clock::now() in engine code; route through
  // util/rng and util/stopwatch. thread_local belongs in util/lock_rank.cc.
  return "rand() time() thread_local std::random_device";
}
