#include "explore/allocation_enum.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "flex/activatability.hpp"
#include "spec/compiled.hpp"

namespace sdf {

namespace {

double entry_cost(const std::uint64_t* e) {
  return std::bit_cast<double>(e[0]);
}

/// Calls `fn(unit)` for every member bit of `words`, ascending.
template <typename Fn>
void for_each_member(const std::uint64_t* words, std::size_t count, Fn&& fn) {
  for (std::size_t w = 0; w < count; ++w)
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
      fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
}

/// First unit a child of the entry may add: one above its highest member.
std::size_t first_child_unit(const std::uint64_t* words, std::size_t count) {
  for (std::size_t w = count; w-- > 0;)
    if (words[w] != 0) return w * 64 + 64 - std::countl_zero(words[w]);
  return 0;
}

}  // namespace

CostOrderedAllocations::CostOrderedAllocations(const CompiledSpec& cs)
    : CostOrderedAllocations(cs, cs.make_alloc_set()) {}

CostOrderedAllocations::CostOrderedAllocations(const CompiledSpec& cs,
                                               AllocSet base)
    : base_(std::move(base)) {
  const auto& units = cs.units();
  unit_cost_.reserve(units.size());
  // Units already in the base are never re-added: give them an effectively
  // infinite price and skip them during expansion (see next()).
  for (const AllocUnit& u : units)
    unit_cost_.push_back(base_.test(u.id.index()) ? -1.0 : u.cost);
  words_ = std::max<std::size_t>(1, (units.size() + 63) / 64);
  stride_ = 1 + words_;
  popped_.resize(stride_);
  child_.resize(stride_);
  if (base_.any()) {
    base_words_.assign(words_, 0);
    std::copy(base_.words().begin(), base_.words().end(), base_words_.begin());
    alloc_.resize(words_);
  }
  heap_.assign(stride_, 0);  // the empty subset at cost 0
  size_ = 1;
}

CostOrderedAllocations::CostOrderedAllocations(const SpecificationGraph& spec)
    : CostOrderedAllocations(spec.compiled()) {}

CostOrderedAllocations::CostOrderedAllocations(const SpecificationGraph& spec,
                                               AllocSet base)
    : CostOrderedAllocations(spec.compiled(), std::move(base)) {}

// (cost, lex) order over the ascending member lists, computed on the words.
// Below x, the lowest differing unit, both lists agree.  If x is in `a`,
// `a` continues with x while `b` continues with its next member above x —
// or ends, which makes `b` a prefix of `a`.  Symmetrically otherwise.
bool CostOrderedAllocations::less(const std::uint64_t* a,
                                  const std::uint64_t* b) const {
  const double ca = entry_cost(a);
  const double cb = entry_cost(b);
  if (ca != cb) return ca < cb;
  const std::uint64_t* wa = a + 1;
  const std::uint64_t* wb = b + 1;
  for (std::size_t w = 0; w < words_; ++w) {
    const std::uint64_t diff = wa[w] ^ wb[w];
    if (diff == 0) continue;
    const std::uint64_t x = diff & (~diff + 1);
    const std::uint64_t above = ~(x | (x - 1));
    auto has_above = [&](const std::uint64_t* v) {
      if ((v[w] & above) != 0) return true;
      for (std::size_t k = w + 1; k < words_; ++k)
        if (v[k] != 0) return true;
      return false;
    };
    return (wa[w] & x) != 0 ? has_above(wb) : !has_above(wa);
  }
  return false;  // the same subset
}

void CostOrderedAllocations::push(const std::uint64_t* e) {
  heap_.resize((size_ + 1) * stride_);
  std::size_t i = size_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!less(e, entry(parent))) break;
    std::copy_n(entry(parent), stride_, entry(i));
    i = parent;
  }
  std::copy_n(e, stride_, entry(i));
}

void CostOrderedAllocations::sift_down(std::size_t i, const std::uint64_t* e) {
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= size_) break;
    const std::size_t last = std::min(first + kArity, size_);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (less(entry(c), entry(best))) best = c;
    if (!less(entry(best), e)) break;
    std::copy_n(entry(best), stride_, entry(i));
    i = best;
  }
  std::copy_n(e, stride_, entry(i));
}

AllocSet CostOrderedAllocations::to_set(const std::uint64_t* e) const {
  AllocSet s = base_;
  for_each_member(e + 1, words_, [&](std::uint32_t i) { s.set(i); });
  return s;
}

bool CostOrderedAllocations::pop() {
  if (size_ == 0) return false;
  std::copy_n(entry(0), stride_, popped_.data());
  --size_;
  if (size_ > 0) {
    std::copy_n(entry(size_), stride_, child_.data());
    sift_down(0, child_.data());
  }
  heap_.resize(size_ * stride_);
  const std::uint64_t* members = popped_.data() + 1;

  // Expand: children add one unit with an index above the last added one.
  // Each subset is generated exactly once (by ascending-index insertion) and
  // children never cost less than their parent, so the priority queue yields
  // global (cost, lex) order.
  const std::size_t n = unit_cost_.size();
  const std::size_t begin = first_child_unit(members, words_);
  bool expand = true;
  if (keep_ && begin < n) {
    potential_ = base_;
    for_each_member(members, words_,
                    [&](std::uint32_t i) { potential_.set(i); });
    for (std::size_t j = begin; j < n; ++j) potential_.set(j);
    if (!keep_(potential_)) {
      expand = false;
      ++pruned_;
    }
  }
  if (expand) {
    const double cost = entry_cost(popped_.data());
    for (std::size_t j = begin; j < n; ++j) {
      if (unit_cost_[j] < 0.0) continue;  // already in the frozen base
      std::copy_n(popped_.data(), stride_, child_.data());
      child_[0] = std::bit_cast<std::uint64_t>(cost + unit_cost_[j]);
      child_[1 + j / 64] |= std::uint64_t{1} << (j % 64);
      push(child_.data());
    }
  }

  ++emitted_;
  return true;
}

std::optional<AllocSet> CostOrderedAllocations::next() {
  if (!pop()) return std::nullopt;
  return to_set(popped_.data());
}

std::optional<AllocSet> CostOrderedAllocations::next_undominated(
    const DominanceContext& ctx, std::uint64_t max_skipped,
    std::uint64_t& skipped) {
  SDF_CHECK(ctx.words <= words_, "dominance context of another universe");
  skipped = 0;
  while (skipped < max_skipped && pop()) {
    const std::uint64_t* added = popped_.data() + 1;
    const std::uint64_t* alloc = added;
    if (!base_words_.empty()) {
      for (std::size_t w = 0; w < words_; ++w)
        alloc_[w] = base_words_[w] | added[w];
      alloc = alloc_.data();
    }
    if (!ctx.dominated(alloc, added)) return to_set(popped_.data());
    ++skipped;
  }
  return std::nullopt;
}

std::optional<double> CostOrderedAllocations::peek_cost() const {
  if (size_ == 0) return std::nullopt;
  return entry_cost(entry(0));
}

EnumCursor CostOrderedAllocations::cursor() const {
  // Canonical (pop) order, not heap-layout order: makes the serialized
  // cursor independent of the insertion history that produced it.  Sorting
  // (cost, entry) keys keeps most comparisons off the entries themselves.
  std::vector<std::pair<double, std::uint32_t>> order;
  order.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i)
    order.emplace_back(entry_cost(entry(i)), static_cast<std::uint32_t>(i));
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return less(entry(a.second), entry(b.second));
  });
  EnumCursor c;
  c.frontier.resize(size_);
  for (std::size_t k = 0; k < size_; ++k) {
    const std::uint64_t* e = entry(order[k].second);
    EnumCursor::State& state = c.frontier[k];
    state.cost = entry_cost(e);
    std::size_t count = 0;
    for (std::size_t w = 1; w <= words_; ++w) count += std::popcount(e[w]);
    state.members.reserve(count);
    for_each_member(e + 1, words_,
                    [&](std::uint32_t i) { state.members.push_back(i); });
    state.max_index = state.members.empty() ? static_cast<std::uint32_t>(-1)
                                            : state.members.back();
  }
  c.emitted = emitted_;
  c.pruned = pruned_;
  return c;
}

void CostOrderedAllocations::restore(const EnumCursor& cursor) {
  size_ = cursor.frontier.size();
  heap_.assign(size_ * stride_, 0);
  for (std::size_t k = 0; k < size_; ++k) {
    const EnumCursor::State& state = cursor.frontier[k];
    std::uint64_t* e = entry(k);
    e[0] = std::bit_cast<std::uint64_t>(state.cost);
    for (std::uint32_t j : state.members) {
      SDF_CHECK(j < unit_cost_.size(), "cursor unit outside the universe");
      e[1 + j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
  // Floyd's heapify: sift every parent down, the last one first.
  for (std::size_t i = size_ > 1 ? (size_ - 2) / kArity + 1 : 0; i-- > 0;) {
    std::copy_n(entry(i), stride_, child_.data());
    sift_down(i, child_.data());
  }
  emitted_ = cursor.emitted;
  pruned_ = cursor.pruned;
}

DominanceContext::DominanceContext(const CompiledSpec& cs)
    : words((cs.unit_count() + 63) / 64),
      unmappable(words, 0),
      comm(words, 0),
      endpoint_begin(cs.unit_count() + 1, 0) {
  const auto& units = cs.units();
  auto set_bit = [](std::vector<std::uint64_t>& v, std::size_t offset,
                    std::size_t i) {
    v[offset + i / 64] |= std::uint64_t{1} << (i % 64);
  };
  // Functional units by top-level architecture node: a bus endpoint counts
  // when any of them is allocated.
  std::vector<std::vector<std::size_t>> functional_on(
      cs.architecture().node_count());
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].is_comm) {
      set_bit(comm, 0, i);
      continue;
    }
    if (!cs.mappable_units().test(i)) set_bit(unmappable, 0, i);
    functional_on[units[i].top.index()].push_back(i);
  }
  std::uint32_t masks = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    endpoint_begin[i] = masks;
    if (!units[i].is_comm) continue;
    for (NodeId top : cs.comm_neighbor_tops(AllocUnitId{i})) {
      const auto& on_top = functional_on[top.index()];
      if (on_top.empty()) continue;  // can never be an allocated endpoint
      endpoints.resize(endpoints.size() + words, 0);
      for (std::size_t f : on_top) set_bit(endpoints, masks * words, f);
      ++masks;
    }
  }
  endpoint_begin[units.size()] = masks;
}

DominanceContext::DominanceContext(const SpecificationGraph& spec)
    : DominanceContext(spec.compiled()) {}

bool DominanceContext::dominated(const std::uint64_t* alloc,
                                 const std::uint64_t* scope) const {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t judged = alloc[w] & scope[w];
    // Functional unit no process can ever execute on.
    if ((judged & unmappable[w]) != 0) return true;
    // Dangling bus: fewer than two distinct allocated functional endpoints
    // adjacent by architecture edges.
    for (std::uint64_t bits = judged & comm[w]; bits != 0; bits &= bits - 1) {
      const std::size_t u = w * 64 + std::countr_zero(bits);
      std::size_t met = 0;
      for (std::uint32_t k = endpoint_begin[u];
           k < endpoint_begin[u + 1] && met < 2; ++k) {
        const std::uint64_t* mask = endpoints.data() + k * words;
        for (std::size_t x = 0; x < words; ++x) {
          if ((alloc[x] & mask[x]) != 0) {
            ++met;
            break;
          }
        }
      }
      if (met < 2) return true;
    }
  }
  return false;
}

bool obviously_dominated(const CompiledSpec& cs, const DominanceContext& ctx,
                         const AllocSet& alloc, const AllocSet* scope) {
  SDF_CHECK(alloc.size() == cs.unit_count() &&
                (scope == nullptr || scope->size() == alloc.size()),
            "allocation outside the unit universe");
  const std::uint64_t* words = alloc.words().data();
  return ctx.dominated(words, scope != nullptr ? scope->words().data() : words);
}

bool obviously_dominated(const SpecificationGraph& spec,
                         const DominanceContext& ctx, const AllocSet& alloc,
                         const AllocSet* scope) {
  return obviously_dominated(spec.compiled(), ctx, alloc, scope);
}

bool obviously_dominated(const SpecificationGraph& spec,
                         const AllocSet& alloc, const AllocSet* scope) {
  const CompiledSpec& cs = spec.compiled();
  return obviously_dominated(cs, DominanceContext(cs), alloc, scope);
}

std::vector<AllocSet> enumerate_possible_allocations(
    const CompiledSpec& cs, bool apply_dominance_filter,
    std::size_t max_universe) {
  const std::size_t n = cs.unit_count();
  SDF_CHECK(n <= max_universe,
            "unit universe too large for eager enumeration");

  std::vector<AllocSet> out;
  const DominanceContext ctx(cs);
  CostOrderedAllocations stream(cs);
  while (std::optional<AllocSet> a = stream.next()) {
    if (a->none()) continue;
    if (apply_dominance_filter && obviously_dominated(cs, ctx, *a)) continue;
    if (!is_possible_allocation(cs, *a)) continue;
    out.push_back(std::move(*a));
  }
  return out;
}

std::vector<AllocSet> enumerate_possible_allocations(
    const SpecificationGraph& spec, bool apply_dominance_filter,
    std::size_t max_universe) {
  return enumerate_possible_allocations(spec.compiled(),
                                        apply_dominance_filter, max_universe);
}

}  // namespace sdf
