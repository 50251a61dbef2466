// Timed bindings (Def. 3) and their feasibility rules (§2).
//
// A binding maps each activated problem-graph leaf to one of its mapping
// edges.  Feasibility requires (for the activation instant under
// consideration):
//   1. every activated mapping edge starts and ends at activated vertices,
//   2. every activated problem leaf has exactly one activated mapping edge,
//   3. for every activated dependence edge (v_i, v_j) either both operations
//      are mapped onto the same resource, or an activated communication
//      resource connects the two resources.
//
// Rule 3's communication test is configurable (`CommModel`): the paper's
// strict reading (a direct architecture edge), the bus-mediated reading the
// examples use (uP - C1 - FPGA), or full multi-hop reachability.
#pragma once

#include <optional>
#include <vector>

#include "graph/flatten.hpp"
#include "spec/specification.hpp"

namespace sdf {

/// How rule 3 decides whether two allocated units can communicate.
enum class CommModel {
  /// Only a direct architecture edge between the units' top-level nodes.
  kDirectOnly,
  /// Direct edge, or one allocated communication vertex (bus) adjacent to
  /// both top-level nodes.  Matches the paper's examples; the default.
  kOneHopBus,
  /// Any path of allocated architecture nodes/edges.
  kAnyPath,
};

/// One activated mapping edge.
struct BindingAssignment {
  NodeId process;    ///< problem-graph leaf
  NodeId resource;   ///< architecture-graph leaf
  AllocUnitId unit;  ///< allocatable unit owning `resource`
  double latency = 0.0;
};

/// A (timed) binding: the set of activated mapping edges at one instant.
///
/// Copies share one immutable, reference-counted assignment buffer, so a
/// copy costs a counter bump however large the binding is (the binding
/// cache hands the same witness to every hit).  `assign()` is
/// copy-on-write: it clones the buffer first unless this binding is its
/// only owner, so a copy never observes a later `assign()` to another.
class Binding {
 public:
  Binding() = default;
  Binding(const Binding& other) noexcept;
  Binding(Binding&& other) noexcept;
  Binding& operator=(const Binding& other) noexcept;
  Binding& operator=(Binding&& other) noexcept;
  ~Binding();

  void assign(BindingAssignment a);

  [[nodiscard]] const std::vector<BindingAssignment>& assignments() const;
  [[nodiscard]] std::size_t size() const { return assignments().size(); }

  /// Assignment of `process`, if any.
  [[nodiscard]] const BindingAssignment* find(NodeId process) const;

  /// Total latency of all assignments (a crude cost signal used by tests
  /// and the ablation bench).
  [[nodiscard]] double total_latency() const;

 private:
  struct Storage;
  void release() noexcept;

  Storage* storage_ = nullptr;  ///< null = no assignments
};

class CompiledSpec;

/// Communication feasibility between two units under `alloc` and `model`.
/// The compiled form answers `kDirectOnly`/`kOneHopBus` from precomputed
/// adjacency bitsets without touching the architecture graph.
[[nodiscard]] bool units_can_communicate(const CompiledSpec& cs,
                                         const AllocSet& alloc, AllocUnitId a,
                                         AllocUnitId b, CommModel model);
[[nodiscard]] bool units_can_communicate(const SpecificationGraph& spec,
                                         const AllocSet& alloc, AllocUnitId a,
                                         AllocUnitId b, CommModel model);

/// Checks the three binding-feasibility rules for `binding` against the
/// activated problem vertices `flat` and the allocation `alloc`.
/// Returns the first violated rule (1..3) with a message, or OK.
[[nodiscard]] Status check_binding(const CompiledSpec& cs,
                                   const AllocSet& alloc, const FlatGraph& flat,
                                   const Binding& binding,
                                   CommModel model = CommModel::kOneHopBus);
[[nodiscard]] Status check_binding(const SpecificationGraph& spec,
                                   const AllocSet& alloc, const FlatGraph& flat,
                                   const Binding& binding,
                                   CommModel model = CommModel::kOneHopBus);

}  // namespace sdf
