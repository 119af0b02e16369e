#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace scperf {

/// The static process-graph extractor (§2: "To identify the segment, some
/// marks are introduced into the code by a simple parser program. In the
/// same way, a specific label is assigned to each channel access").
///
/// The runtime estimator identifies segments dynamically from the node
/// callbacks; this parser provides the complementary *static* view: given a
/// process body's source text, it locates every node (channel access or
/// timed wait), assigns the paper's N0/N1/... labels, and derives the
/// segment graph — the paper's Figure 1 annotation and Figure 2 graph.
///
/// Scope matches the paper's "simple parser": lexical analysis of one
/// process body written in the specification style (channel accesses of the
/// form `name.read(` / `name.write(` and `wait(...)` statements; `do {} while`
/// and `while` loops for back edges). It is a development aid, not a full
/// C++ front end.

/// One node of the process graph.
struct GraphNode {
  enum class Kind { kEntry, kChannelRead, kChannelWrite, kTimedWait, kExit };
  Kind kind = Kind::kEntry;
  std::string label;     ///< "N0", "N1", ...
  std::string channel;   ///< channel name ("" for entry/exit/wait)
  std::size_t line = 0;  ///< 1-based source line
  /// Nesting depth of enclosing loops at this node (used for back edges).
  int loop_depth = 0;
};

/// One segment: an arc between two nodes (the paper's Si-j).
struct GraphSegment {
  std::size_t from = 0;  ///< index into ProcessGraph::nodes
  std::size_t to = 0;
};

struct ProcessGraph {
  std::vector<GraphNode> nodes;
  std::vector<GraphSegment> segments;

  const GraphNode& node(const std::string& label) const;
  bool has_segment(const std::string& from_label,
                   const std::string& to_label) const;
  /// "S0-1"-style name of a segment, from its node labels (paper Fig. 1).
  std::string segment_name(const GraphSegment& s) const;

  /// Renders the graph in Graphviz dot format.
  void write_dot(std::ostream& os) const;
};

/// Parses one process body. Nodes are numbered in source order starting at
/// N0 (entry); the exit node is appended last. Segments connect consecutive
/// nodes in source order, plus a back edge for each `do { ... } while` /
/// `while (...) { ... }` loop that contains nodes, plus the skip edge of an
/// `if` block that contains nodes (the paper's S1-3 in Figure 1).
ProcessGraph parse_process_body(const std::string& source);

}  // namespace scperf
