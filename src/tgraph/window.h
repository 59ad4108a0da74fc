#ifndef TGRAPH_TGRAPH_WINDOW_H_
#define TGRAPH_TGRAPH_WINDOW_H_

#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/properties.h"

namespace tgraph {

/// \brief Window specification for wZoom^T: `n {unit | changes}`
/// (Section 2.3). Units are expressed in time points of the graph's domain
/// (a dataset recorded monthly uses 3 for "3 months").
struct WindowSpec {
  enum class Kind {
    /// Fixed-width windows of `size` time points.
    kTimePoints,
    /// Windows spanning `size` change points of the graph.
    kChanges,
  };

  int64_t size = 1;
  Kind kind = Kind::kTimePoints;

  static WindowSpec TimePoints(int64_t n) {
    return WindowSpec{n, Kind::kTimePoints};
  }
  static WindowSpec Changes(int64_t n) { return WindowSpec{n, Kind::kChanges}; }

  std::string ToString() const;
};

/// \brief One tuple of the temporal window relation W(d | T): a window
/// number with its period of validity.
struct TemporalWindow {
  int64_t number = 0;
  Interval interval;
};

/// \brief Generates the window relation tiling `lifetime`.
///
/// Windows start at lifetime.start and advance by the window width; the
/// last window keeps its full width even if it extends past lifetime.end
/// (Example 2.3: a [1,10) tiling of a graph whose last change is at 9).
/// For Kind::kChanges the boundaries are every `size`-th entry of
/// `change_points` (which must be the graph's sorted change points).
std::vector<TemporalWindow> GenerateWindows(
    Interval lifetime, const WindowSpec& spec,
    const std::vector<TimePoint>& change_points = {});

/// \brief Existence quantifier for wZoom^T: a threshold on the fraction of
/// the window during which an entity existed (Section 3.2):
/// all => t = 1, most => t > 0.5, exists => t > 0, at least n => t >= n.
class Quantifier {
 public:
  static Quantifier All() { return Quantifier(1.0, /*strict=*/false, "all"); }
  static Quantifier Most() { return Quantifier(0.5, /*strict=*/true, "most"); }
  static Quantifier Exists() {
    return Quantifier(0.0, /*strict=*/true, "exists");
  }
  /// The paper's text renders this as "t > n"; we use t >= n because "at
  /// least" names an inclusive bound (deviation recorded in DESIGN.md).
  static Quantifier AtLeast(double fraction) {
    return Quantifier(fraction, /*strict=*/false, "at least");
  }

  /// True iff an entity covering `fraction` of a window is retained.
  bool Passes(double fraction) const {
    return strict_ ? fraction > threshold_ : fraction >= threshold_;
  }

  /// True iff this quantifier's passing set is a strict subset of
  /// `other`'s — the condition under which dangling-edge removal is needed
  /// (vertex quantifier more restrictive than edge quantifier).
  bool MoreRestrictiveThan(const Quantifier& other) const {
    if (threshold_ != other.threshold_) return threshold_ > other.threshold_;
    return strict_ && !other.strict_;
  }

  double threshold() const { return threshold_; }
  bool strict() const { return strict_; }
  std::string ToString() const;

 private:
  Quantifier(double threshold, bool strict, std::string name)
      : threshold_(threshold), strict_(strict), name_(std::move(name)) {}

  double threshold_;
  bool strict_;
  std::string name_;
};

/// \brief Window aggregation function choosing which of an attribute's
/// values represents the window (Section 2.3): first, last, or any.
enum class Resolver {
  kAny,    // implementation-chosen (deterministically the earliest value)
  kFirst,  // value from the earliest state in the window having the attribute
  kLast,   // value from the latest state in the window having the attribute
};

/// \brief Per-attribute resolution policy: a default plus overrides.
struct ResolveSpec {
  Resolver default_resolver = Resolver::kAny;
  std::vector<std::pair<std::string, Resolver>> overrides;

  Resolver For(const std::string& attribute) const {
    for (const auto& [key, resolver] : overrides) {
      if (key == attribute) return resolver;
    }
    return default_resolver;
  }
};

/// \brief Resolves the representative properties for a window from the
/// entity's states inside it. `states` are (state start, properties) pairs;
/// order does not matter (they are sorted internally). An attribute present
/// in any state appears in the output, with its value chosen per `spec`.
Properties ResolveProperties(
    std::vector<std::pair<TimePoint, Properties>> states,
    const ResolveSpec& spec);

/// \brief Full wZoom^T parameterization.
struct WZoomSpec {
  WindowSpec window;
  Quantifier vertex_quantifier = Quantifier::All();
  Quantifier edge_quantifier = Quantifier::All();
  ResolveSpec vertex_resolve{};
  ResolveSpec edge_resolve{};
};

}  // namespace tgraph

#endif  // TGRAPH_TGRAPH_WINDOW_H_
