#include "tgraph/zoom_spec.h"

#include <utility>

namespace tgraph {

VertexId HashSkolem(const GroupKey& key) {
  // Mask to a positive long, matching the GraphX-interoperable id domain.
  return static_cast<VertexId>(key.Hash() & 0x7fffffffffffffffULL);
}

GroupFn GroupByProperty(std::string property) {
  return [property = std::move(property)](
             VertexId, const Properties& props) -> std::optional<GroupKey> {
    return props.Get(property);
  };
}

namespace {

// Scratch property names used by kAvg between merge and finalize.
std::string AvgSumKey(const std::string& output) { return "__avg_sum:" + output; }
std::string AvgCountKey(const std::string& output) {
  return "__avg_cnt:" + output;
}

PropertyValue AddNumeric(const PropertyValue& a, const PropertyValue& b) {
  if (a.is_int() && b.is_int()) return PropertyValue(a.AsInt() + b.AsInt());
  return PropertyValue(a.AsNumber() + b.AsNumber());
}

// Combines one aggregate attribute across two partial states; either side
// may lack the attribute (its contributing inputs had no such property).
void CombineInto(Properties* out, const Properties& other,
                 const std::string& key, AggKind kind) {
  const PropertyValue* lhs = out->Find(key);
  const PropertyValue* rhs = other.Find(key);
  if (rhs == nullptr) return;
  if (lhs == nullptr) {
    out->Set(key, *rhs);
    return;
  }
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kSum:
      out->Set(key, AddNumeric(*lhs, *rhs));
      break;
    case AggKind::kMin:
      if (*rhs < *lhs) out->Set(key, *rhs);
      break;
    case AggKind::kMax:
      if (*rhs > *lhs) out->Set(key, *rhs);
      break;
    case AggKind::kAvg:
      // kAvg is handled through its scratch keys (sum + count).
      break;
  }
}

}  // namespace

VertexAggregator MakeAggregator(std::string new_type,
                                std::string group_property,
                                std::vector<AggregateSpec> aggregates) {
  VertexAggregator aggregator;
  aggregator.new_type = new_type;
  aggregator.group_property = group_property;
  aggregator.aggregates = aggregates;

  aggregator.init = [new_type, group_property, aggregates](
                        const GroupKey& key, VertexId,
                        const Properties& props) {
    Properties out;
    out.Set(kTypeProperty, new_type);
    if (!group_property.empty()) out.Set(group_property, key);
    for (const AggregateSpec& agg : aggregates) {
      switch (agg.kind) {
        case AggKind::kCount:
          out.Set(agg.output_property, PropertyValue(int64_t{1}));
          break;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
          if (const PropertyValue* value = props.Find(agg.input_property)) {
            out.Set(agg.output_property, *value);
          }
          break;
        case AggKind::kAvg:
          if (const PropertyValue* value = props.Find(agg.input_property)) {
            out.Set(AvgSumKey(agg.output_property),
                    PropertyValue(value->AsNumber()));
            out.Set(AvgCountKey(agg.output_property), PropertyValue(int64_t{1}));
          }
          break;
      }
    }
    return out;
  };

  aggregator.merge = [aggregates](Properties a, const Properties& b) {
    // `a` is the caller's accumulator when passed as an rvalue: updating
    // it in place does not clone a copy-on-write map it solely owns.
    Properties out = std::move(a);
    for (const AggregateSpec& agg : aggregates) {
      if (agg.kind == AggKind::kAvg) {
        CombineInto(&out, b, AvgSumKey(agg.output_property), AggKind::kSum);
        CombineInto(&out, b, AvgCountKey(agg.output_property), AggKind::kSum);
      } else {
        CombineInto(&out, b, agg.output_property, agg.kind);
      }
    }
    return out;
  };

  bool has_avg = false;
  for (const AggregateSpec& agg : aggregates) {
    if (agg.kind == AggKind::kAvg) has_avg = true;
  }
  if (has_avg) {
    aggregator.finalize = [aggregates](const Properties& props) {
      Properties out = props;
      for (const AggregateSpec& agg : aggregates) {
        if (agg.kind != AggKind::kAvg) continue;
        const PropertyValue* sum = out.Find(AvgSumKey(agg.output_property));
        const PropertyValue* count = out.Find(AvgCountKey(agg.output_property));
        if (sum != nullptr && count != nullptr && count->AsNumber() > 0) {
          out.Set(agg.output_property,
                  PropertyValue(sum->AsNumber() / count->AsNumber()));
        }
        out.Erase(AvgSumKey(agg.output_property));
        out.Erase(AvgCountKey(agg.output_property));
      }
      return out;
    };
  }
  return aggregator;
}

}  // namespace tgraph
