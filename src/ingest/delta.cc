#include "ingest/delta.h"

#include <algorithm>

namespace tgraph::ingest {

std::shared_ptr<const DeltaPartition> DeltaPartition::Empty() {
  static const std::shared_ptr<const DeltaPartition> kEmpty =
      std::make_shared<const DeltaPartition>();
  return kEmpty;
}

std::shared_ptr<const DeltaPartition> DeltaPartition::Append(
    DeltaBatch batch) const {
  auto next = std::make_shared<DeltaPartition>();
  next->batches_ = batches_;
  next->event_count_ = event_count_ + batch.events.size();
  next->max_event_time_ = max_event_time_;
  for (const Event& event : batch.events) {
    next->max_event_time_ = std::max(next->max_event_time_, event.at);
  }
  next->batches_.push_back(
      std::make_shared<const DeltaBatch>(std::move(batch)));
  return next;
}

std::shared_ptr<const DeltaPartition> DeltaPartition::Suffix(
    uint64_t after_seq) const {
  auto next = std::make_shared<DeltaPartition>();
  for (const auto& batch : batches_) {
    if (batch->seq <= after_seq) continue;
    next->event_count_ += batch->events.size();
    for (const Event& event : batch->events) {
      next->max_event_time_ = std::max(next->max_event_time_, event.at);
    }
    next->batches_.push_back(batch);
  }
  return next;
}

void ApplyEventToBuilder(const Event& event, TGraphBuilder* builder) {
  switch (event.kind) {
    case EventKind::kAddVertex:
      builder->AddVertex(event.id, event.at, event.props);
      return;
    case EventKind::kRemoveVertex:
      builder->RemoveVertex(event.id, event.at);
      return;
    case EventKind::kSetVertexProperty: {
      const auto& entry = event.props.entries().front();
      builder->SetVertexProperty(event.id, event.at, entry.first,
                                 entry.second);
      return;
    }
    case EventKind::kAddEdge:
      builder->AddEdge(event.id, event.src, event.dst, event.at, event.props);
      return;
    case EventKind::kRemoveEdge:
      builder->RemoveEdge(event.id, event.at);
      return;
    case EventKind::kSetEdgeProperty: {
      const auto& entry = event.props.entries().front();
      builder->SetEdgeProperty(event.id, event.at, entry.first, entry.second);
      return;
    }
  }
}

}  // namespace tgraph::ingest
