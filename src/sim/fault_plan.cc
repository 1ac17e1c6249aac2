#include "sim/fault_plan.h"

#include <algorithm>

namespace gridvine {

void FaultPlan::AddPartition(const Partition& partition) {
  PartitionSpec spec;
  spec.start = partition.start;
  spec.end = partition.end;
  NodeId max_id = 0;
  for (NodeId id : partition.group_a) max_id = std::max(max_id, id);
  for (NodeId id : partition.group_b) max_id = std::max(max_id, id);
  spec.side.assign(size_t(max_id) + 1, 0);
  for (NodeId id : partition.group_a) spec.side[id] = 1;
  for (NodeId id : partition.group_b) spec.side[id] = 2;
  partitions_.push_back(std::move(spec));
}

bool FaultPlan::PartitionDrop(SimTime now, NodeId from, NodeId to,
                              DropCause* cause) const {
  for (const PartitionSpec& p : partitions_) {
    if (now < p.start || now >= p.end) continue;
    uint8_t sf = from < p.side.size() ? p.side[from] : 0;
    uint8_t st = to < p.side.size() ? p.side[to] : 0;
    if (sf != 0 && st != 0 && sf != st) {
      *cause = DropCause::kPartition;
      return true;
    }
  }
  return false;
}

}  // namespace gridvine
