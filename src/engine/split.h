// Input splits: the unit of loader work assignment.
#pragma once

#include <cstdint>
#include <string>

namespace hamr::engine {

struct InputSplit {
  // Interpreted by the loader; for file loaders this is a path in the
  // preferred node's local store.
  std::string path;
  uint64_t offset = 0;
  uint64_t length = 0;
  // The node whose local disk holds the data. The engine always schedules
  // the split there (HAMR reads input from local disks, paper §5.1).
  uint32_t preferred_node = 0;
  // Free-form tag for synthetic sources (e.g. generator seed or record count).
  uint64_t user_tag = 0;
};

}  // namespace hamr::engine
