// Uniform construction of the paper's four baseline engines, so that the
// paper figures (harness/figures.h) can sweep "system" as a parameter.
#pragma once

#include <memory>

#include "mvocc/engine.h"
#include "occ/silo_engine.h"
#include "storage/schema.h"
#include "twopl/engine.h"
#include "txn/engine_iface.h"

namespace bohm {

enum class EngineKind { k2PL, kOCC, kSI, kHekaton };

inline const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::k2PL:
      return "2PL";
    case EngineKind::kOCC:
      return "OCC";
    case EngineKind::kSI:
      return "SI";
    case EngineKind::kHekaton:
      return "Hekaton";
  }
  return "?";
}

/// `commit_dependencies` applies to SI and Hekaton only (speculative reads
/// of Preparing versions, MVOccConfig).
inline std::unique_ptr<ExecutorEngine> MakeExecutorEngine(
    EngineKind kind, const Catalog& catalog, uint32_t threads,
    bool commit_dependencies = true) {
  switch (kind) {
    case EngineKind::k2PL: {
      TwoPLConfig cfg;
      cfg.threads = threads;
      return std::make_unique<TwoPLEngine>(catalog, cfg);
    }
    case EngineKind::kOCC: {
      SiloConfig cfg;
      cfg.threads = threads;
      return std::make_unique<SiloEngine>(catalog, cfg);
    }
    case EngineKind::kSI: {
      MVOccConfig cfg;
      cfg.mode = MVOccMode::kSnapshotIsolation;
      cfg.threads = threads;
      cfg.commit_dependencies = commit_dependencies;
      return std::make_unique<MVOccEngine>(catalog, cfg);
    }
    case EngineKind::kHekaton: {
      MVOccConfig cfg;
      cfg.mode = MVOccMode::kHekaton;
      cfg.threads = threads;
      cfg.commit_dependencies = commit_dependencies;
      return std::make_unique<MVOccEngine>(catalog, cfg);
    }
  }
  return nullptr;
}

}  // namespace bohm
