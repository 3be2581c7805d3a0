#include "harness/trace.h"

#include <set>
#include <sstream>

#include "common/random.h"

namespace tdb::harness {

std::vector<TraceCommit> GenerateTrace(const TraceSpec& spec) {
  Random rng(spec.seed);
  std::vector<TraceCommit> trace;
  std::set<uint32_t> live;
  for (uint32_t c = 0; c < spec.commits; c++) {
    TraceCommit commit;
    uint32_t ops = static_cast<uint32_t>(rng.Range(1, spec.max_ops_per_commit));
    for (uint32_t i = 0; i < ops; i++) {
      TraceOp op;
      op.slot = static_cast<uint32_t>(rng.Uniform(spec.slots));
      if (live.count(op.slot) > 0 && rng.Bernoulli(spec.p_dealloc)) {
        op.kind = TraceOp::Kind::kDealloc;
        live.erase(op.slot);
      } else {
        op.kind = TraceOp::Kind::kWrite;
        op.size = static_cast<uint32_t>(
            rng.Range(spec.min_value_bytes, spec.max_value_bytes));
        op.payload_seed = rng.Next();
        live.insert(op.slot);
      }
      commit.ops.push_back(op);
    }
    commit.durable = rng.Bernoulli(spec.p_durable);
    commit.checkpoint_after = rng.Bernoulli(spec.p_checkpoint);
    if (spec.force_mid_checkpoint && c == spec.commits / 2) {
      commit.checkpoint_after = true;
    }
    trace.push_back(std::move(commit));
  }
  return trace;
}

Buffer SlotPayload(uint64_t payload_seed, uint32_t size) {
  Random rng(payload_seed);
  Buffer payload;
  rng.Fill(&payload, size);
  // Semi-compressible: the back half repeats the front half. Sizes (and
  // so every preset's crash/tear geometry) stay exactly as the spec
  // drives them, but the codec preset gets a mix of records that compress
  // (long repeat) and records that stay raw (tiny payloads where the
  // codec overhead wins).
  const size_t half = payload.size() / 2;
  for (size_t i = half; i < payload.size(); i++) {
    payload[i] = payload[i - half];
  }
  return payload;
}

const char* PresetName(Preset preset) {
  switch (preset) {
    case Preset::kStrict:
      return "strict";
    case Preset::kCleaning:
      return "cleaning";
    case Preset::kCodec:
      return "codec";
  }
  return "strict";
}

std::string FormatRepro(const ReproCase& repro) {
  std::ostringstream line;
  line << "TDB-REPRO v1 layer=" << repro.layer << " kind=" << repro.kind
       << " preset=" << PresetName(repro.spec.preset)
       << " seed=" << repro.spec.seed << " commits=" << repro.spec.commits
       << " slots=" << repro.spec.slots;
  if (repro.layer == "shard" || repro.layer == "objshard") {
    line << " shards=" << repro.shards;
  }
  if (repro.kind == "crash" || repro.kind == "tamper2pc") {
    line << " point=" << repro.crash.write_index
         << " tear=" << repro.crash.tear_num << "/" << repro.crash.tear_den
         << " rcrash=" << repro.crash.recovery_crash;
  }
  if (repro.kind == "tamper" || repro.kind == "tamper2pc") {
    line << " file=" << repro.tamper_file << " off=" << repro.tamper_offset
         << " mask=" << repro.tamper_mask;
  }
  return line.str();
}

namespace {

Status MalformedRepro(const std::string& detail) {
  return Status::InvalidArgument("malformed repro line: " + detail);
}

Result<uint64_t> ParseUint(const std::string& value) {
  if (value.empty()) return MalformedRepro("empty numeric field");
  uint64_t out = 0;
  for (char ch : value) {
    if (ch < '0' || ch > '9') return MalformedRepro("bad number: " + value);
    out = out * 10 + static_cast<uint64_t>(ch - '0');
  }
  return out;
}

}  // namespace

Result<ReproCase> ParseRepro(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  if (!(in >> token) || token != "TDB-REPRO") {
    return MalformedRepro("missing TDB-REPRO tag");
  }
  if (!(in >> token) || token != "v1") return MalformedRepro("unknown version");

  ReproCase repro;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) return MalformedRepro("not key=value: " + token);
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "layer") {
      if (value != "chunk" && value != "object" && value != "collection" &&
          value != "shard" && value != "objshard" && value != "ycsb" &&
          value != "timeseries" && value != "largeobject") {
        return MalformedRepro("unknown layer: " + value);
      }
      repro.layer = value;
    } else if (key == "kind") {
      if (value != "crash" && value != "tamper" && value != "tamper2pc") {
        return MalformedRepro("unknown kind: " + value);
      }
      repro.kind = value;
    } else if (key == "shards") {
      TDB_ASSIGN_OR_RETURN(uint64_t n, ParseUint(value));
      repro.shards = static_cast<uint32_t>(n);
    } else if (key == "preset") {
      if (value == "strict") {
        repro.spec.preset = Preset::kStrict;
      } else if (value == "cleaning") {
        repro.spec.preset = Preset::kCleaning;
      } else if (value == "codec") {
        repro.spec.preset = Preset::kCodec;
      } else if (value == "group") {
        // Lines captured while group commit was a separate preset: it is
        // now the strict store (same options, same n/8 tear buckets).
        repro.spec.preset = Preset::kStrict;
      } else {
        return MalformedRepro("unknown preset: " + value);
      }
    } else if (key == "seed") {
      TDB_ASSIGN_OR_RETURN(repro.spec.seed, ParseUint(value));
    } else if (key == "commits") {
      TDB_ASSIGN_OR_RETURN(uint64_t n, ParseUint(value));
      repro.spec.commits = static_cast<uint32_t>(n);
    } else if (key == "slots") {
      TDB_ASSIGN_OR_RETURN(uint64_t n, ParseUint(value));
      repro.spec.slots = static_cast<uint32_t>(n);
    } else if (key == "point") {
      TDB_ASSIGN_OR_RETURN(repro.crash.write_index, ParseUint(value));
    } else if (key == "tear") {
      size_t slash = value.find('/');
      if (slash == std::string::npos) return MalformedRepro("tear=a/b expected");
      TDB_ASSIGN_OR_RETURN(uint64_t num, ParseUint(value.substr(0, slash)));
      TDB_ASSIGN_OR_RETURN(uint64_t den, ParseUint(value.substr(slash + 1)));
      repro.crash.tear_num = static_cast<uint32_t>(num);
      repro.crash.tear_den = static_cast<uint32_t>(den);
    } else if (key == "rcrash") {
      if (value == "-1") {
        repro.crash.recovery_crash = -1;
      } else {
        TDB_ASSIGN_OR_RETURN(uint64_t n, ParseUint(value));
        repro.crash.recovery_crash = static_cast<int64_t>(n);
      }
    } else if (key == "file") {
      repro.tamper_file = value;
    } else if (key == "off") {
      TDB_ASSIGN_OR_RETURN(repro.tamper_offset, ParseUint(value));
    } else if (key == "mask") {
      TDB_ASSIGN_OR_RETURN(uint64_t n, ParseUint(value));
      repro.tamper_mask = static_cast<uint32_t>(n);
    } else {
      return MalformedRepro("unknown key: " + key);
    }
  }
  if ((repro.kind == "tamper" || repro.kind == "tamper2pc") &&
      repro.tamper_file.empty()) {
    return MalformedRepro("tamper repro without file=");
  }
  if (repro.kind == "tamper2pc" && repro.layer != "shard") {
    return MalformedRepro("tamper2pc is shard-layer only");
  }
  if ((repro.layer == "shard" || repro.layer == "objshard") &&
      repro.shards == 0) {
    return MalformedRepro("shard repro without shards=");
  }
  return repro;
}

}  // namespace tdb::harness
