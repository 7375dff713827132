#include "ssdtrain/runtime/program_serdes.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ssdtrain/util/binary_io.hpp"

namespace ssdtrain::runtime {

namespace {

using util::fnv1a;
using util::put_f64;
using util::put_str;
using util::put_u16;
using util::put_u32;
using util::put_u64;
using util::put_u8;

constexpr char kMagic[8] = {'S', 'S', 'D', 'T', 'P', 'R', 'G', '\n'};

void put_shape(std::string& out, const tensor::TensorShape& shape) {
  put_u8(out, static_cast<std::uint8_t>(shape.rank()));
  for (const std::int64_t dim : shape.dims()) {
    put_u64(out, static_cast<std::uint64_t>(dim));
  }
}

tensor::TensorShape read_shape(util::ByteReader& in) {
  const std::uint8_t rank = in.u8();
  if (rank > tensor::TensorShape::kMaxRank) {
    in.fail();
    return {};
  }
  std::vector<std::int64_t> dims(rank);
  for (std::uint8_t i = 0; i < rank; ++i) {
    dims[i] = static_cast<std::int64_t>(in.u64());
  }
  if (in.failed()) return {};
  return tensor::TensorShape(dims);
}

bool fail(std::string* error, std::string_view reason) {
  if (error != nullptr) *error = std::string(reason);
  return false;
}

// Per-element minimum serialized sizes, used for pre-allocation bounds.
constexpr std::size_t kOpBytes = 1 + 1 + 1 + 2 + 4 + 4 + 4 + 8 + 8;
constexpr std::size_t kCommandBytes = 1 + 8;

}  // namespace

std::string serialize_program(const StepProgram& program,
                              std::string_view key_text) {
  std::string payload;
  payload.reserve(program.ops.size() * kOpBytes + 1024);

  put_u32(payload, static_cast<std::uint32_t>(program.ops.size()));
  for (const StepProgram::Op& op : program.ops) {
    put_u8(payload, static_cast<std::uint8_t>(op.kind));
    put_u8(payload, op.flags);
    put_u8(payload, op.dtype);
    put_u16(payload, op.count);
    put_u32(payload, op.a);
    put_u32(payload, op.b);
    put_u32(payload, op.c);
    put_f64(payload, op.x);
    put_f64(payload, op.y);
  }

  put_u32(payload, static_cast<std::uint32_t>(program.aux.size()));
  for (const std::uint32_t v : program.aux) put_u32(payload, v);

  put_u32(payload, static_cast<std::uint32_t>(program.labels.size()));
  for (const util::Label& label : program.labels) {
    put_str(payload, label.str());
  }

  put_u32(payload, static_cast<std::uint32_t>(program.shapes.size()));
  for (const tensor::TensorShape& shape : program.shapes) {
    put_shape(payload, shape);
  }

  put_u32(payload, static_cast<std::uint32_t>(program.entries.size()));
  for (const core::TensorCache::EntryInfo& entry : program.entries) {
    put_u64(payload, entry.id.stamp);
    put_u64(payload, entry.id.shape_key);
    put_str(payload, entry.label.str());
    put_shape(payload, entry.shape);
    put_u8(payload, static_cast<std::uint8_t>(entry.dtype));
    put_u64(payload, static_cast<std::uint64_t>(entry.bytes));
  }

  put_u32(payload, static_cast<std::uint32_t>(program.weights.size()));
  for (const StepProgram::WeightInit& weight : program.weights) {
    put_str(payload, weight.key);
    put_shape(payload, weight.shape);
    put_u8(payload, weight.dtype);
  }

  put_u32(payload, program.slot_count);

  put_u32(payload, static_cast<std::uint32_t>(program.schedule.size()));
  for (const sched::Command& command : program.schedule) {
    put_u8(payload, static_cast<std::uint8_t>(command.kind));
    put_u32(payload, static_cast<std::uint32_t>(command.micro_batch));
    put_u32(payload, static_cast<std::uint32_t>(command.chunk));
  }

  put_u8(payload, program.uses_cache ? 1 : 0);

  put_u32(payload, static_cast<std::uint32_t>(program.segments.size()));
  for (const std::uint32_t v : program.segments) put_u32(payload, v);

  put_u8(payload, program.replayable ? 1 : 0);
  put_str(payload, program.invalid_reason);

  // Header: magic + version + checksum over (key text record + payload).
  std::string checked;
  checked.reserve(4 + key_text.size() + payload.size());
  put_str(checked, key_text);
  checked += payload;

  std::string out;
  out.reserve(sizeof kMagic + 4 + 8 + checked.size());
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kProgramFormatVersion);
  put_u64(out, fnv1a(checked));
  out += checked;
  return out;
}

bool deserialize_program(std::string_view data,
                         std::string_view expected_key_text, StepProgram& out,
                         std::string* error) {
  if (data.size() < sizeof kMagic + 4 + 8) {
    return fail(error, "truncated header");
  }
  if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
    return fail(error, "bad magic");
  }
  util::ByteReader header(data.substr(sizeof kMagic));
  const std::uint32_t version = header.u32();
  if (version != kProgramFormatVersion) {
    return fail(error, "format version " + std::to_string(version) +
                           ", expected " +
                           std::to_string(kProgramFormatVersion));
  }
  const std::uint64_t checksum = header.u64();
  const std::string_view checked = data.substr(sizeof kMagic + 4 + 8);
  if (fnv1a(checked) != checksum) {
    return fail(error, "checksum mismatch (corrupt or truncated file)");
  }

  util::ByteReader in(checked);
  if (in.str() != expected_key_text) {
    // The stored fingerprint names a different configuration: a hash
    // collision on the cache file name, or a mis-placed file. Either way
    // the program must not be replayed against this session.
    return fail(error, "program key mismatch");
  }

  StepProgram program;

  const std::uint32_t op_count = in.count(kOpBytes);
  program.ops.resize(op_count);
  for (StepProgram::Op& op : program.ops) {
    op.kind = static_cast<StepProgram::OpKind>(in.u8());
    op.flags = in.u8();
    op.dtype = in.u8();
    op.count = in.u16();
    op.a = in.u32();
    op.b = in.u32();
    op.c = in.u32();
    op.x = in.f64();
    op.y = in.f64();
  }

  const std::uint32_t aux_count = in.count(4);
  program.aux.resize(aux_count);
  for (std::uint32_t& v : program.aux) v = in.u32();

  const std::uint32_t label_count = in.count(4);
  program.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count && !in.failed(); ++i) {
    program.labels.emplace_back(in.str());
  }

  const std::uint32_t shape_count = in.count(1);
  program.shapes.reserve(shape_count);
  for (std::uint32_t i = 0; i < shape_count && !in.failed(); ++i) {
    program.shapes.push_back(read_shape(in));
  }

  const std::uint32_t entry_count = in.count(8 + 8 + 4 + 1 + 1 + 8);
  program.entries.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count && !in.failed(); ++i) {
    core::TensorCache::EntryInfo entry;
    entry.id.stamp = in.u64();
    entry.id.shape_key = in.u64();
    entry.label = util::Label(in.str());
    entry.shape = read_shape(in);
    entry.dtype = static_cast<tensor::DType>(in.u8());
    entry.bytes = static_cast<util::Bytes>(in.u64());
    program.entries.push_back(std::move(entry));
  }

  const std::uint32_t weight_count = in.count(4 + 1 + 1);
  program.weights.reserve(weight_count);
  for (std::uint32_t i = 0; i < weight_count && !in.failed(); ++i) {
    StepProgram::WeightInit weight;
    weight.key = in.str();
    weight.shape = read_shape(in);
    weight.dtype = in.u8();
    program.weights.push_back(std::move(weight));
  }

  program.slot_count = in.u32();

  const std::uint32_t command_count = in.count(kCommandBytes);
  program.schedule.resize(command_count);
  for (sched::Command& command : program.schedule) {
    command.kind = static_cast<sched::CommandKind>(in.u8());
    command.micro_batch = static_cast<int>(in.u32());
    command.chunk = static_cast<int>(in.u32());
  }

  program.uses_cache = in.u8() != 0;

  const std::uint32_t segment_count = in.count(4);
  program.segments.resize(segment_count);
  for (std::uint32_t& v : program.segments) v = in.u32();

  program.replayable = in.u8() != 0;
  program.invalid_reason = in.str();

  if (in.failed()) return fail(error, "truncated payload");
  if (!in.exhausted()) return fail(error, "trailing bytes after payload");

  // Structural cross-checks: the checksum guards against corruption, not
  // against a well-formed file written by buggy tooling. Indices must
  // land inside their tables before the replay loop trusts them. Every
  // slot is created by one op, which also bounds the tables sized by it.
  if (program.slot_count > program.ops.size()) {
    return fail(error, "slot table larger than the op stream");
  }
  const auto labels = static_cast<std::uint32_t>(program.labels.size());
  const auto shapes = static_cast<std::uint32_t>(program.shapes.size());
  const auto entries = static_cast<std::uint32_t>(program.entries.size());
  const auto aux = static_cast<std::uint64_t>(program.aux.size());
  const auto aux_in_range = [&](std::uint32_t begin, std::uint16_t n,
                                std::uint32_t table_size) {
    if (static_cast<std::uint64_t>(begin) + n > aux) return false;
    for (std::uint16_t i = 0; i < n; ++i) {
      if (program.aux[begin + i] >= table_size) return false;
    }
    return true;
  };
  // An activation is pending from its alloc_activation until the next
  // kernel or comm, whose completion is its ready event: a kernel gated on
  // a pending slot would wait on itself, so no recording contains one.
  std::vector<std::size_t> alloc_epoch(program.slot_count, 0);
  std::size_t epoch = 1;  // one more than the kernels and comms so far
  for (const StepProgram::Op& op : program.ops) {
    using OpKind = StepProgram::OpKind;
    bool ok = true;
    switch (op.kind) {
      case OpKind::alloc_activation:
      case OpKind::alloc_host:
      case OpKind::stage_input:
        ok = op.a < program.slot_count && op.b < labels && op.c < shapes;
        break;
      case OpKind::kernel:
        // aux[a .. a+count) are dependency value slots.
        ok = op.b < labels && aux_in_range(op.a, op.count,
                                           program.slot_count);
        break;
      case OpKind::enqueue_only:
      case OpKind::comm:
        ok = op.b < labels;
        break;
      case OpKind::drop_value:
        ok = op.a < program.slot_count;
        break;
      case OpKind::pack_keep:
      case OpKind::pack_store:
      case OpKind::unpack_entry:
        ok = op.a < entries && op.b < program.slot_count;
        break;
      case OpKind::prefetch:
        // aux[a .. a+count) are candidate cache-entry indices.
        ok = aux_in_range(op.a, op.count, entries);
        break;
      case OpKind::release_entry:
        ok = op.a < entries;
        break;
      case OpKind::marker_pre_optimizer:
      case OpKind::pack_passthrough:
      case OpKind::pack_dedup:
      case OpKind::unpack_passthrough:
        break;
      default:
        ok = false;
        break;
    }
    if (!ok) return fail(error, "op index out of range");
    if (op.kind == OpKind::alloc_activation) alloc_epoch[op.a] = epoch;
    for (std::uint16_t i = 0; op.kind == OpKind::kernel && i < op.count; ++i) {
      if (alloc_epoch[program.aux[op.a + i]] == epoch) {
        return fail(error, "kernel gated on an activation it produces");
      }
    }
    if (op.kind == OpKind::kernel || op.kind == OpKind::comm) ++epoch;
  }
  // Replay walks one segment per schedule command: the boundaries must
  // cover the op array exactly once, in order.
  if (program.segments.size() != program.schedule.size() + 1 ||
      program.segments.front() != 0 ||
      program.segments.back() != program.ops.size() ||
      !std::is_sorted(program.segments.begin(), program.segments.end())) {
    return fail(error, "segment table does not cover the op array");
  }

  out = std::move(program);
  return true;
}

}  // namespace ssdtrain::runtime
