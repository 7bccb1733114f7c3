#include "pim/program.h"

#include <cassert>

namespace cryptopim::pim {

void Program::append(const MicroOp& op, std::uint8_t mask_slot) {
  assert(mask_slot < kMaskSlots);
  instrs_.push_back(Instr{op, mask_slot});
  if (op.dst >= written_end_) written_end_ = static_cast<Col>(op.dst + 1);
  cycles_ += gate_cycles(op.kind);
  slot_cycles_[mask_slot] += gate_cycles(op.kind);
}

ProgramRecorder::ProgramRecorder(BlockExecutor& exec, Program& program,
                                 std::uint8_t mask_slot)
    : exec_(exec) {
  exec_.set_recording(&program);
  exec_.set_record_slot(mask_slot);
}

ProgramRecorder::~ProgramRecorder() { exec_.set_recording(nullptr); }

void ProgramRecorder::set_mask_slot(std::uint8_t slot) {
  exec_.set_record_slot(slot);
}

std::size_t Controller::add_stage(std::string name,
                                  std::shared_ptr<const Program> program) {
  stages_.push_back(Stage{std::move(name), std::move(program)});
  return stages_.size() - 1;
}

std::uint64_t Controller::total_instructions() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : stages_) n += s.program->size();
  return n;
}

std::uint64_t Controller::total_rom_bits() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : stages_) n += s.program->rom_bits();
  return n;
}

}  // namespace cryptopim::pim
