#include "support/lut.h"

#include "common/error.h"

namespace memcim {

CrsLut::CrsLut(std::size_t inputs, std::size_t outputs,
               const CrsCellParams& cell_params)
    : inputs_(inputs),
      outputs_(outputs),
      memory_(std::size_t{1} << inputs, outputs, cell_params) {
  MEMCIM_CHECK_MSG(inputs >= 1 && inputs <= 20,
                   "LUT inputs must be 1..20 (2^k rows are materialized)");
  MEMCIM_CHECK(outputs >= 1);
}

void CrsLut::program(std::size_t out,
                     const std::function<bool(std::uint64_t)>& truth) {
  MEMCIM_CHECK(out < outputs_ && truth != nullptr);
  const std::uint64_t rows = std::uint64_t{1} << inputs_;
  for (std::uint64_t minterm = 0; minterm < rows; ++minterm)
    memory_.write(static_cast<std::size_t>(minterm), out, truth(minterm));
}

void CrsLut::program_all(
    const std::function<std::vector<bool>(std::uint64_t)>& truth) {
  MEMCIM_CHECK(truth != nullptr);
  const std::uint64_t rows = std::uint64_t{1} << inputs_;
  for (std::uint64_t minterm = 0; minterm < rows; ++minterm) {
    const std::vector<bool> row = truth(minterm);
    MEMCIM_CHECK_MSG(row.size() == outputs_, "truth row width mismatch");
    for (std::size_t out = 0; out < outputs_; ++out)
      memory_.write(static_cast<std::size_t>(minterm), out, row[out]);
  }
}

std::vector<bool> CrsLut::evaluate(std::uint64_t input_bits) {
  MEMCIM_CHECK_MSG(input_bits < (std::uint64_t{1} << inputs_),
                   "input exceeds the LUT's domain");
  std::vector<bool> out(outputs_);
  for (std::size_t o = 0; o < outputs_; ++o)
    out[o] = memory_.read(static_cast<std::size_t>(input_bits), o);
  return out;
}

bool CrsLut::evaluate_single(std::uint64_t input_bits) {
  MEMCIM_CHECK(outputs_ == 1);
  return evaluate(input_bits)[0];
}

std::size_t lut_cells_for_function(std::size_t inputs, std::size_t outputs,
                                   std::size_t max_inputs) {
  MEMCIM_CHECK(inputs >= 1 && outputs >= 1 && max_inputs >= 1);
  if (inputs <= max_inputs) return (std::size_t{1} << inputs) * outputs;
  // Shannon decomposition on one variable: two cofactor networks plus a
  // 2:1 mux per output (a 3-input LUT = 8 cells).
  const std::size_t cofactors =
      2 * lut_cells_for_function(inputs - 1, outputs, max_inputs);
  const std::size_t mux = outputs * 8;
  return cofactors + mux;
}

}  // namespace memcim
