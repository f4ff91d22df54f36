#include "support/program_verify.h"

#include "common/error.h"

namespace memcim {

ProgramVerifyResult program_verify_write(CrossbarArray& array, std::size_t r,
                                         std::size_t c, bool bit,
                                         const WriteConfig& write_config,
                                         const ReadConfig& read_config,
                                         const ReadMeasurement& reference,
                                         std::size_t max_pulses) {
  MEMCIM_CHECK(max_pulses >= 1);
  ProgramVerifyResult result;
  const Energy e_before = array.total_device_energy();
  for (std::size_t pulse = 0; pulse < max_pulses; ++pulse) {
    ++result.verify_reads;
    if (read_bit(array, r, c, read_config, reference) == bit) {
      result.success = true;
      break;
    }
    (void)write_bit(array, r, c, bit, write_config);
    ++result.write_pulses;
  }
  if (!result.success) {
    ++result.verify_reads;
    result.success = read_bit(array, r, c, read_config, reference) == bit;
  }
  result.array_energy = array.total_device_energy() - e_before;
  return result;
}

}  // namespace memcim
