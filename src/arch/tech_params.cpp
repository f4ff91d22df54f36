#include "arch/tech_params.h"

namespace memcim {

Table1 paper_table1() {
  Table1 t;
  t.cache_dna.hit_ratio = 0.5;
  t.cache_math.hit_ratio = 0.98;
  t.clusters_dna.clusters = 18750;       // chip-area limited (Table 1)
  t.clusters_dna.units_per_cluster = 32;
  // "Fully scalable reusing clusters": 10^6 additions at 32 adders each.
  t.clusters_math.clusters = 31250;
  t.clusters_math.units_per_cluster = 32;
  return t;
}

}  // namespace memcim
