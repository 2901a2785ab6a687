(* Simulated statistics of the default seed, which any change that only
   makes the simulator faster must leave identical.  A change that
   alters the simulation on purpose re-pins them from
   [bench.exe WORKLOAD 1 pins] and says so. *)

let default_seed = 1

(* fig4 cells: (clique size, run seed) -> md5 of the cell's
   Run_metrics.t without wall_clock_s (bench.ml [render_metrics]).
   Keyed by cell, so seeds 2 and 3 check the cells they share. *)
let fig4 =
  [
    ((5, 1), "17c6502af93a02b02ff3e13fb023b661");
    ((5, 2), "26f1eace5436b1626ff0cb3dc579490a");
    ((5, 3), "36b8dcb67ede5e56b0854a0d2d06860f");
    ((10, 1), "0fb7b9af61afcaf7b2612a6f393ce1a8");
    ((10, 2), "ca534357c9092263050d2778c8a8a57c");
    ((10, 3), "54122e0dce6819e265569f67f7f25000");
    ((15, 1), "cad26213864b16acbbd06a090119a703");
    ((15, 2), "5722c11e708abb75bdef9321b7c9aace");
    ((15, 3), "4541977d202f198a09e799c81fb12b2b");
    ((20, 1), "afba1996dfd7afbd83793e608e3c7abe");
    ((20, 2), "44d6719a27e8416b1f405e8f0c079b0a");
    ((20, 3), "13d02b9075f804b931ab7fc51b3b4708");
    ((25, 1), "ba37c3e327ab3f2eae692d9fa408085d");
    ((25, 2), "1c5f83240d5ce6be6309f2c34150bba7");
    ((25, 3), "19c0a133cdd48594f04560df41a2f42a");
    ((30, 1), "1f517e745882f74e71c5510916390a3b");
    ((30, 2), "50db4ad03ef84f3ad983e2befb06d6db");
    ((30, 3), "551ddb096f4bf836a53ef3b9dc041e31");
  ]

(* churn-110: the digest chain, and md5s of loop_totals and of the
   counters snapshot (bench.ml [render_totals], [render_counters]). *)
let churn_chain = "0ec84fafe0cf608c1466564a55e9633c"

let churn_totals = "eadef989a32a7947b5258b11d767b108"

let churn_counters = "fe4d3c76b81f559d0e0f61a499743012"
