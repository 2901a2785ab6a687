(* Side-by-side comparison of standard BGP against the four convergence
   enhancements (the paper's Section 5), on both the T_down clique and
   T_long b-clique scenarios.

     dune exec examples/enhancement_showdown.exe *)

let compare_on ~title ~spec ~seeds =
  let rows =
    List.map
      (fun enh ->
        let m =
          Bgpsim.Sweep.over_seeds
            { spec with Bgpsim.Experiment.enhancement = enh }
            ~seeds
        in
        [
          Bgp.Enhancement.name enh;
          Bgpsim.Report.float_cell m.convergence_time;
          Bgpsim.Report.float_cell m.overall_looping_duration;
          string_of_int m.ttl_exhaustions;
          Bgpsim.Report.ratio_cell m.looping_ratio;
          string_of_int (m.updates_sent + m.withdrawals_sent);
        ])
      Bgp.Enhancement.all
  in
  print_string
    (Bgpsim.Report.table ~title
       ~header:[ "mechanism"; "conv(s)"; "loop-dur(s)"; "ttl-exh"; "ratio"; "msgs" ]
       ~rows);
  print_newline ()

let () =
  let seeds = Bgpsim.Figures.seeds in
  compare_on ~title:"T_down on clique-12 (paper Fig 8a/8b)"
    ~spec:(Bgpsim.Experiment.default_spec (Bgpsim.Experiment.Clique 12))
    ~seeds;
  compare_on ~title:"T_long on b-clique-8 (paper Fig 9a/9b)"
    ~spec:
      {
        (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.B_clique 8)) with
        event = Bgpsim.Experiment.Tlong;
      }
    ~seeds;
  print_endline
    "Expected shape (paper Observation 3): Assertion wins outright on\n\
     clique-family topologies, Ghost Flushing cuts looping by >=80%,\n\
     SSLD helps modestly, and WRATE is no better than standard BGP."
