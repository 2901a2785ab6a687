(* The paper's figure series (Figures 4-9), defined once for both the
   bench's figure groups and the CLI's CSV export.  Sizes follow the
   paper: cliques 5-30, B-Cliques 5-15 (2n nodes), and the four
   Premore-sized internet graphs; MRAI sweeps run 10-60 s. *)

type series = {
  stem : string;
  captions : string * string;
  x_label : string;
  xs : float list;
  seeds : int list;
  per_enhancement : bool;
  make : float -> Experiment.spec;
}

let seeds = [ 1; 2; 3 ]

let clique_sizes = [ 5.; 10.; 15.; 20.; 25.; 30. ]

let b_clique_sizes = [ 5.; 10.; 15. ]

let internet_sizes = [ 29.; 48.; 75.; 110. ]

let mrai_values = [ 10.; 20.; 30.; 40.; 50.; 60. ]

let clique ?(mrai = 30.) n =
  { (Experiment.default_spec (Clique n)) with mrai }

let b_clique_tlong ?(mrai = 30.) n =
  { (Experiment.default_spec (B_clique n)) with event = Tlong; mrai }

let internet event n = { (Experiment.default_spec (Internet n)) with event }

let size f x = f (int_of_float x)

let series ?(per_enhancement = false) ?(seeds = seeds) stem captions x_label
    xs make =
  { stem; captions; x_label; xs; seeds; per_enhancement; make }

let enhancements = series ~per_enhancement:true

let all =
  [
    series "fig4a_fig6a_clique_tdown_vs_size"
      ( "Fig 4(a): T_down on Clique",
        "Fig 6(a): TTL exhaustions & ratio, T_down Clique" )
      "size" clique_sizes (size clique);
    series "fig4b_fig6b_bclique_tlong_vs_size"
      ( "Fig 4(b): T_long on B-Clique (2n nodes)",
        "Fig 6(b): TTL exhaustions & ratio, T_long B-Clique" )
      "n" b_clique_sizes (size b_clique_tlong);
    series "fig4c_fig6c_internet_tdown_vs_size"
      ( "Fig 4(c): T_down on Internet-derived",
        "Fig 6(c): TTL exhaustions & ratio, T_down Internet-derived" )
      "size" internet_sizes (size (internet Tdown));
    series "fig5a_fig7a_clique15_tdown_vs_mrai"
      ( "Fig 5(a): T_down on Clique-15 vs MRAI",
        "Fig 7(a): TTL exhaustions & ratio vs MRAI (Clique-15)" )
      "mrai" mrai_values
      (fun mrai -> clique ~mrai 15);
    series "fig5b_fig7b_bclique10_tlong_vs_mrai"
      ( "Fig 5(b): T_long on B-Clique-10 vs MRAI",
        "Fig 7(b): TTL exhaustions & ratio vs MRAI (B-Clique-10)" )
      "mrai" mrai_values
      (fun mrai -> b_clique_tlong ~mrai 10);
    enhancements "fig8ab_clique_tdown"
      ( "Fig 8(a): TTL exhaustions normalized by standard BGP (Clique, T_down)",
        "Fig 8(b): convergence time in seconds (Clique, T_down)" )
      "size" clique_sizes (size clique);
    enhancements "fig8cd_internet_tdown"
      ( "Fig 8(c): TTL exhaustions normalized by standard BGP (Internet, T_down)",
        "Fig 8(d): convergence time in seconds (Internet, T_down)" )
      "size" internet_sizes (size (internet Tdown));
    enhancements "fig9ab_bclique_tlong"
      ( "Fig 9(a): TTL exhaustions normalized by standard BGP (B-Clique, T_long)",
        "Fig 9(b): convergence time in seconds (B-Clique, T_long)" )
      "n" b_clique_sizes (size b_clique_tlong);
    (* internet T_long loops rarely, so it averages over twice the seeds *)
    enhancements "fig9cd_internet_tlong" ~seeds:[ 1; 2; 3; 4; 5; 6 ]
      ( "Fig 9(c): TTL exhaustions normalized by standard BGP (Internet, T_long)",
        "Fig 9(d): convergence time in seconds (Internet, T_long)" )
      "size" internet_sizes (size (internet Tlong));
  ]

let in_group group =
  List.filter (fun s -> String.starts_with ~prefix:group s.stem) all

let runs s =
  if not s.per_enhancement then [ (Bgp.Enhancement.Standard, s.stem, s.make) ]
  else
    List.map
      (fun enh ->
        ( enh,
          s.stem ^ "_" ^ Bgp.Enhancement.name enh,
          fun x -> { (s.make x) with Experiment.enhancement = enh } ))
      Bgp.Enhancement.all
