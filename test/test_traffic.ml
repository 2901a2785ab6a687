(* Tests for the forwarding replay: single-packet walks against
   hand-built FIB histories, and the constant-rate replay driver. *)

let fib_with ~n changes =
  let fib = Netcore.Fib_history.create ~n in
  List.iter
    (fun (time, node, next_hop) ->
      Netcore.Fib_history.record fib ~time ~node ~next_hop)
    changes;
  fib

let walk = Traffic.Forwarder.walk

(* --- Forwarder --- *)

let test_walk_delivers () =
  (* chain 3 -> 2 -> 1 -> 0 *)
  let fib =
    fib_with ~n:4
      [ (0., 3, Some 2); (0., 2, Some 1); (0., 1, Some 0) ]
  in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:3 ~send_time:1. with
  | Traffic.Forwarder.Delivered { time; hops } ->
      Alcotest.(check int) "hops" 3 hops;
      Alcotest.(check (float 1e-9)) "arrival" 1.006 time
  | f -> Alcotest.failf "expected delivery, got %a" Traffic.Forwarder.pp_fate f

let test_walk_at_origin () =
  let fib = fib_with ~n:1 [] in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:0 ~send_time:0. with
  | Traffic.Forwarder.Delivered { hops = 0; _ } -> ()
  | f -> Alcotest.failf "expected 0-hop delivery, got %a" Traffic.Forwarder.pp_fate f

let test_walk_unreachable () =
  let fib = fib_with ~n:3 [ (0., 2, Some 1) ] in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:2 ~send_time:1. with
  | Traffic.Forwarder.Unreachable { at_node; _ } ->
      Alcotest.(check int) "dropped at routeless node" 1 at_node
  | f -> Alcotest.failf "expected unreachable, got %a" Traffic.Forwarder.pp_fate f

let test_walk_loop_exhausts_ttl () =
  (* 1 <-> 2, destination 0 never reached *)
  let fib = fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1) ] in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:1 ~send_time:5. with
  | Traffic.Forwarder.Ttl_exhausted { time; at_node } ->
      (* the paper's arithmetic: 128 hops x 2 ms = 256 ms lifetime *)
      Alcotest.(check (float 1e-9)) "lifetime" (5. +. 0.256) time;
      Alcotest.(check bool) "inside the loop" true (at_node = 1 || at_node = 2)
  | f -> Alcotest.failf "expected exhaustion, got %a" Traffic.Forwarder.pp_fate f

let test_walk_escapes_resolving_loop () =
  (* the loop 1 <-> 2 resolves at t = 5.1 when node 2 repoints to 0;
     a packet circling since t = 5 escapes and is delivered *)
  let fib =
    fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1); (5.1, 2, Some 0) ]
  in
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:128 ~src:1 ~send_time:5. with
  | Traffic.Forwarder.Delivered { time; hops } ->
      Alcotest.(check bool) "took many hops" true (hops > 2);
      Alcotest.(check bool) "after resolution" true (time > 5.1)
  | f -> Alcotest.failf "expected escape, got %a" Traffic.Forwarder.pp_fate f

let test_walk_ttl_boundary () =
  (* ttl exactly equals path length: delivered with nothing to spare *)
  let fib = fib_with ~n:3 [ (0., 2, Some 1); (0., 1, Some 0) ] in
  (match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:2 ~src:2 ~send_time:0. with
  | Traffic.Forwarder.Delivered { hops = 2; _ } -> ()
  | f -> Alcotest.failf "expected tight delivery, got %a" Traffic.Forwarder.pp_fate f);
  match walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:1 ~src:2 ~send_time:0. with
  | Traffic.Forwarder.Ttl_exhausted { at_node = 1; _ } -> ()
  | f -> Alcotest.failf "expected exhaustion at 1, got %a" Traffic.Forwarder.pp_fate f

let test_walk_validation () =
  let fib = fib_with ~n:2 [] in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "ttl 0" true
    (raises (fun () ->
         walk ~fib ~origin:0 ~link_delay:0.002 ~ttl:0 ~src:1 ~send_time:0.));
  Alcotest.(check bool) "bad delay" true
    (raises (fun () ->
         walk ~fib ~origin:0 ~link_delay:0. ~ttl:4 ~src:1 ~send_time:0.))

(* --- Replay --- *)

let stable_chain_fib () =
  fib_with ~n:4 [ (0., 3, Some 2); (0., 2, Some 1); (0., 1, Some 0) ]

let test_replay_counts_and_rate () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(10., 20.) ~seed:1 ()
  in
  (* 3 sources x 10 pkt/s x 10 s *)
  Alcotest.(check int) "sent" 300 r.sent;
  Alcotest.(check int) "all delivered" 300 r.delivered;
  Alcotest.(check int) "none exhausted" 0 r.exhausted;
  Alcotest.(check (float 1e-9)) "no looping duration" 0.
    (Traffic.Replay.overall_looping_duration r);
  Alcotest.(check (float 1e-9)) "zero ratio" 0. (Traffic.Replay.looping_ratio r)

let test_replay_loop_window () =
  (* 1 <-> 2 looping during [10, 12]; resolved at 12 when 1 repoints *)
  let fib =
    fib_with ~n:3
      [ (0., 2, Some 1); (0., 1, Some 0); (10., 1, Some 2); (12., 1, Some 0) ]
  in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(10., 14.) ~seed:1 ()
  in
  Alcotest.(check bool) "loop caught" true (r.exhausted > 0);
  Alcotest.(check bool) "delivered after resolution" true (r.delivered > 0);
  (match (r.first_exhaustion, r.last_exhaustion) with
  | Some first, Some last ->
      Alcotest.(check bool) "within looping episode" true
        (first >= 10. && last <= 12.3)
  | _ -> Alcotest.fail "expected exhaustions");
  Alcotest.(check bool) "duration bounded by episode" true
    (Traffic.Replay.overall_looping_duration r <= 2.3)

let test_replay_ratio_cutoff () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(0., 10.) ~seed:1 ~ratio_cutoff:5. ()
  in
  Alcotest.(check int) "full window sent" 300 r.sent;
  Alcotest.(check int) "denominator cut" 150 r.sent_for_ratio

let test_replay_sources_subset () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(0., 10.) ~seed:1 ~sources:[ 3 ] ()
  in
  Alcotest.(check int) "one stream" 100 r.sent

let test_replay_deterministic () =
  let fib = stable_chain_fib () in
  let go () =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(0., 10.) ~seed:9 ()
  in
  let a = go () and b = go () in
  Alcotest.(check int) "sent" a.sent b.sent;
  Alcotest.(check int) "delivered" a.delivered b.delivered

let test_replay_empty_window () =
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window:(5., 5.) ~seed:1 ()
  in
  Alcotest.(check int) "nothing sent" 0 r.sent;
  Alcotest.(check (float 0.)) "ratio zero" 0. (Traffic.Replay.looping_ratio r)

let test_replay_validation () =
  let fib = stable_chain_fib () in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad rate" true
    (raises (fun () ->
         Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128
           ~rate:0. ~window:(0., 1.) ~seed:1 ()));
  Alcotest.(check bool) "inverted window" true
    (raises (fun () ->
         Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128
           ~rate:1. ~window:(2., 1.) ~seed:1 ()));
  Alcotest.(check bool) "origin as source" true
    (raises (fun () ->
         Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128
           ~rate:1. ~window:(0., 1.) ~seed:1 ~sources:[ 0 ] ()));
  (* ttl and link_delay are checked on entry, even when no packet is
     sent: an empty window, or an interval longer than the window *)
  List.iter
    (fun (name, window, rate) ->
      Alcotest.(check bool) (name ^ ": ttl 0") true
        (raises (fun () ->
             Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:0
               ~rate ~window ~seed:1 ()));
      Alcotest.(check bool) (name ^ ": negative ttl") true
        (raises (fun () ->
             Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:(-3)
               ~rate ~window ~seed:1 ()));
      Alcotest.(check bool) (name ^ ": zero delay") true
        (raises (fun () ->
             Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0. ~ttl:128
               ~rate ~window ~seed:1 ()));
      Alcotest.(check bool) (name ^ ": negative delay") true
        (raises (fun () ->
             Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:(-0.002)
               ~ttl:128 ~rate ~window ~seed:1 ())))
    [ ("empty window", (5., 5.), 10.); ("sparse rate", (0., 1.), 1e-3) ]

let test_replay_exhaustion_times_sorted () =
  let fib =
    fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1) ]
  in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:16 ~rate:50.
      ~window:(0., 2.) ~seed:1 ()
  in
  Alcotest.(check bool) "everything exhausted" true (r.exhausted = r.sent);
  let sorted = Array.copy r.exhaustion_times in
  Array.sort compare sorted;
  Alcotest.(check (array (float 0.))) "sorted" sorted r.exhaustion_times

let test_fate_time_accessor () =
  let t f = Traffic.Forwarder.fate_time f in
  Alcotest.(check (float 0.)) "delivered" 1.
    (t (Traffic.Forwarder.Delivered { time = 1.; hops = 3 }));
  Alcotest.(check (float 0.)) "exhausted" 2.
    (t (Traffic.Forwarder.Ttl_exhausted { time = 2.; at_node = 1 }));
  Alcotest.(check (float 0.)) "unreachable" 3.
    (t (Traffic.Forwarder.Unreachable { time = 3.; at_node = 2 }))

let test_replay_sparse_rate () =
  (* the interval exceeds the window: each source sends at most one
     packet (its phase draw decides) and never more *)
  let fib = stable_chain_fib () in
  let r =
    Traffic.Replay.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128 ~rate:0.1
      ~window:(0., 5.) ~seed:1 ()
  in
  Alcotest.(check bool) "at most one per source" true (r.sent <= 3);
  Alcotest.(check int) "all fates accounted" r.sent
    (r.delivered + r.unreachable + r.exhausted)

(* --- Per_source --- *)

let test_per_source_totals_match_replay () =
  let fib =
    fib_with ~n:3
      [ (0., 2, Some 1); (0., 1, Some 0); (10., 1, Some 2); (12., 1, Some 0) ]
  in
  let window = (10., 14.) and seed = 1 in
  let replay =
    Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:128 ~rate:10.
      ~window ~seed ()
  in
  let per_source =
    Traffic.Per_source.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:128
      ~rate:10. ~window ~seed ()
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 per_source in
  Alcotest.(check int) "sent" replay.sent
    (sum (fun (s : Traffic.Per_source.stats) -> s.sent));
  Alcotest.(check int) "delivered" replay.delivered
    (sum (fun (s : Traffic.Per_source.stats) -> s.delivered));
  Alcotest.(check int) "exhausted" replay.exhausted
    (sum (fun (s : Traffic.Per_source.stats) -> s.exhausted))

let test_per_source_identifies_affected () =
  (* loop between 1 and 2; node 3 routes straight to the origin and is
     never affected *)
  let fib =
    fib_with ~n:4 [ (0., 1, Some 2); (0., 2, Some 1); (0., 3, Some 0) ]
  in
  let per_source =
    Traffic.Per_source.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:16
      ~rate:10. ~window:(0., 2.) ~seed:1 ()
  in
  Alcotest.(check (list int)) "only loop members affected" [ 1; 2 ]
    (Traffic.Per_source.affected per_source);
  let stats_of v =
    List.find (fun (s : Traffic.Per_source.stats) -> s.src = v) per_source
  in
  Alcotest.(check (float 1e-9)) "node 3 clean" 0.
    (Traffic.Per_source.looping_ratio (stats_of 3));
  Alcotest.(check (float 1e-9)) "node 1 fully looped" 1.
    (Traffic.Per_source.looping_ratio (stats_of 1))

let per_source_error f =
  match f () with
  | (_ : Traffic.Per_source.stats list) -> None
  | exception Invalid_argument msg -> Some msg

let test_per_source_rejects_origin () =
  (* the origin's own stream would count a 0-hop delivery *)
  let fib = stable_chain_fib () in
  match
    per_source_error (fun () ->
        Traffic.Per_source.run ~fib ~origin:0 ~n:4 ~link_delay:0.002 ~ttl:128
          ~rate:10. ~window:(0., 1.) ~seed:1 ~sources:[ 3; 0 ] ())
  with
  | Some msg ->
      Alcotest.(check string) "message" "Per_source.run: source = origin" msg
  | None -> Alcotest.fail "origin accepted as a source"

let test_per_source_rejects_out_of_range () =
  let fib = stable_chain_fib () in
  List.iter
    (fun src ->
      match
        per_source_error (fun () ->
            Traffic.Per_source.run ~fib ~origin:0 ~n:4 ~link_delay:0.002
              ~ttl:128 ~rate:10. ~window:(0., 1.) ~seed:1 ~sources:[ src ] ())
      with
      | Some msg ->
          Alcotest.(check string)
            (Printf.sprintf "source %d" src)
            "Per_source.run: source out of range" msg
      | None -> Alcotest.failf "source %d accepted" src)
    [ 4; -1 ]

let test_per_source_footnote4_b_clique () =
  (* The paper's footnote 4: in a B-Clique T_long (failing link (n,0)),
     chain nodes 2..n/2 are not affected and their packets never
     encounter a loop. *)
  let n = 6 in
  let spec =
    {
      (Bgpsim.Experiment.default_spec (Bgpsim.Experiment.B_clique n)) with
      event = Bgpsim.Experiment.Tlong;
      mrai = 15.;
    }
  in
  let run = Bgpsim.Experiment.run spec in
  let fib = Netcore.Trace.fib run.outcome.trace in
  let per_source =
    Traffic.Per_source.run ~fib ~origin:0 ~n:(2 * n) ~link_delay:0.002 ~ttl:128
      ~rate:10.
      ~window:(run.outcome.t_fail, run.outcome.convergence_end)
      ~seed:7 ()
  in
  let stats_of v =
    List.find (fun (s : Traffic.Per_source.stats) -> s.src = v) per_source
  in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "chain node %d unaffected" v)
        0 (stats_of v).exhausted)
    [ 1; 2; 3 ]

(* --- Differential: the replay against Forwarder.walk --- *)

(* The replay as it reads in the paper's terms, one Forwarder.walk per
   packet and a sort at the end: the oracle Replay.run must match bit
   for bit. *)
let reference_replay ~fib ~origin ~n ~link_delay ~ttl ~rate ~window:(t0, t1)
    ~seed ?ratio_cutoff ?sources () : Traffic.Replay.result =
  let ratio_cutoff = Option.value ratio_cutoff ~default:t1 in
  let sources =
    match sources with
    | Some l -> l
    | None -> List.filter (fun v -> v <> origin) (List.init n Fun.id)
  in
  let rng = Dessim.Rng.create ~seed in
  let interval = 1. /. rate in
  let sent = ref 0
  and sent_for_ratio = ref 0
  and delivered = ref 0
  and unreachable = ref 0
  and drops = ref [] in
  List.iter
    (fun src ->
      let phase = Dessim.Rng.float rng interval in
      let time = ref (t0 +. phase) in
      while !time < t1 do
        incr sent;
        if !time < ratio_cutoff then incr sent_for_ratio;
        (match
           Traffic.Forwarder.walk ~fib ~origin ~link_delay ~ttl ~src
             ~send_time:!time
         with
        | Traffic.Forwarder.Delivered _ -> incr delivered
        | Traffic.Forwarder.Unreachable _ -> incr unreachable
        | Traffic.Forwarder.Ttl_exhausted { time; _ } ->
            drops := time :: !drops);
        time := !time +. interval
      done)
    sources;
  let times = Array.of_list !drops in
  Array.sort Float.compare times;
  let count = Array.length times in
  {
    sent = !sent;
    sent_for_ratio = !sent_for_ratio;
    delivered = !delivered;
    unreachable = !unreachable;
    exhausted = count;
    first_exhaustion = (if count = 0 then None else Some times.(0));
    last_exhaustion = (if count = 0 then None else Some times.(count - 1));
    exhaustion_times = times;
  }

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every field, floats compared bit for bit; [None] when equal, else the
   first field that differs. *)
let replay_diff (a : Traffic.Replay.result) (b : Traffic.Replay.result) =
  let ints =
    [
      ("sent", a.sent, b.sent);
      ("sent_for_ratio", a.sent_for_ratio, b.sent_for_ratio);
      ("delivered", a.delivered, b.delivered);
      ("unreachable", a.unreachable, b.unreachable);
      ("exhausted", a.exhausted, b.exhausted);
    ]
  in
  match List.find_opt (fun (_, x, y) -> x <> y) ints with
  | Some (name, x, y) -> Some (Printf.sprintf "%s: %d vs %d" name x y)
  | None ->
      if not (Option.equal same_float a.first_exhaustion b.first_exhaustion)
      then Some "first_exhaustion"
      else if not (Option.equal same_float a.last_exhaustion b.last_exhaustion)
      then Some "last_exhaustion"
      else if
        Array.length a.exhaustion_times <> Array.length b.exhaustion_times
        || not (Array.for_all2 same_float a.exhaustion_times b.exhaustion_times)
      then Some "exhaustion_times"
      else None

let same_fate (a : Traffic.Forwarder.fate) (b : Traffic.Forwarder.fate) =
  match (a, b) with
  | Delivered x, Delivered y -> same_float x.time y.time && x.hops = y.hops
  | Ttl_exhausted x, Ttl_exhausted y ->
      same_float x.time y.time && x.at_node = y.at_node
  | Unreachable x, Unreachable y ->
      same_float x.time y.time && x.at_node = y.at_node
  | _ -> false

type case = {
  n : int;
  origin : int;
  changes : (float * int * int option) list;  (** recorded in this order *)
  link_delay : float;
  ttl : int;
  rate : float;
  window : float * float;
  seed : int;
  ratio_cutoff : float option;
  sources : int list option;
  probes : (int * float) list;  (** single packets: source, send time *)
}

let print_case c =
  let hop = function None -> "-" | Some h -> string_of_int h in
  Printf.sprintf
    "n=%d origin=%d link_delay=%h ttl=%d rate=%g window=(%h,%h) seed=%d \
     cutoff=%s sources=%s\nchanges=[%s]\nprobes=[%s]"
    c.n c.origin c.link_delay c.ttl c.rate (fst c.window) (snd c.window) c.seed
    (match c.ratio_cutoff with None -> "-" | Some x -> Printf.sprintf "%h" x)
    (match c.sources with
    | None -> "all"
    | Some l -> String.concat "," (List.map string_of_int l))
    (String.concat "; "
       (List.map
          (fun (t, v, h) -> Printf.sprintf "%h:%d->%s" t v (hop h))
          c.changes))
    (String.concat "; "
       (List.map (fun (v, t) -> Printf.sprintf "%d@%h" v t) c.probes))

(* Small FIB histories on a grid of 1/8 s, so changes share instants
   (at one node too) and, with a dyadic link delay, packets look a
   node up exactly at its change time.  Next hops include self-loops
   (cycles of length 1), the origin and "no route"; a TTL of 128 keeps
   a packet in flight across several changes. *)
let gen_case =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* origin = int_bound (n - 1) in
  let grid k = float_of_int k *. 0.125 in
  let change =
    let* v = int_bound (n - 1) in
    let* t = map grid (int_bound 24) in
    let+ h =
      frequency
        [
          (1, pure None);
          (1, pure (Some v));
          (5, map Option.some (int_bound (n - 1)));
        ]
    in
    (t, v, h)
  in
  let* initial =
    (* a route at time 0 at every node, so packets get going *)
    flatten_l
      (List.init n (fun v ->
           let+ h = int_bound (n - 1) in
           (0., v, Some h)))
  in
  let* later = list_size (int_bound 30) change in
  let changes =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (initial @ later)
  in
  let* link_delay = oneofl [ 0.1 /. 3.; 0.125; 0.002; 0.25 ] in
  let* ttl = oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 128 ] in
  let* rate = oneofl [ 2.; 7.; 10.; 30. ] in
  let* t0 = oneof [ map grid (int_bound 16); float_range 0. 2. ] in
  let* span = oneof [ pure 0.; float_range 0. 3. ] in
  let window = (t0, t0 +. span) in
  let* seed = int_bound 1000 in
  let* ratio_cutoff = opt (float_range t0 (t0 +. span)) in
  let others = List.filter (fun v -> v <> origin) (List.init n Fun.id) in
  let* sources =
    if others = [] then pure None
    else
      opt
        (let+ keep = list_repeat (List.length others) bool in
         List.filteri (fun i _ -> List.nth keep i) others)
  in
  let probe =
    if others = [] then pure (origin, 0.)
    else
      pair (oneofl others)
        (oneof [ map grid (int_bound 24); float_range 0. 3. ])
  in
  let+ probes = list_size (int_bound 40) probe in
  {
    n;
    origin;
    changes;
    link_delay;
    ttl;
    rate;
    window;
    seed;
    ratio_cutoff;
    sources;
    probes;
  }

let case_fib c = fib_with ~n:c.n c.changes

let prop_walker_matches_forwarder =
  QCheck.Test.make ~name:"walker fate = Forwarder.walk, bit for bit"
    ~count:1000 ~long_factor:10
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let fib = case_fib c in
      (* one walker for all probes: its cache carries over between
         packets, in whatever order their send times come *)
      let w =
        Traffic.Walker.create ~fib ~origin:c.origin ~link_delay:c.link_delay
          ~ttl:c.ttl
      in
      List.for_all
        (fun (src, send_time) ->
          let expected =
            Traffic.Forwarder.walk ~fib ~origin:c.origin
              ~link_delay:c.link_delay ~ttl:c.ttl ~src ~send_time
          in
          let got = Traffic.Walker.fate w ~src ~send_time in
          same_fate expected got
          || QCheck.Test.fail_reportf "packet %d@%h: expected %a, got %a" src
               send_time Traffic.Forwarder.pp_fate expected
               Traffic.Forwarder.pp_fate got)
        c.probes)

let prop_replay_matches_reference =
  QCheck.Test.make ~name:"Replay.run = Forwarder.walk replay, bit for bit"
    ~count:1000 ~long_factor:10
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let fib = case_fib c in
      let go f =
        f ~fib ~origin:c.origin ~n:c.n ~link_delay:c.link_delay ~ttl:c.ttl
          ~rate:c.rate ~window:c.window ~seed:c.seed
          ?ratio_cutoff:c.ratio_cutoff ?sources:c.sources ()
      in
      match replay_diff (go reference_replay) (go Traffic.Replay.run) with
      | None -> true
      | Some field -> QCheck.Test.fail_reportf "%s differs" field)

(* The walk 1 -> 2 -> 3 -> 2 -> 4 -> 5 -> 1 returns to 1, but node 2
   repoints from 3 to 4 between its two visits, so that lap is no cycle:
   the packet goes round 1 -> 2 -> 4 -> 5 from then on, and must be
   dropped where that cycle puts it at hop 128. *)
let test_walker_lap_is_not_a_cycle () =
  let fib =
    fib_with ~n:6
      [
        (0., 1, Some 2);
        (0., 2, Some 3);
        (0., 3, Some 2);
        (0., 4, Some 5);
        (0., 5, Some 1);
        (0.3, 2, Some 4);
      ]
  in
  let w = Traffic.Walker.create ~fib ~origin:0 ~link_delay:0.125 ~ttl:128 in
  let expected =
    walk ~fib ~origin:0 ~link_delay:0.125 ~ttl:128 ~src:1 ~send_time:0.
  in
  (match expected with
  | Traffic.Forwarder.Ttl_exhausted { at_node = 4; _ } -> ()
  | f -> Alcotest.failf "oracle: %a" Traffic.Forwarder.pp_fate f);
  let got = Traffic.Walker.fate w ~src:1 ~send_time:0. in
  if not (same_fate expected got) then
    Alcotest.failf "expected %a, got %a" Traffic.Forwarder.pp_fate expected
      Traffic.Forwarder.pp_fate got

(* The experiments' own replays: Experiment.run's result against the
   reference on the same FIB history and arguments. *)
let check_experiment_replay label spec =
  let r = Bgpsim.Experiment.run spec in
  let outcome = r.outcome in
  let params = spec.Bgpsim.Experiment.params in
  let graph, origin, _ = Bgpsim.Experiment.resolve spec in
  let expected =
    reference_replay
      ~fib:(Netcore.Trace.fib outcome.trace)
      ~origin ~n:(Topo.Graph.n_nodes graph)
      ~link_delay:params.link_delay ~ttl:params.ttl ~rate:params.pkt_rate
      ~window:(outcome.t_fail, outcome.convergence_end +. spec.replay_tail)
      ~seed:(spec.seed + 0x7ea) ~ratio_cutoff:outcome.convergence_end ()
  in
  match replay_diff expected r.replay with
  | None -> ()
  | Some field -> Alcotest.failf "%s: %s differs from the reference" label field

let test_golden_fixture_replays () =
  List.iter
    (fun (f : Bgpsim.Golden.fixture) -> check_experiment_replay f.name f.spec)
    Bgpsim.Golden.fixtures

let test_figure_replays () =
  let series stem =
    List.find
      (fun (s : Bgpsim.Figures.series) -> String.equal s.stem stem)
      Bgpsim.Figures.all
  in
  let one stem x =
    List.iter
      (fun (_, name, make) ->
        check_experiment_replay (Printf.sprintf "%s @ %g" name x) (make x))
      (Bgpsim.Figures.runs (series stem))
  in
  one "fig4a_fig6a_clique_tdown_vs_size" 10.;
  one "fig5b_fig7b_bclique10_tlong_vs_mrai" 10.;
  one "fig8cd_internet_tdown" 29.;
  one "fig9cd_internet_tlong" 29.

(* The walk allocates nothing per packet: what Replay.run allocates on
   the minor heap does not grow with the packets it sends. *)
let test_replay_allocation_free () =
  let fib = fib_with ~n:3 [ (0., 1, Some 2); (0., 2, Some 1) ] in
  let minor_words_for window =
    let before = Gc.minor_words () in
    let r =
      Traffic.Replay.run ~fib ~origin:0 ~n:3 ~link_delay:0.002 ~ttl:128
        ~rate:1000. ~window ~seed:1 ()
    in
    (Gc.minor_words () -. before, r.sent)
  in
  let small, few = minor_words_for (0., 1.) in
  let large, many = minor_words_for (0., 20.) in
  Alcotest.(check bool) "20x the packets" true (many >= 19 * few);
  if large -. small > float_of_int (many - few) /. 100. then
    Alcotest.failf "%.0f minor words for %d packets, %.0f for %d" small few
      large many

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "traffic"
    [
      ( "forwarder",
        [
          tc "delivers along a chain" test_walk_delivers;
          tc "zero-hop at origin" test_walk_at_origin;
          tc "unreachable" test_walk_unreachable;
          tc "loop exhausts TTL in 256 ms" test_walk_loop_exhausts_ttl;
          tc "escapes a resolving loop" test_walk_escapes_resolving_loop;
          tc "TTL boundary" test_walk_ttl_boundary;
          tc "validation" test_walk_validation;
        ] );
      ( "replay",
        [
          tc "counts and rate" test_replay_counts_and_rate;
          tc "looping window" test_replay_loop_window;
          tc "ratio cutoff" test_replay_ratio_cutoff;
          tc "source subset" test_replay_sources_subset;
          tc "deterministic" test_replay_deterministic;
          tc "empty window" test_replay_empty_window;
          tc "validation" test_replay_validation;
          tc "exhaustion times sorted" test_replay_exhaustion_times_sorted;
          tc "fate time accessor" test_fate_time_accessor;
          tc "sparse rate" test_replay_sparse_rate;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_walker_matches_forwarder;
          QCheck_alcotest.to_alcotest prop_replay_matches_reference;
          tc "a lap that is no cycle" test_walker_lap_is_not_a_cycle;
          tc "golden fixtures" test_golden_fixture_replays;
          tc "figure catalogue specs" test_figure_replays;
          tc "allocation-free walk" test_replay_allocation_free;
        ] );
      ( "per-source",
        [
          tc "totals match aggregate replay" test_per_source_totals_match_replay;
          tc "identifies affected sources" test_per_source_identifies_affected;
          tc "paper footnote 4 on b-clique" test_per_source_footnote4_b_clique;
          tc "rejects the origin as a source" test_per_source_rejects_origin;
          tc "rejects an out-of-range source"
            test_per_source_rejects_out_of_range;
        ] );
    ]
