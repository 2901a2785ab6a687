(* Tests for the forwarding-loop scanner: loop birth/death tracking
   over hand-built FIB histories, canonical representation, concurrent
   loops and aggregates. *)

let fib_with ~n changes =
  let fib = Netcore.Fib_history.create ~n in
  List.iter
    (fun (time, node, next_hop) ->
      Netcore.Fib_history.record fib ~time ~node ~next_hop)
    changes;
  fib

let scan ?(from = 10.) ~n changes =
  Loopscan.Scanner.scan ~fib:(fib_with ~n changes) ~origin:0 ~from ()

(* --- basic lifecycle --- *)

let test_no_loops_in_stable_run () =
  let report =
    scan ~n:3 [ (0., 1, Some 0); (0., 2, Some 1); (11., 2, Some 0) ]
  in
  Alcotest.(check int) "no loops" 0 (List.length report.loops);
  Alcotest.(check bool) "no birth" true (report.first_loop_birth = None);
  Alcotest.(check int) "no concurrency" 0 report.max_concurrent

let test_two_node_loop_lifecycle () =
  (* warm-up: 1 -> 0 and 2 -> 1; at t=10, node 1 repoints to 2 (loop
     1 <-> 2); at t=15, node 2 repoints to 0 (loop dies) *)
  let report =
    scan ~n:3
      [ (0., 1, Some 0); (0., 2, Some 1); (10., 1, Some 2); (15., 2, Some 0) ]
  in
  (match report.loops with
  | [ l ] ->
      Alcotest.(check (list int)) "members" [ 1; 2 ] l.members;
      Alcotest.(check (float 0.)) "birth" 10. l.birth;
      Alcotest.(check bool) "death" true (l.death = Some 15.);
      Alcotest.(check int) "size" 2 (Loopscan.Scanner.size l);
      Alcotest.(check (float 0.)) "duration" 5.
        (Loopscan.Scanner.duration l ~until:100.)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls));
  Alcotest.(check bool) "first birth" true (report.first_loop_birth = Some 10.);
  Alcotest.(check bool) "last death" true (report.last_loop_death = Some 15.);
  Alcotest.(check int) "one at a time" 1 report.max_concurrent

let test_loop_survives_scan () =
  let report = scan ~n:3 [ (0., 2, Some 1); (0., 1, Some 0); (12., 1, Some 2) ] in
  (match report.loops with
  | [ l ] ->
      Alcotest.(check bool) "alive" true (l.death = None);
      Alcotest.(check (float 0.)) "duration uses until" 8.
        (Loopscan.Scanner.duration l ~until:20.)
  | _ -> Alcotest.fail "expected one surviving loop");
  Alcotest.(check bool) "no last death with survivor" true
    (report.last_loop_death = None)

let test_three_node_loop () =
  (* 1 -> 2 -> 3 -> 1 formed by 3's change at t=11 *)
  let report =
    scan ~n:4
      [
        (0., 1, Some 2);
        (0., 2, Some 3);
        (0., 3, Some 0);
        (11., 3, Some 1);
      ]
  in
  match report.loops with
  | [ l ] ->
      Alcotest.(check (list int)) "forwarding order from min" [ 1; 2; 3 ]
        l.members;
      Alcotest.(check int) "size" 3 (Loopscan.Scanner.size l)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let test_canonical_rotation () =
  (* same cycle, formed by a different node's change: members list must
     still start at the smallest node *)
  let report =
    scan ~n:4
      [
        (0., 2, Some 3);
        (0., 3, Some 1);
        (0., 1, Some 0);
        (11., 1, Some 2);
      ]
  in
  match report.loops with
  | [ l ] -> Alcotest.(check (list int)) "canonical" [ 1; 2; 3 ] l.members
  | _ -> Alcotest.fail "expected one loop"

let test_concurrent_disjoint_loops () =
  (* two disjoint 2-node loops alive simultaneously *)
  let report =
    scan ~n:5
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 0);
        (0., 4, Some 3);
        (10., 1, Some 2);
        (11., 3, Some 4);
        (14., 1, Some 0);
        (16., 3, Some 0);
      ]
  in
  Alcotest.(check int) "two loops" 2 (List.length report.loops);
  Alcotest.(check int) "concurrent" 2 report.max_concurrent;
  Alcotest.(check bool) "last death" true (report.last_loop_death = Some 16.)

let test_sequential_loops_on_same_nodes () =
  (* the same pair loops, resolves, then loops again: two distinct loop
     records — the paper's "resolution of one loop could result in
     another (but different) loop" *)
  let report =
    scan ~n:3
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (10., 1, Some 2);
        (12., 1, Some 0);
        (14., 1, Some 2);
        (15., 1, Some 0);
      ]
  in
  Alcotest.(check int) "two episodes" 2 (List.length report.loops);
  Alcotest.(check int) "never concurrent" 1 report.max_concurrent;
  match report.loops with
  | [ a; b ] ->
      Alcotest.(check (list int)) "same members" a.members b.members;
      Alcotest.(check bool) "ordered by birth" true (a.birth < b.birth)
  | _ -> Alcotest.fail "expected two loops"

let test_tail_into_loop_not_a_member () =
  (* 3 -> 1 -> 2 -> 1: node 3 is on a tail into the loop, not in it *)
  let report =
    scan ~n:4
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 1);
        (10., 1, Some 2);
      ]
  in
  match report.loops with
  | [ l ] -> Alcotest.(check (list int)) "tail excluded" [ 1; 2 ] l.members
  | _ -> Alcotest.fail "expected one loop"

let test_rejects_looped_start () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (scan ~n:3 [ (0., 1, Some 2); (0., 2, Some 1) ]);
       false
     with Invalid_argument _ -> true)

(* 1 -> 2 -> 3 -> 2: the start holds a loop that the chase from node
   1 reaches only through a tail *)
let test_rejects_loop_behind_tail () =
  let initial = [| None; Some 2; Some 3; Some 2 |] in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "scan raises" true
    (raises (fun () ->
         scan ~n:4 [ (0., 1, Some 2); (0., 2, Some 3); (0., 3, Some 2) ]));
  Alcotest.(check bool) "stream raises" true
    (raises (fun () -> Loopscan.Stream.create ~origin:0 ~initial ()))

let test_rejects_bad_origin () =
  let fib = fib_with ~n:3 [ (0., 1, Some 0); (0., 2, Some 1) ] in
  List.iter
    (fun origin ->
      Alcotest.(check bool) (Printf.sprintf "origin %d" origin) true
        (match Loopscan.Scanner.scan ~fib ~origin ~from:1. () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ -1; 3 ]

let test_change_killing_and_reforming_at_once () =
  (* node 1 changes its next hop from one loop-mate to another at the
     same instant: old loop dies at t, new loop (1,3) born at t *)
  let report =
    scan ~n:4
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 1);
        (10., 1, Some 2);
        (13., 1, Some 3);
      ]
  in
  Alcotest.(check int) "two loops" 2 (List.length report.loops);
  match report.loops with
  | [ a; b ] ->
      Alcotest.(check (list int)) "first" [ 1; 2 ] a.members;
      Alcotest.(check bool) "first dies at 13" true (a.death = Some 13.);
      Alcotest.(check (list int)) "second" [ 1; 3 ] b.members;
      Alcotest.(check (float 0.)) "second born at 13" 13. b.birth
  | _ -> Alcotest.fail "expected two loops"

(* --- aggregates --- *)

let test_aggregate_empty () =
  let report = scan ~n:2 [ (0., 1, Some 0) ] in
  let a = Loopscan.Scanner.aggregate report ~until:100. in
  Alcotest.(check int) "count" 0 a.count;
  Alcotest.(check (float 0.)) "total" 0. a.total_loop_seconds

let test_aggregate_math () =
  let report =
    scan ~n:5
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 0);
        (0., 4, Some 3);
        (10., 1, Some 2);
        (* 2-node loop alive 10..14 = 4s *)
        (11., 3, Some 4);
        (* 2-node loop alive 11..17 = 6s *)
        (14., 1, Some 0);
        (17., 3, Some 0);
      ]
  in
  let a = Loopscan.Scanner.aggregate report ~until:100. in
  Alcotest.(check int) "count" 2 a.count;
  Alcotest.(check (float 1e-9)) "mean size" 2. a.mean_size;
  Alcotest.(check int) "max size" 2 a.max_size;
  Alcotest.(check (float 1e-9)) "mean duration" 5. a.mean_duration;
  Alcotest.(check (float 1e-9)) "max duration" 6. a.max_duration;
  Alcotest.(check (float 1e-9)) "total" 10. a.total_loop_seconds

(* --- trigger attribution and cause classification --- *)

let test_trigger_node_recorded () =
  let report =
    scan ~n:3
      [ (0., 1, Some 0); (0., 2, Some 1); (10., 1, Some 2) ]
  in
  match report.loops with
  | [ l ] -> Alcotest.(check int) "trigger is the changing node" 1 l.trigger
  | _ -> Alcotest.fail "expected one loop"

let test_causes_classification () =
  let fib =
    fib_with ~n:4
      [
        (0., 1, Some 0);
        (0., 2, Some 1);
        (0., 3, Some 1);
        (10., 1, Some 2);
        (* withdrawal-triggered: 1 processed a withdrawal at 10 *)
        (12., 1, Some 0);
        (14., 1, Some 3);
        (* announcement-triggered at 14 *)
        (16., 1, Some 0);
        (18., 1, Some 3);
        (* no message at 18: session-triggered *)
      ]
  in
  let trace = Netcore.Trace.create ~n:4 in
  Netcore.Trace.log_process trace ~time:10. ~node:1 ~from:0
    ~kind:Netcore.Trace.Withdraw;
  Netcore.Trace.log_process trace ~time:14. ~node:1 ~from:2
    ~kind:Netcore.Trace.Announce;
  let report = Loopscan.Scanner.scan ~fib ~origin:0 ~from:5. () in
  let classified = Loopscan.Causes.classify ~trace report in
  let causes = List.map snd classified in
  Alcotest.(check (list string))
    "causes in birth order"
    [ "withdrawal"; "announcement"; "session-event" ]
    (List.map Loopscan.Causes.cause_name causes);
  let b = Loopscan.Causes.breakdown classified in
  Alcotest.(check int) "withdrawals" 1 b.withdrawal_triggered;
  Alcotest.(check int) "announcements" 1 b.announcement_triggered;
  Alcotest.(check int) "sessions" 1 b.session_triggered

let test_causes_on_real_run () =
  (* T_long at the paper's Figure 1: the 5<->6 loop forms when node 5
     (or 6) falls back after processing node 4's withdrawal *)
  let graph =
    Topo.Graph.create ~n:7
      ~edges:[ (0, 4); (4, 5); (4, 6); (5, 6); (6, 3); (3, 2); (2, 1); (1, 0) ]
  in
  let o =
    Bgp.Routing_sim.run ~graph ~origin:0
      ~event:(Bgp.Routing_sim.Tlong { a = 0; b = 4 })
      ~seed:1 ()
  in
  let report =
    Loopscan.Scanner.scan ~fib:(Netcore.Trace.fib o.trace) ~origin:0
      ~from:o.t_fail ()
  in
  let classified = Loopscan.Causes.classify ~trace:o.trace report in
  let b = Loopscan.Causes.breakdown classified in
  Alcotest.(check bool) "loops were found" true (report.loops <> []);
  Alcotest.(check int) "every loop has a message trigger"
    (List.length report.loops)
    (b.withdrawal_triggered + b.announcement_triggered)

(* --- property: scanner agrees with packet fates --- *)

let prop_scanner_consistent_with_forwarder =
  (* On random FIB evolutions over small graphs: whenever the scanner
     says no loop is alive at time t, a packet walk started then from
     any node must terminate (delivered or unreachable, not TTL
     exhaustion with a huge TTL). *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 25)
          (triple (float_range 10. 50.) (int_range 1 4)
             (opt (int_range 0 4))))
  in
  QCheck.Test.make ~name:"no live loop => every walk terminates" ~count:100 gen
    (fun raw_changes ->
      let changes =
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) raw_changes
        |> List.filter (fun (_, node, nh) -> nh <> Some node)
      in
      let fib = fib_with ~n:5 changes in
      let report = Loopscan.Scanner.scan ~fib ~origin:0 ~from:0. () in
      let alive_at t =
        List.exists
          (fun (l : Loopscan.Scanner.loop) ->
            l.birth <= t && match l.death with None -> true | Some d -> d > t)
          report.loops
      in
      List.for_all
        (fun t ->
          alive_at t
          || List.for_all
               (fun src ->
                 match
                   Traffic.Forwarder.walk ~fib ~origin:0 ~link_delay:1e-9
                     ~ttl:1000 ~src ~send_time:t
                 with
                 | Traffic.Forwarder.Ttl_exhausted _ -> false
                 | Traffic.Forwarder.Delivered _
                 | Traffic.Forwarder.Unreachable _ ->
                     true)
               [ 1; 2; 3; 4 ])
        [ 60.; 70. ])

(* --- property: scan = brute-force cycle oracle --- *)

(* Random histories on a 1/8 s grid: changes share instants (at one
   node too), next hops include self-loops and [None], the origin may
   have a next hop, and [from] falls anywhere — a looped start
   included, which both sides must reject. *)
let arb_history =
  let open QCheck.Gen in
  let gen =
    int_range 1 8 >>= fun n ->
    let node = int_range 0 (n - 1) in
    quad (return n) node
      (list_size (int_range 0 40) (triple (int_range 0 16) node (opt node)))
      (int_range 0 18)
  in
  let print (n, origin, changes, from) =
    Printf.sprintf "n=%d origin=%d from=%d/8 changes=[%s]" n origin from
      (String.concat "; "
         (List.map
            (fun (tick, node, hop) ->
              Printf.sprintf "%d/8:%d->%s" tick node
                (match hop with None -> "-" | Some h -> string_of_int h))
            changes))
  in
  QCheck.make ~print gen

let prop_scan_matches_oracle =
  QCheck.Test.make ~name:"scan = brute-force cycle oracle" ~count:1000
    ~long_factor:10 arb_history (fun (n, origin, changes, from_tick) ->
      let grid tick = float_of_int tick /. 8. in
      let fib =
        List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) changes
        |> List.map (fun (tick, node, hop) -> (grid tick, node, hop))
        |> fib_with ~n
      in
      let from = grid from_tick in
      let attempt f =
        match f () with r -> Some r | exception Invalid_argument _ -> None
      in
      match
        ( attempt (fun () -> Loop_oracle.report ~fib ~origin ~from),
          attempt (fun () -> Loopscan.Scanner.scan ~fib ~origin ~from ()) )
      with
      | None, None -> true
      | Some want, Some got when want = got ->
          let want = Loop_oracle.totals want ~until:3.
          and got = Loop_oracle.stream_totals ~fib ~origin ~from ~until:3. in
          Loop_oracle.totals_agree want got
          || QCheck.Test.fail_reportf "totals: oracle %s, stream %s"
               (Loop_oracle.totals_repr want) (Loop_oracle.totals_repr got)
      | want, got ->
          let show = function
            | None -> "Invalid_argument"
            | Some r -> String.concat "\n  " (Loop_oracle.report_repr r)
          in
          QCheck.Test.fail_reportf "oracle:\n  %s\nscan:\n  %s" (show want)
            (show got))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "loopscan"
    [
      ( "lifecycle",
        [
          tc "stable run has no loops" test_no_loops_in_stable_run;
          tc "two-node loop lifecycle" test_two_node_loop_lifecycle;
          tc "loop survives the scan" test_loop_survives_scan;
          tc "three-node loop" test_three_node_loop;
          tc "canonical rotation" test_canonical_rotation;
          tc "concurrent disjoint loops" test_concurrent_disjoint_loops;
          tc "sequential loops on same nodes"
            test_sequential_loops_on_same_nodes;
          tc "tails are not members" test_tail_into_loop_not_a_member;
          tc "rejects looped starting state" test_rejects_looped_start;
          tc "kill and re-form at one instant"
            test_change_killing_and_reforming_at_once;
          tc "rejects a loop reached through a tail"
            test_rejects_loop_behind_tail;
          tc "rejects an out-of-range origin" test_rejects_bad_origin;
        ] );
      ( "aggregate",
        [
          tc "empty" test_aggregate_empty;
          tc "arithmetic" test_aggregate_math;
        ] );
      ( "causes",
        [
          tc "trigger node recorded" test_trigger_node_recorded;
          tc "classification from process log" test_causes_classification;
          tc "figure-1 run classifies fully" test_causes_on_real_run;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_scanner_consistent_with_forwarder;
          QCheck_alcotest.to_alcotest prop_scan_matches_oracle;
        ] );
    ]
