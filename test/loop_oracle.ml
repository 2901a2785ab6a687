(* Brute-force reference for Loopscan: after every FIB change it
   recomputes all cycles of the per-destination next-hop graph from
   scratch and diffs the cycle sets.  It shares no code with the
   incremental tracker ([Loopscan.Stream]); the tests compare the two.

   A [Fib_history] holds no no-op changes, so every change alters the
   graph and set difference names exactly the loops it killed (the
   changed node's) and formed (through the changed node). *)

let fmt = Printf.sprintf

(* A cycle's member list in forwarding order, rotated to start at its
   smallest member. *)
let rotate_to_min cycle =
  let m = List.fold_left min max_int cycle in
  let rec go before = function
    | x :: rest when x <> m -> go (x :: before) rest
    | from_min -> from_min @ List.rev before
  in
  go [] cycle

(* Every cycle of the functional graph [next_hop], the origin having
   no out-edge, in O(n): a walk marks its nodes and stops at the
   origin, at a routeless node, at a node an earlier walk finished, or
   on meeting itself — which closes a cycle. *)
let cycles ~origin next_hop =
  let state = Array.make (Array.length next_hop) `Fresh in
  let found = ref [] in
  Array.iteri
    (fun start _ ->
      (* [path] is the walk so far, most recent node first *)
      let rec walk v path =
        if v = origin then path
        else
          match state.(v) with
          | `Done -> path
          | `On_walk ->
              let rec back_to_v acc = function
                | u :: rest when u <> v -> back_to_v (u :: acc) rest
                | _ -> v :: acc
              in
              found := rotate_to_min (back_to_v [] path) :: !found;
              path
          | `Fresh -> (
              state.(v) <- `On_walk;
              match next_hop.(v) with
              | None -> v :: path
              | Some w -> walk w (v :: path))
      in
      List.iter (fun v -> state.(v) <- `Done) (walk start []))
    next_hop;
  !found

type entry = {
  members : int list;
  birth : float;
  trigger : int;
  mutable death : float option;
}

(* What [Loopscan.Scanner.scan ~fib ~origin ~from ()] must return. *)
let report ~fib ~origin ~from : Loopscan.Scanner.report =
  let next_hop = Netcore.Fib_history.snapshot fib ~before:from in
  if origin < 0 || origin >= Array.length next_hop then
    invalid_arg "Loop_oracle.report: bad origin";
  if cycles ~origin next_hop <> [] then
    invalid_arg "Loop_oracle.report: starting state contains a loop";
  let born_rev = ref [] and live = ref [] and max_concurrent = ref 0 in
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      next_hop.(c.node) <- c.next_hop;
      let now = cycles ~origin next_hop in
      List.iter
        (fun e -> if not (List.mem e.members now) then e.death <- Some c.time)
        !live;
      let survivors = List.filter (fun e -> e.death = None) !live in
      let fresh =
        List.filter_map
          (fun members ->
            if List.exists (fun e -> e.members = members) survivors then None
            else Some { members; birth = c.time; trigger = c.node; death = None })
          now
      in
      born_rev := List.rev_append fresh !born_rev;
      live := survivors @ fresh;
      max_concurrent := max !max_concurrent (List.length !live))
    (Netcore.Fib_history.changes_from fib ~from);
  let loops =
    List.rev_map
      (fun e ->
        {
          Loopscan.Scanner.members = e.members;
          birth = e.birth;
          death = e.death;
          trigger = e.trigger;
        })
      !born_rev
    |> List.stable_sort (fun (a : Loopscan.Scanner.loop) b ->
           compare (a.birth, a.members) (b.birth, b.members))
  in
  let deaths = List.map (fun (l : Loopscan.Scanner.loop) -> l.death) loops in
  {
    loops;
    first_loop_birth =
      (match loops with [] -> None | l :: _ -> Some l.birth);
    last_loop_death =
      (if loops = [] || List.mem None deaths then None
       else List.fold_left max None deaths);
    max_concurrent = !max_concurrent;
  }

(* What [Loopscan.Stream.totals ~until] must return after the same
   changes, derived from the oracle's report. *)
let totals (r : Loopscan.Scanner.report) ~until : Loopscan.Stream.totals =
  let count p = List.length (List.filter p r.loops) in
  let sizes = List.map Loopscan.Scanner.size r.loops in
  let started = List.length r.loops in
  {
    loops_started = started;
    loops_resolved = count (fun l -> l.death <> None);
    live_now = count (fun l -> l.death = None);
    max_concurrent = r.max_concurrent;
    max_size = List.fold_left max 0 sizes;
    mean_size =
      (if started = 0 then 0.
       else float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int started);
    total_loop_seconds =
      List.fold_left
        (fun acc l -> acc +. Loopscan.Scanner.duration l ~until)
        0. r.loops;
    first_loop_birth = r.first_loop_birth;
    last_loop_death = r.last_loop_death;
  }

(* The side [totals] is checked against: a bounded-memory stream fed
   the same changes one at a time. *)
let stream_totals ~fib ~origin ~from ~until =
  let stream =
    Loopscan.Stream.create ~origin
      ~initial:(Netcore.Fib_history.snapshot fib ~before:from)
      ()
  in
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      Loopscan.Stream.observe stream ~time:c.time ~node:c.node
        ~next_hop:c.next_hop)
    (Netcore.Fib_history.changes_from fib ~from);
  Loopscan.Stream.totals stream ~until

(* Exact-float renderings: times must match bit for bit. *)
let loop_repr (l : Loopscan.Scanner.loop) =
  fmt "members=%s trigger=%d birth=%h death=%s"
    (String.concat "," (List.map string_of_int l.members))
    l.trigger l.birth
    (match l.death with None -> "alive" | Some d -> fmt "%h" d)

let report_repr (r : Loopscan.Scanner.report) =
  let time = function None -> "-" | Some t -> fmt "%h" t in
  fmt "max_concurrent=%d first_birth=%s last_death=%s" r.max_concurrent
    (time r.first_loop_birth) (time r.last_loop_death)
  :: List.map loop_repr r.loops

(* Every field exact except [total_loop_seconds], a float sum whose
   order differs between the two sides. *)
let totals_agree (a : Loopscan.Stream.totals) (b : Loopscan.Stream.totals) =
  let close x y = Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x) in
  { a with total_loop_seconds = 0. } = { b with total_loop_seconds = 0. }
  && close a.total_loop_seconds b.total_loop_seconds

let totals_repr (t : Loopscan.Stream.totals) =
  let time = function None -> "-" | Some t -> fmt "%h" t in
  fmt
    "started=%d resolved=%d live=%d max_concurrent=%d max_size=%d \
     mean_size=%h loop_seconds=%g first_birth=%s last_death=%s"
    t.loops_started t.loops_resolved t.live_now t.max_concurrent t.max_size
    t.mean_size t.total_loop_seconds (time t.first_loop_birth)
    (time t.last_loop_death)
