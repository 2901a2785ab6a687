(* Loop tracking over a stream of FIB changes: the one implementation
   of the algorithm.  [Scanner.scan] is a fold of [observe] over a
   recorded history; churn and mesh runs feed it online.  The test
   suite checks it against a brute-force cycle oracle
   (test/loop_oracle.ml) that recomputes every cycle after every
   change.

   The state is deliberately plain data (no closures, no Vec): churn
   checkpoints Marshal it directly.  The observability bus is passed
   per [observe] call rather than stored, for the same reason. *)

type loop = {
  members : int list;
  birth : float;
  death : float option;
  trigger : int;
}

type report = {
  loops : loop list;
  first_loop_birth : float option;
  last_loop_death : float option;
  max_concurrent : int;
}

(* A live loop. *)
type live = { l_members : int list; l_birth : float; l_trigger : int }

type t = {
  origin : int;
  next_hop : int option array;
  (* node -> the live loop it belongs to, if any *)
  member_of : live option array;
  mutable alive : int;
  mutable max_alive : int;
  record : bool;
  mutable finished_rev : loop list;  (* only when [record] *)
  (* bounded-memory aggregates, maintained in both modes *)
  mutable started : int;
  mutable resolved : int;
  mutable sum_size : int;
  mutable max_size : int;
  mutable finished_loop_seconds : float;
  mutable first_loop_birth : float option;
  mutable last_loop_death : float option;
}

(* Rotate a cycle so it starts at its smallest member; forwarding order
   is preserved. *)
let canonicalize cycle =
  let arr = Array.of_list cycle in
  let n = Array.length arr in
  let start = ref 0 in
  for i = 1 to n - 1 do
    if arr.(i) < arr.(!start) then start := i
  done;
  List.init n (fun i -> arr.((!start + i) mod n))

(* Chase the next-hop chain from [v]; if it returns to [v], the nodes
   visited so far form a new cycle through [v].  The chain can otherwise
   end at the origin, at a routeless node, or merge into an existing
   loop (or a tail leading to one) — none of which creates a new loop.
   Callers keep every cycle that avoids the origin registered, so any
   cycle the chase meets runs through [v]; the walk is bounded by n
   hops since every revisit is caught. *)
let find_new_cycle t v =
  let n = Array.length t.next_hop in
  let rec chase node acc steps =
    if steps > n then assert false
    else if node = t.origin then None
    else if t.member_of.(node) <> None then None
    else
      match t.next_hop.(node) with
      | None -> None
      | Some next ->
          if next = v then Some (List.rev (node :: acc))
          else if List.mem next acc || next = node then assert false
          else chase next (node :: acc) (steps + 1)
  in
  if t.member_of.(v) <> None then None else chase v [] 0

let kill t ~time live =
  List.iter (fun v -> t.member_of.(v) <- None) live.l_members;
  t.alive <- t.alive - 1;
  t.resolved <- t.resolved + 1;
  t.finished_loop_seconds <-
    t.finished_loop_seconds +. (time -. live.l_birth);
  (t.last_loop_death <-
     match t.last_loop_death with
     | Some d when d >= time -> t.last_loop_death
     | _ -> Some time);
  if t.record then
    t.finished_rev <-
      {
        members = live.l_members;
        birth = live.l_birth;
        death = Some time;
        trigger = live.l_trigger;
      }
      :: t.finished_rev

let register t ~time ~trigger cycle =
  let live =
    { l_members = canonicalize cycle; l_birth = time; l_trigger = trigger }
  in
  List.iter (fun v -> t.member_of.(v) <- Some live) live.l_members;
  t.alive <- t.alive + 1;
  if t.alive > t.max_alive then t.max_alive <- t.alive;
  t.started <- t.started + 1;
  let sz = List.length live.l_members in
  t.sum_size <- t.sum_size + sz;
  if sz > t.max_size then t.max_size <- sz;
  if t.first_loop_birth = None then t.first_loop_birth <- Some time;
  live

let create ?(record = false) ~origin ~initial () =
  let n = Array.length initial in
  if origin < 0 || origin >= n then invalid_arg "Stream.create: bad origin";
  let t =
    {
      origin;
      next_hop = Array.make n None;
      member_of = Array.make n None;
      alive = 0;
      max_alive = 0;
      record;
      finished_rev = [];
      started = 0;
      resolved = 0;
      sum_size = 0;
      max_size = 0;
      finished_loop_seconds = 0.;
      first_loop_birth = None;
      last_loop_death = None;
    }
  in
  (* Install the starting edges one at a time: a cycle can only close
     through the edge just added, which the chase from its node finds,
     so a loop anywhere in [initial] (a tail into it included) is
     caught at the edge that closes it. *)
  Array.iteri
    (fun v hop ->
      t.next_hop.(v) <- hop;
      if find_new_cycle t v <> None then
        invalid_arg "Stream.create: starting state contains a loop")
    initial;
  t

let observe ?(obs = Obs.Bus.off) ?prefix t ~time ~node ~next_hop =
  (match t.member_of.(node) with
  | Some live ->
      Obs.Bus.loop_resolved ?prefix obs ~time ~members:live.l_members;
      kill t ~time live
  | None -> ());
  t.next_hop.(node) <- next_hop;
  match find_new_cycle t node with
  | None -> ()
  | Some cycle ->
      let live = register t ~time ~trigger:node cycle in
      Obs.Bus.loop_detected ?prefix obs ~time ~members:live.l_members
        ~trigger:node

let live_loops t = t.alive
let n_nodes t = Array.length t.next_hop
let fib t node = t.next_hop.(node)

(* The live loops, each once (at its smallest member), by that member. *)
let survivors t =
  let acc = ref [] in
  for v = Array.length t.member_of - 1 downto 0 do
    match t.member_of.(v) with
    | Some live when List.hd live.l_members = v -> acc := live :: !acc
    | Some _ | None -> ()
  done;
  !acc

(* With a loop still alive there is no meaningful "last death". *)
let last_death t = if t.alive > 0 then None else t.last_loop_death

type totals = {
  loops_started : int;
  loops_resolved : int;
  live_now : int;
  max_concurrent : int;
  max_size : int;
  mean_size : float;
  total_loop_seconds : float;
      (* finished loops, plus survivors charged up to [until] *)
  first_loop_birth : float option;
  last_loop_death : float option;
}

let totals t ~until =
  let survivor_seconds =
    List.fold_left
      (fun acc live -> acc +. (until -. live.l_birth))
      0. (survivors t)
  in
  {
    loops_started = t.started;
    loops_resolved = t.resolved;
    live_now = t.alive;
    max_concurrent = t.max_alive;
    max_size = t.max_size;
    mean_size =
      (if t.started = 0 then 0.
       else float_of_int t.sum_size /. float_of_int t.started);
    total_loop_seconds = t.finished_loop_seconds +. survivor_seconds;
    first_loop_birth = t.first_loop_birth;
    last_loop_death = last_death t;
  }

let report t : report =
  if not t.record then
    invalid_arg "Stream.report: scanner was created without ~record:true";
  let alive =
    List.map
      (fun live ->
        {
          members = live.l_members;
          birth = live.l_birth;
          death = None;
          trigger = live.l_trigger;
        })
      (survivors t)
  in
  (* finished loops in kill order, then survivors; the stable sort
     keeps that order among equal (birth, members) *)
  let loops =
    List.stable_sort
      (fun a b -> compare (a.birth, a.members) (b.birth, b.members))
      (List.rev_append t.finished_rev alive)
  in
  {
    loops;
    first_loop_birth = t.first_loop_birth;
    last_loop_death = last_death t;
    max_concurrent = t.max_alive;
  }
