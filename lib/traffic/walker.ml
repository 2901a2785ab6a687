(* Fate codes returned by [walk]. *)
let delivered = 0

let unreachable = 1

let exhausted = 2

(* The next hop of a node without a route. *)
let no_route = -1

type t = {
  origin : int;
  link_delay : float;
  ttl : int;
  times : Float.Array.t array;
      (* per node: change times, non-decreasing, in recording order *)
  hops : int array array;
      (* per node: the next hop each change installs, or [no_route] *)
  lo : Float.Array.t;
  hi : Float.Array.t;
  next : int array;
      (* per node: the interval [lo, hi) in effect at its last lookup,
         and the next hop throughout it *)
  stamp : int array;  (* per node: the last packet that visited it ... *)
  seen : int array;  (* ... and the hop at which it did *)
  path : int array;  (* the packet's recent nodes, at [hop land mask] *)
  mask : int;
  mutable packet : int;
  clock : Float.Array.t;
      (* [0]: the send time [walk] reads; [1]: the fate time it writes.
         Floats cross the call through here, so it boxes none. *)
  mutable at_node : int;
  mutable hops_taken : int;
}

let create ~fib ~origin ~link_delay ~ttl =
  let n = Netcore.Fib_history.n_nodes fib in
  let changes = Netcore.Fib_history.changes_from fib ~from:neg_infinity in
  let count = Array.make n 0 in
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      count.(c.node) <- count.(c.node) + 1)
    changes;
  let times = Array.map (fun k -> Float.Array.make k 0.) count in
  let hops = Array.map (fun k -> Array.make k no_route) count in
  let filled = Array.make n 0 in
  List.iter
    (fun (c : Netcore.Fib_history.change) ->
      let i = filled.(c.node) in
      Float.Array.set times.(c.node) i c.time;
      hops.(c.node).(i) <-
        (match c.next_hop with
        | None -> no_route
        | Some h when h < 0 ->
            invalid_arg
              (Printf.sprintf "Walker: node %d forwards to node %d" c.node h)
        | Some h -> h);
      filled.(c.node) <- i + 1)
    changes;
  let cap = ref 1 in
  while !cap <= n do
    cap := 2 * !cap
  done;
  {
    origin;
    link_delay;
    ttl;
    times;
    hops;
    (* an empty interval: the first lookup at each node misses *)
    lo = Float.Array.make n infinity;
    hi = Float.Array.make n neg_infinity;
    next = Array.make n no_route;
    stamp = Array.make n 0;
    seen = Array.make n 0;
    path = Array.make !cap 0;
    mask = !cap - 1;
    packet = 0;
    clock = Float.Array.make 2 0.;
    at_node = -1;
    hops_taken = 0;
  }

(* Cache miss at [v]: find the interval holding [clock.(1)] by the same
   binary search as [Fib_history.lookup], the latest change at or
   before it. *)
let refill w v =
  let time = Float.Array.unsafe_get w.clock 1 in
  let ts = w.times.(v) in
  let m = Float.Array.length ts in
  let lo = ref (-1) and hi = ref (m - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Float.Array.unsafe_get ts mid <= time then lo := mid else hi := mid - 1
  done;
  let i = !lo in
  if i < 0 then begin
    Float.Array.unsafe_set w.lo v neg_infinity;
    w.next.(v) <- no_route
  end
  else begin
    Float.Array.unsafe_set w.lo v (Float.Array.unsafe_get ts i);
    w.next.(v) <- w.hops.(v).(i)
  end;
  Float.Array.unsafe_set w.hi v
    (if i + 1 < m then Float.Array.unsafe_get ts (i + 1) else infinity)

(* One packet from [src], sent at [clock.(0)]: the same fate as
   [Forwarder.walk], as a code, with its time in [clock.(1)] and its
   node in [at_node].

   Cycle skip.  Re-entering a node [v] last seen at hop [h0] closes a
   lap [path.(h0) .. path.(h - 1)] of length [len].  If the lap is
   simple, every node on it was looked up once in it and its cached
   interval holds that lookup's time; every later lookup comes later.
   So if the last lookup the packet still has to make, at [t_last], is
   before the earliest cached [hi] on the lap, the packet goes round
   this lap until its TTL runs out, and its drop node and time follow
   without walking.  [t_last] is reached by the very additions the walk
   would make, so the drop time is the walked one bit for bit.  A check
   that fails is retried only a lap later and once the packet's clock
   has reached the earliest [hi], when some lap node's interval is
   over. *)
let walk w src =
  let origin = w.origin and ttl = w.ttl and d = w.link_delay in
  let mask = w.mask in
  let packet = w.packet + 1 in
  w.packet <- packet;
  let node = ref src and time = ref (Float.Array.unsafe_get w.clock 0) in
  let hop = ref 0 and fate = ref (-1) in
  let check_hop = ref 0 and check_time = ref neg_infinity in
  while !fate < 0 do
    let v = !node in
    if v = origin then fate := delivered
    else if !hop = ttl then begin
      w.at_node <- v;
      fate := exhausted
    end
    else begin
      if w.stamp.(v) = packet && !hop >= !check_hop && !time >= !check_time
      then begin
        let h = !hop in
        let h0 = w.seen.(v) in
        let len = h - h0 in
        let simple = ref (len <= mask) and i = ref h0 in
        let hi_min = ref infinity in
        while !simple && !i < h do
          let u = w.path.(!i land mask) in
          if w.seen.(u) <> !i then simple := false
          else begin
            let hu = Float.Array.unsafe_get w.hi u in
            if hu < !hi_min then hi_min := hu
          end;
          incr i
        done;
        check_hop := h + len;
        if !simple then begin
          let left = ttl - h in
          let t_last = ref !time and k = ref 1 in
          while !k < left && !t_last < !hi_min do
            t_last := !t_last +. d;
            incr k
          done;
          if !t_last < !hi_min then begin
            w.at_node <- w.path.((h0 + (left mod len)) land mask);
            time := !t_last +. d;
            hop := ttl;
            fate := exhausted
          end
          else check_time := !hi_min
        end
      end;
      if !fate < 0 then begin
        let h = !hop and t = !time in
        w.stamp.(v) <- packet;
        w.seen.(v) <- h;
        w.path.(h land mask) <- v;
        if
          not
            (Float.Array.unsafe_get w.lo v <= t
            && t < Float.Array.unsafe_get w.hi v)
        then begin
          Float.Array.unsafe_set w.clock 1 t;
          refill w v
        end;
        let next = w.next.(v) in
        if next = no_route then begin
          w.at_node <- v;
          fate := unreachable
        end
        else begin
          node := next;
          time := t +. d;
          hop := h + 1
        end
      end
    end
  done;
  Float.Array.unsafe_set w.clock 1 !time;
  w.hops_taken <- !hop;
  !fate

let fate w ~src ~send_time =
  Float.Array.set w.clock 0 send_time;
  let code = walk w src in
  let time = Float.Array.get w.clock 1 in
  if code = delivered then Forwarder.Delivered { time; hops = w.hops_taken }
  else if code = unreachable then
    Forwarder.Unreachable { time; at_node = w.at_node }
  else Forwarder.Ttl_exhausted { time; at_node = w.at_node }

type tally = {
  src : int;
  sent : int;
  sent_for_ratio : int;
  delivered : int;
  unreachable : int;
  exhausted : int;
}

(* Exhaustion times of every stream, one sorted run per source.  A
   packet is lost at most once, so a buffer sized to the packets to be
   sent never grows. *)
type drops = { buf : float array; mutable count : int }

(* One source's stream: packets at [first], [first + interval], ...
   while before [until].  A stream's drop times never decrease: each is
   its send time plus [ttl] additions of [link_delay], and rounding a
   sum is monotone in its operands. *)
let stream w drops ~src ~first ~until ~interval ~ratio_cutoff =
  let sent = ref 0
  and sent_for_ratio = ref 0
  and delivered_n = ref 0
  and unreachable_n = ref 0
  and exhausted_n = ref 0 in
  let time = ref first in
  while !time < until do
    incr sent;
    if !time < ratio_cutoff then incr sent_for_ratio;
    Float.Array.unsafe_set w.clock 0 !time;
    let code = walk w src in
    if code = delivered then incr delivered_n
    else if code = unreachable then incr unreachable_n
    else begin
      incr exhausted_n;
      drops.buf.(drops.count) <- Float.Array.unsafe_get w.clock 1;
      drops.count <- drops.count + 1
    end;
    time := !time +. interval
  done;
  {
    src;
    sent = !sent;
    sent_for_ratio = !sent_for_ratio;
    delivered = !delivered_n;
    unreachable = !unreachable_n;
    exhausted = !exhausted_n;
  }

(* [src.(lo .. mid-1)] and [src.(mid .. hi-1)], each sorted, merged
   into [dst.(lo .. hi-1)]. *)
let merge (src : float array) (dst : float array) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if
      !j >= hi
      || (!i < mid && Array.unsafe_get src !i <= Array.unsafe_get src !j)
    then begin
      Array.unsafe_set dst k (Array.unsafe_get src !i);
      incr i
    end
    else begin
      Array.unsafe_set dst k (Array.unsafe_get src !j);
      incr j
    end
  done

(* The sorted union of the sorted runs [drops.buf.(bounds.(r) ..
   bounds.(r+1) - 1)].  Adjacent runs merge pairwise, halving the run
   count each pass, so the cost is count x log2 (runs).  The passes
   alternate between the buffer and the exact-size result, starting
   with a copy when their number is even, so the last lands in the
   result and nothing else is allocated. *)
let merge_runs drops bounds =
  let count = drops.count in
  let out = Array.make count 0. in
  let passes = ref 0 in
  while 1 lsl !passes < Array.length bounds - 1 do
    incr passes
  done;
  let src = ref drops.buf and dst = ref out in
  if !passes mod 2 = 0 then begin
    Array.blit drops.buf 0 out 0 count;
    src := out;
    dst := drops.buf
  end;
  let bounds = ref bounds in
  while Array.length !bounds > 2 do
    let b = !bounds in
    let runs = Array.length b - 1 in
    let pairs = (runs + 1) / 2 in
    let merged = Array.make (pairs + 1) 0 in
    for p = 0 to pairs - 1 do
      let hi = b.(min ((2 * p) + 2) runs) in
      merge !src !dst b.(2 * p) b.(min ((2 * p) + 1) runs) hi;
      merged.(p + 1) <- hi
    done;
    let s = !src in
    src := !dst;
    dst := s;
    bounds := merged
  done;
  out

let streams ~who ~fib ~origin ~n ~link_delay ~ttl ~rate ~window:(t0, t1) ~seed
    ~ratio_cutoff ?sources () =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  if rate <= 0. then fail "rate <= 0";
  if t1 < t0 then fail "window end before start";
  if ttl <= 0 then fail "ttl <= 0";
  if link_delay <= 0. then fail "link_delay <= 0";
  let sources =
    match sources with
    | Some l ->
        List.iter
          (fun s ->
            if s = origin then fail "source = origin";
            if s < 0 || s >= n then fail "source out of range")
          l;
        l
    | None -> List.filter (fun v -> v <> origin) (List.init n Fun.id)
  in
  let w = create ~fib ~origin ~link_delay ~ttl in
  let rng = Dessim.Rng.create ~seed in
  let interval = 1. /. rate in
  let sources = Array.of_list sources in
  (* one phase draw per source, in source order *)
  let firsts =
    Array.map (fun _ -> t0 +. Dessim.Rng.float rng interval) sources
  in
  let packets = ref 0 in
  Array.iter
    (fun first ->
      let time = ref first in
      while !time < t1 do
        incr packets;
        time := !time +. interval
      done)
    firsts;
  let drops = { buf = Array.make !packets 0.; count = 0 } in
  let bounds = Dessim.Vec.create () in
  Dessim.Vec.push bounds 0;
  let tallies =
    Array.mapi
      (fun i src ->
        let tally =
          stream w drops ~src ~first:firsts.(i) ~until:t1 ~interval
            ~ratio_cutoff
        in
        (* a new run in the buffer, unless the source lost nothing *)
        if tally.exhausted > 0 then Dessim.Vec.push bounds drops.count;
        tally)
      sources
  in
  (tallies, merge_runs drops (Dessim.Vec.to_array bounds))
