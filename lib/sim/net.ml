type packet = {
  flow_id : int;
  size_bytes : int;
  route : int array;
  mutable hop : int;
  mutable injected_at : float;
  payload : int;
}

(* The float fields updated per packet live in all-float records,
   which OCaml stores flat: writing them boxes nothing.  A float field
   of a mixed int/float record is a pointer to a boxed float, so every
   write would allocate. *)
type link_time = { mutable busy_until : float; mutable busy_s : float }

type link = {
  rate_bps : float;
  delay_s : float;
  buffer_bytes : int;
  mutable queue_bytes : int;
  mutable bytes_sent : int;
  mutable drops : int;
  mutable queue_peak : int;
  time : link_time;
}

type flow_delay = { mutable delay_sum : float; mutable delay_max : float }

type mutable_flow_stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  delay : flow_delay;
}

let no_packet =
  { flow_id = -1; size_bytes = 0; route = [||]; hop = 0; injected_at = 0.0; payload = 0 }

let no_flow =
  { sent = 0; delivered = 0; dropped = 0; delay = { delay_sum = 0.0; delay_max = 0.0 } }

type t = {
  eng : Engine.t;
  n : int;
  links : link option array;  (* index = src * n + dst *)
  flows : (int, mutable_flow_stats) Hashtbl.t;
  mutable delivery_cbs : (packet -> float -> unit) list;
  (* Packets in flight, one slot each: the arrival event carries the
     slot id.  A slot also caches its packet's flow record, so the
     per-hop path never looks the flow up again. *)
  mutable pkts : packet array;
  mutable pkt_flows : mutable_flow_stats array;
  mutable pkt_slots : int;
  mutable pkt_free : int array;
  mutable pkt_n_free : int;
  mutable tx_done_h : int;
  mutable arrival_h : int;
}

(* A tx-done event carries its link index and byte count packed in
   one int: [bytes lsl link_bits lor link].  Both must fit 31 bits:
   hence the bounds on [n_nodes] (n * n <= 2^31) and packet sizes. *)
let link_bits = 31
let link_mask = (1 lsl link_bits) - 1
let max_nodes = 46_340
let max_packet_bytes = 1 lsl 31

let engine t = t.eng

let add_link t ~src ~dst ~gbps ~delay_ms ~buffer_bytes =
  if not (src >= 0 && src < t.n && dst >= 0 && dst < t.n && src <> dst) then
    invalid_arg (Printf.sprintf "Net.add_link: bad endpoints %d-%d" src dst);
  if not (Float.is_finite gbps && gbps > 0.0) then
    invalid_arg (Printf.sprintf "Net.add_link: gbps = %g (must be positive and finite)" gbps);
  if not (Float.is_finite delay_ms && delay_ms >= 0.0) then
    invalid_arg
      (Printf.sprintf "Net.add_link: delay_ms = %g (must be non-negative and finite)" delay_ms);
  if buffer_bytes < 0 then
    invalid_arg (Printf.sprintf "Net.add_link: buffer_bytes = %d (must be >= 0)" buffer_bytes);
  let k = (src * t.n) + dst in
  if Option.is_some t.links.(k) then
    invalid_arg (Printf.sprintf "Net.add_link: duplicate link %d-%d" src dst);
  t.links.(k) <-
    Some
      {
        rate_bps = gbps *. 1e9;
        delay_s = delay_ms /. 1000.0;
        buffer_bytes;
        queue_bytes = 0;
        bytes_sent = 0;
        drops = 0;
        queue_peak = 0;
        time = { busy_until = 0.0; busy_s = 0.0 };
      }

let add_duplex t a b ~gbps ~delay_ms ~buffer_bytes =
  add_link t ~src:a ~dst:b ~gbps ~delay_ms ~buffer_bytes;
  add_link t ~src:b ~dst:a ~gbps ~delay_ms ~buffer_bytes

let on_delivery t f = t.delivery_cbs <- f :: t.delivery_cbs

(* Write path: the record is created on first use.  Only the traffic
   paths (inject / deliver / drop accounting) may call this — stats
   queries go through the read-only lookup below, so reading an
   unknown flow id never pollutes [all_flow_stats]. *)
let flow t id =
  match Hashtbl.find_opt t.flows id with
  | Some f -> f
  | None ->
    let f =
      { sent = 0; delivered = 0; dropped = 0; delay = { delay_sum = 0.0; delay_max = 0.0 } }
    in
    Hashtbl.add t.flows id f;
    f

let find_flow t id = Hashtbl.find_opt t.flows id

let[@cisp.alloc_ok "amortized: doubling growth of the packet-slot columns"] grow_pkt_slots t =
  let cap = Array.length t.pkts in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.pkts <- extend t.pkts no_packet;
  t.pkt_flows <- extend t.pkt_flows no_flow;
  t.pkt_free <- extend t.pkt_free 0

let take_pkt_slot t pkt f =
  let slot =
    if t.pkt_n_free > 0 then begin
      t.pkt_n_free <- t.pkt_n_free - 1;
      t.pkt_free.(t.pkt_n_free)
    end
    else begin
      if t.pkt_slots = Array.length t.pkts then grow_pkt_slots t;
      t.pkt_slots <- t.pkt_slots + 1;
      t.pkt_slots - 1
    end
  in
  t.pkts.(slot) <- pkt;
  t.pkt_flows.(slot) <- f;
  slot

let release_pkt_slot t slot =
  t.pkts.(slot) <- no_packet;
  t.pkt_flows.(slot) <- no_flow;
  t.pkt_free.(t.pkt_n_free) <- slot;
  t.pkt_n_free <- t.pkt_n_free + 1

let rec call_delivery_cbs pkt now = function
  | [] -> ()
  | cb :: rest ->
    cb pkt now;
    call_delivery_cbs pkt now rest

let deliver t pkt f =
  let now = Engine.now t.eng in
  f.delivered <- f.delivered + 1;
  let d = now -. pkt.injected_at in
  f.delay.delay_sum <- f.delay.delay_sum +. d;
  if d > f.delay.delay_max then f.delay.delay_max <- d;
  if t.delivery_cbs <> [] then call_delivery_cbs pkt now t.delivery_cbs

(* Forward the packet in [slot] from the node at route.(hop) towards
   route.(hop+1).  The tx-done event is pushed before the arrival: the
   two can tie (on a zero-delay link), and the push order decides the
   tie. *)
let forward t slot =
  let pkt = t.pkts.(slot) and f = t.pkt_flows.(slot) in
  if pkt.hop >= Array.length pkt.route - 1 then begin
    release_pkt_slot t slot;
    deliver t pkt f
  end
  else begin
    let src = pkt.route.(pkt.hop) and dst = pkt.route.(pkt.hop + 1) in
    let found =
      if src >= 0 && src < t.n && dst >= 0 && dst < t.n then t.links.((src * t.n) + dst)
      else None
    in
    match found with
    | None ->
      (* Broken route: count as a drop. *)
      release_pkt_slot t slot;
      f.dropped <- f.dropped + 1
    | Some link ->
      if link.queue_bytes + pkt.size_bytes > link.buffer_bytes then begin
        release_pkt_slot t slot;
        link.drops <- link.drops + 1;
        f.dropped <- f.dropped + 1
      end
      else begin
        let now = Engine.now t.eng in
        link.queue_bytes <- link.queue_bytes + pkt.size_bytes;
        if link.queue_bytes > link.queue_peak then link.queue_peak <- link.queue_bytes;
        let tx_time = float_of_int pkt.size_bytes *. 8.0 /. link.rate_bps in
        let lt = link.time in
        let start = if lt.busy_until > now then lt.busy_until else now in
        let tx_done = start +. tx_time in
        lt.busy_until <- tx_done;
        lt.busy_s <- lt.busy_s +. tx_time;
        Engine.schedule_handler t.eng ~at:tx_done t.tx_done_h
          ((pkt.size_bytes lsl link_bits) lor ((src * t.n) + dst));
        Engine.schedule_handler t.eng ~at:(tx_done +. link.delay_s) t.arrival_h slot
      end
  end

(* The tx-done event names its link itself rather than reading it off
   the packet: on a zero-delay link the arrival ties with the tx-done
   and may run first, moving [pkt.hop] on. *)
let tx_done t arg =
  match t.links.(arg land link_mask) with
  | Some link ->
    let bytes = arg lsr link_bits in
    link.queue_bytes <- link.queue_bytes - bytes;
    link.bytes_sent <- link.bytes_sent + bytes
  | None -> ()

let arrival t slot =
  let pkt = t.pkts.(slot) in
  pkt.hop <- pkt.hop + 1;
  forward t slot

let create eng ~n_nodes =
  if n_nodes < 0 || n_nodes > max_nodes then
    invalid_arg (Printf.sprintf "Net.create: n_nodes = %d (must be in [0, %d])" n_nodes max_nodes);
  let t =
    {
      eng;
      n = n_nodes;
      links = Array.make (n_nodes * n_nodes) None;
      flows = Hashtbl.create 64;
      delivery_cbs = [];
      pkts = Array.make 1024 no_packet;
      pkt_flows = Array.make 1024 no_flow;
      pkt_slots = 0;
      pkt_free = Array.make 1024 0;
      pkt_n_free = 0;
      tx_done_h = 0;
      arrival_h = 0;
    }
  in
  t.tx_done_h <- Engine.register eng (tx_done t);
  t.arrival_h <- Engine.register eng (arrival t);
  t

let inject t pkt =
  if Array.length pkt.route < 1 then invalid_arg "Net.inject: empty route";
  if pkt.size_bytes < 0 || pkt.size_bytes >= max_packet_bytes then
    invalid_arg (Printf.sprintf "Net.inject: size_bytes = %d out of range" pkt.size_bytes);
  pkt.injected_at <- Engine.now t.eng;
  let f = flow t pkt.flow_id in
  f.sent <- f.sent + 1;
  forward t (take_pkt_slot t pkt f)

type flow_stats = {
  sent : int;
  delivered : int;
  dropped : int;
  delay_sum_s : float;
  delay_max_s : float;
}

let freeze (f : mutable_flow_stats) =
  {
    sent = f.sent;
    delivered = f.delivered;
    dropped = f.dropped;
    delay_sum_s = f.delay.delay_sum;
    delay_max_s = f.delay.delay_max;
  }

let zero_stats =
  { sent = 0; delivered = 0; dropped = 0; delay_sum_s = 0.0; delay_max_s = 0.0 }

let flow_stats_opt t id = Option.map freeze (find_flow t id)

let flow_stats t id =
  match find_flow t id with Some f -> freeze f | None -> zero_stats

let all_flow_stats t = Hashtbl.fold (fun id f acc -> (id, freeze f) :: acc) t.flows []

let mean_delay_ms t =
  let sum = ref 0.0 and count = ref 0 in
  Hashtbl.iter
    (fun _ (f : mutable_flow_stats) ->
      sum := !sum +. f.delay.delay_sum;
      count := !count + f.delivered)
    t.flows;
  if !count = 0 then 0.0 else !sum /. float_of_int !count *. 1000.0

let loss_rate t =
  let sent = ref 0 and dropped = ref 0 in
  Hashtbl.iter
    (fun _ (f : mutable_flow_stats) ->
      sent := !sent + f.sent;
      dropped := !dropped + f.dropped)
    t.flows;
  if !sent = 0 then 0.0 else float_of_int !dropped /. float_of_int !sent

type link_stats = { bytes_sent : int; drops : int; queue_peak_bytes : int; busy_s : float }

let find_link t ~src ~dst =
  if src >= 0 && src < t.n && dst >= 0 && dst < t.n then t.links.((src * t.n) + dst) else None

let link_stats t ~src ~dst =
  Option.map
    (fun (l : link) ->
      {
        bytes_sent = l.bytes_sent;
        drops = l.drops;
        queue_peak_bytes = l.queue_peak;
        busy_s = l.time.busy_s;
      })
    (find_link t ~src ~dst)

let utilization t ~src ~dst ~duration_s =
  if duration_s <= 0.0 then invalid_arg "Net.utilization: duration_s <= 0";
  match find_link t ~src ~dst with None -> 0.0 | Some l -> l.time.busy_s /. duration_s

let max_utilization t ~duration_s =
  if duration_s <= 0.0 then invalid_arg "Net.max_utilization: duration_s <= 0";
  Array.fold_left
    (fun acc -> function
      | Some (l : link) -> Float.max acc (l.time.busy_s /. duration_s)
      | None -> acc)
    0.0 t.links

let queue_bytes t ~src ~dst =
  match find_link t ~src ~dst with None -> 0 | Some l -> l.queue_bytes

(* Per-link and per-flow counters flushed into telemetry at teardown —
   the FlowMonitor read-out of §5.  Totals are sums and samples are
   sorted on read-out, so iteration order does not show. *)
let flush_telemetry t =
  if Cisp_util.Telemetry.enabled () then begin
    let n_links = ref 0 in
    Array.iter
      (function
        | Some (l : link) ->
          incr n_links;
          Cisp_util.Telemetry.add "sim.link_drops" l.drops;
          Cisp_util.Telemetry.add "sim.link_bytes_sent" l.bytes_sent;
          Cisp_util.Telemetry.observe "sim.queue_peak_bytes" (float_of_int l.queue_peak);
          Cisp_util.Telemetry.observe "sim.link_busy_s" l.time.busy_s
        | None -> ())
      t.links;
    Cisp_util.Telemetry.add "sim.links" !n_links;
    Hashtbl.iter
      (fun _ (f : mutable_flow_stats) ->
        Cisp_util.Telemetry.add "sim.flow_sent" f.sent;
        Cisp_util.Telemetry.add "sim.flow_delivered" f.delivered;
        Cisp_util.Telemetry.add "sim.flow_dropped" f.dropped)
      t.flows
  end
