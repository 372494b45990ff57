(* Replay oracle for the packet simulator.  The event queue is an
   [Iheap] of event slots with handler events; this file keeps a copy
   of the simulator it replaced — one [(unit -> unit)] closure per
   event in the polymorphic heap, a [Hashtbl] of links, and the
   closure-based UDP source — and runs both on the same generated
   networks.  Every output must match bit for bit: flow stats, link
   stats, event counts, mean delay and TCP completion times.  The
   instances have zero-delay links (where a packet's arrival ties
   with its own tx-done), buffers small enough to drop, broken routes,
   and TCP flows with and without pacing. *)

open Cisp_sim

(* ---------- the reference simulator ---------- *)

module Ref_engine = struct
  type t = {
    queue : (unit -> unit) Ref_heap.t;
    mutable clock : float;
    mutable count : int;
    mutable ties : int;  (* events popped at the previous event's time *)
  }

  let create () = { queue = Ref_heap.create (); clock = 0.0; count = 0; ties = 0 }
  let now t = t.clock

  let schedule t ~at f =
    if at < t.clock then invalid_arg "Ref_engine.schedule: at is in the past";
    Ref_heap.push t.queue at f

  let schedule_in t ~after f = schedule t ~at:(t.clock +. after) f

  let run t ~until =
    let rec loop () =
      match Ref_heap.peek t.queue with
      | None -> ()
      | Some (at, _) when at > until -> ()
      | Some _ -> (
        match Ref_heap.pop t.queue with
        | Some (at, f) ->
          if t.count > 0 && Float.equal at t.clock then t.ties <- t.ties + 1;
          t.clock <- at;
          t.count <- t.count + 1;
          f ();
          loop ()
        | None -> ())
    in
    loop ();
    if t.clock < until then t.clock <- until
end

module Ref_net = struct
  type link = {
    rate_bps : float;
    delay_s : float;
    buffer_bytes : int;
    mutable queue_bytes : int;
    mutable busy_until : float;
    mutable bytes_sent : int;
    mutable drops : int;
    mutable queue_peak : int;
    mutable busy_s : float;
  }

  type flow = {
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable delay_sum : float;
    mutable delay_max : float;
  }

  type t = {
    eng : Ref_engine.t;
    n : int;
    links : (int, link) Hashtbl.t;
    flows : (int, flow) Hashtbl.t;
    mutable delivery_cbs : (Net.packet -> float -> unit) list;
  }

  let create eng ~n_nodes =
    { eng; n = n_nodes; links = Hashtbl.create 256; flows = Hashtbl.create 64; delivery_cbs = [] }

  let key t src dst = (src * t.n) + dst

  let add_link t ~src ~dst ~gbps ~delay_ms ~buffer_bytes =
    Hashtbl.replace t.links (key t src dst)
      {
        rate_bps = gbps *. 1e9;
        delay_s = delay_ms /. 1000.0;
        buffer_bytes;
        queue_bytes = 0;
        busy_until = 0.0;
        bytes_sent = 0;
        drops = 0;
        queue_peak = 0;
        busy_s = 0.0;
      }

  let on_delivery t f = t.delivery_cbs <- f :: t.delivery_cbs

  let flow t id =
    match Hashtbl.find_opt t.flows id with
    | Some f -> f
    | None ->
      let f = { sent = 0; delivered = 0; dropped = 0; delay_sum = 0.0; delay_max = 0.0 } in
      Hashtbl.add t.flows id f;
      f

  let deliver t (pkt : Net.packet) =
    let now = Ref_engine.now t.eng in
    let f = flow t pkt.flow_id in
    f.delivered <- f.delivered + 1;
    let d = now -. pkt.injected_at in
    f.delay_sum <- f.delay_sum +. d;
    if d > f.delay_max then f.delay_max <- d;
    List.iter (fun cb -> cb pkt now) t.delivery_cbs

  let rec forward t (pkt : Net.packet) =
    if pkt.hop >= Array.length pkt.route - 1 then deliver t pkt
    else begin
      let src = pkt.route.(pkt.hop) and dst = pkt.route.(pkt.hop + 1) in
      match Hashtbl.find_opt t.links (key t src dst) with
      | None ->
        let f = flow t pkt.flow_id in
        f.dropped <- f.dropped + 1
      | Some link ->
        if link.queue_bytes + pkt.size_bytes > link.buffer_bytes then begin
          link.drops <- link.drops + 1;
          let f = flow t pkt.flow_id in
          f.dropped <- f.dropped + 1
        end
        else begin
          let now = Ref_engine.now t.eng in
          link.queue_bytes <- link.queue_bytes + pkt.size_bytes;
          if link.queue_bytes > link.queue_peak then link.queue_peak <- link.queue_bytes;
          let tx_time = float_of_int pkt.size_bytes *. 8.0 /. link.rate_bps in
          let start = Float.max now link.busy_until in
          let tx_done = start +. tx_time in
          link.busy_until <- tx_done;
          link.busy_s <- link.busy_s +. tx_time;
          Ref_engine.schedule t.eng ~at:tx_done (fun () ->
              link.queue_bytes <- link.queue_bytes - pkt.size_bytes;
              link.bytes_sent <- link.bytes_sent + pkt.size_bytes);
          Ref_engine.schedule t.eng ~at:(tx_done +. link.delay_s) (fun () ->
              pkt.hop <- pkt.hop + 1;
              forward t pkt)
        end
    end

  let inject t (pkt : Net.packet) =
    pkt.injected_at <- Ref_engine.now t.eng;
    let f = flow t pkt.flow_id in
    f.sent <- f.sent + 1;
    forward t pkt

  let all_flow_stats t =
    Hashtbl.fold
      (fun id f acc ->
        ( id,
          {
            Net.sent = f.sent;
            delivered = f.delivered;
            dropped = f.dropped;
            delay_sum_s = f.delay_sum;
            delay_max_s = f.delay_max;
          } )
        :: acc)
      t.flows []

  let mean_delay_ms t =
    let sum = ref 0.0 and count = ref 0 in
    Hashtbl.iter
      (fun _ f ->
        sum := !sum +. f.delay_sum;
        count := !count + f.delivered)
      t.flows;
    if !count = 0 then 0.0 else !sum /. float_of_int !count *. 1000.0

  let link_stats t ~src ~dst =
    Option.map
      (fun l ->
        {
          Net.bytes_sent = l.bytes_sent;
          drops = l.drops;
          queue_peak_bytes = l.queue_peak;
          busy_s = l.busy_s;
        })
      (Hashtbl.find_opt t.links (key t src dst))
end

module Ref_udp = struct
  let poisson_commodities net ~paths ~demands_gbps ~packet_bytes ~start ~stop =
    let n = Array.length demands_gbps in
    let eng = net.Ref_net.eng in
    Hashtbl.iter
      (fun (s, t) route ->
        let gbps = demands_gbps.(s).(t) in
        if gbps > 0.0 then begin
          let pps = gbps *. 1e9 /. (float_of_int packet_bytes *. 8.0) in
          if pps > 1e-9 then begin
            let id = Udp.flow_id ~src:s ~dst:t ~n in
            let stream = Cisp_util.Rng.create (Hashtbl.hash (s, t, 9176)) in
            let rec arrival at =
              if at < stop then
                Ref_engine.schedule eng ~at (fun () ->
                    Ref_net.inject net
                      {
                        Net.flow_id = id;
                        size_bytes = packet_bytes;
                        route;
                        hop = 0;
                        injected_at = 0.0;
                        payload = 0;
                      };
                    arrival (Ref_engine.now eng +. Cisp_util.Rng.exponential stream pps))
            in
            arrival (start +. Cisp_util.Rng.exponential stream pps)
          end
        end)
      paths
end

(* [Tcp] on the reference engine: the same window, pacing, ack and
   watchdog logic as lib/sim/tcp.ml. *)
module Ref_tcp = struct
  type state = {
    cfg : Tcp.config;
    net : Ref_net.t;
    flow_id : int;
    route : int array;
    total_pkts : int;
    received : bool array;
    mutable distinct : int;
    mutable next_seq : int;
    mutable resend : int list;
    mutable cwnd : float;
    mutable ssthresh : int;
    mutable in_flight : int;
    mutable srtt : float;
    mutable progress_stamp : int;
    mutable done_ : bool;
    on_complete : float -> unit;
  }

  let eng st = st.net.Ref_net.eng

  let send_packet st seq =
    st.in_flight <- st.in_flight + 1;
    Ref_net.inject st.net
      {
        Net.flow_id = st.flow_id;
        size_bytes = st.cfg.Tcp.mss_bytes;
        route = st.route;
        hop = 0;
        injected_at = 0.0;
        payload = seq;
      }

  let take_seq st =
    match st.resend with
    | seq :: rest ->
      st.resend <- rest;
      Some seq
    | [] ->
      if st.next_seq < st.total_pkts then begin
        let seq = st.next_seq in
        st.next_seq <- seq + 1;
        Some seq
      end
      else None

  let rec pump st =
    if (not st.done_) && float_of_int st.in_flight < st.cwnd then begin
      match take_seq st with
      | None -> ()
      | Some seq ->
        send_packet st seq;
        if st.cfg.Tcp.pacing then begin
          let gap = st.srtt /. (2.0 *. Float.max 1.0 st.cwnd) in
          Ref_engine.schedule_in (eng st) ~after:gap (fun () -> pump st)
        end
        else pump st
    end

  let handle_ack st seq delivered_at rtt_sample =
    if not st.done_ then begin
      st.in_flight <- max 0 (st.in_flight - 1);
      st.srtt <- (0.875 *. st.srtt) +. (0.125 *. rtt_sample);
      if not st.received.(seq) then begin
        st.received.(seq) <- true;
        st.distinct <- st.distinct + 1
      end;
      if st.cwnd < float_of_int st.ssthresh then st.cwnd <- st.cwnd +. 1.0
      else st.cwnd <- st.cwnd +. (1.0 /. st.cwnd);
      if st.distinct >= st.total_pkts then begin
        st.done_ <- true;
        st.on_complete delivered_at
      end
      else pump st
    end

  let rec watchdog st =
    if not st.done_ then
      Ref_engine.schedule_in (eng st) ~after:st.cfg.Tcp.rto_s (fun () ->
          if not st.done_ then begin
            if st.distinct = st.progress_stamp then begin
              let missing = ref [] in
              for seq = st.total_pkts - 1 downto 0 do
                if (not st.received.(seq)) && (not (List.mem seq st.resend)) && seq < st.next_seq
                then missing := seq :: !missing
              done;
              if !missing <> [] || st.in_flight > 0 then begin
                st.resend <- !missing @ st.resend;
                st.in_flight <- 0;
                st.ssthresh <- max 2 (int_of_float (st.cwnd /. 2.0));
                st.cwnd <- 1.0;
                pump st
              end
            end;
            st.progress_stamp <- st.distinct;
            watchdog st
          end)

  let start_flow net (cfg : Tcp.config) ~flow_id ~route ~size_bytes ~at ~on_complete =
    let total_pkts = max 1 ((size_bytes + cfg.mss_bytes - 1) / cfg.mss_bytes) in
    let st =
      {
        cfg;
        net;
        flow_id;
        route;
        total_pkts;
        received = Array.make total_pkts false;
        distinct = 0;
        next_seq = 0;
        resend = [];
        cwnd = float_of_int cfg.init_cwnd;
        ssthresh = cfg.ssthresh;
        in_flight = 0;
        srtt = 2.0 *. cfg.ack_delay_s;
        progress_stamp = 0;
        done_ = false;
        on_complete;
      }
    in
    Ref_net.on_delivery net (fun pkt t ->
        if pkt.Net.flow_id = flow_id && not st.done_ then begin
          let rtt = t +. cfg.ack_delay_s -. pkt.Net.injected_at in
          let seq = pkt.Net.payload in
          Ref_engine.schedule net.Ref_net.eng ~at:(t +. cfg.ack_delay_s) (fun () ->
              handle_ack st seq (t +. cfg.ack_delay_s) rtt)
        end);
    Ref_engine.schedule net.Ref_net.eng ~at (fun () ->
        pump st;
        watchdog st)
end

(* ---------- generated instances ---------- *)

type link_spec = { src : int; dst : int; gbps : float; delay_ms : float; buffer : int }

type tcp_spec = {
  tcp_id : int;
  tcp_route : int array;
  size : int;
  start_at : float;
  pacing : bool;
}

type instance = {
  n : int;
  links : link_spec list;
  paths : (int * int, int array) Hashtbl.t;
  demands : float array array;
  packet_bytes : int;
  stop : float;
  tcps : tcp_spec list;
  until : float;
}

let pick rng choices = choices.(Cisp_util.Rng.int rng (Array.length choices))

(* Fewest-hop route over the directed links, or [None]. *)
let bfs_route n links s t =
  let prev = Array.make n (-1) in
  let seen = Array.make n false in
  let q = Queue.create () in
  seen.(s) <- true;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun l ->
        if l.src = u && not seen.(l.dst) then begin
          seen.(l.dst) <- true;
          prev.(l.dst) <- u;
          Queue.add l.dst q
        end)
      links
  done;
  if not seen.(t) then None
  else begin
    let rec back v acc = if v = s then s :: acc else back prev.(v) (v :: acc) in
    Some (Array.of_list (back t []))
  end

let instance_of_seed seed =
  let rng = Cisp_util.Rng.create seed in
  let n = 2 + Cisp_util.Rng.int rng 5 in
  let link_spec src dst =
    {
      src;
      dst;
      gbps = pick rng [| 0.01; 0.05; 0.1; 1.0 |];
      (* Zero delay half the time: the arrival then ties with the
         tx-done of the same packet. *)
      delay_ms = pick rng [| 0.0; 0.0; 0.0; 0.5; 2.0 |];
      buffer = pick rng [| 600; 1500; 3000; 20_000; 1_000_000 |];
    }
  in
  let links = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let ring = j = (i + 1) mod n || i = (j + 1) mod n in
      if i <> j && (ring || Cisp_util.Rng.float rng 1.0 < 0.3) then
        links := link_spec i j :: !links
    done
  done;
  let links = List.rev !links in
  let packet_bytes = pick rng [| 500; 1000; 1500 |] in
  let demands = Array.make_matrix n n 0.0 in
  let paths = Hashtbl.create 16 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && Cisp_util.Rng.float rng 1.0 < 0.6 then begin
        demands.(s).(t) <- pick rng [| 0.0; 0.002; 0.01; 0.04 |];
        (* An occasional direct route with no link: a broken route. *)
        if Cisp_util.Rng.float rng 1.0 < 0.1 then Hashtbl.replace paths (s, t) [| s; t |]
        else Option.iter (Hashtbl.replace paths (s, t)) (bfs_route n links s t)
      end
    done
  done;
  let tcps =
    List.init (Cisp_util.Rng.int rng 3) (fun k ->
        let s = Cisp_util.Rng.int rng n in
        let t = (s + 1 + Cisp_util.Rng.int rng (n - 1)) mod n in
        {
          tcp_id = 100_000 + k;
          tcp_route = Option.value (bfs_route n links s t) ~default:[| s; t |];
          size = pick rng [| 1500; 30_000; 90_000 |];
          start_at = pick rng [| 0.0; 0.0; 0.001 |];
          pacing = Cisp_util.Rng.bool rng;
        })
  in
  { n; links; paths; demands; packet_bytes; stop = 0.01; tcps; until = 1.0 }

type outcome = {
  flows : (int * Net.flow_stats) list;
  link_stats : Net.link_stats option list;
  events : int;
  mean_delay_ms : float;
  completions : (int * float) list;
}

let sorted_flows l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l
let tcp_config pacing = { (Tcp.default_config ~ack_delay_s:0.002) with Tcp.pacing }

let run_new inst =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:inst.n in
  List.iter
    (fun l ->
      Net.add_link net ~src:l.src ~dst:l.dst ~gbps:l.gbps ~delay_ms:l.delay_ms
        ~buffer_bytes:l.buffer)
    inst.links;
  Udp.poisson_commodities net ~paths:inst.paths ~demands_gbps:inst.demands
    ~packet_bytes:inst.packet_bytes ~start:0.0 ~stop:inst.stop;
  let completions = ref [] in
  List.iter
    (fun f ->
      Tcp.start_flow net (tcp_config f.pacing) ~flow_id:f.tcp_id ~route:f.tcp_route
        ~size_bytes:f.size ~at:f.start_at ~on_complete:(fun t ->
          completions := (f.tcp_id, t) :: !completions))
    inst.tcps;
  Engine.run eng ~until:inst.until;
  {
    flows = sorted_flows (Net.all_flow_stats net);
    link_stats =
      List.concat_map
        (fun s -> List.init inst.n (fun d -> Net.link_stats net ~src:s ~dst:d))
        (List.init inst.n Fun.id);
    events = Engine.events_processed eng;
    mean_delay_ms = Net.mean_delay_ms net;
    completions = sorted_flows !completions;
  }

let run_ref inst =
  let eng = Ref_engine.create () in
  let net = Ref_net.create eng ~n_nodes:inst.n in
  List.iter
    (fun l ->
      Ref_net.add_link net ~src:l.src ~dst:l.dst ~gbps:l.gbps ~delay_ms:l.delay_ms
        ~buffer_bytes:l.buffer)
    inst.links;
  Ref_udp.poisson_commodities net ~paths:inst.paths ~demands_gbps:inst.demands
    ~packet_bytes:inst.packet_bytes ~start:0.0 ~stop:inst.stop;
  let completions = ref [] in
  List.iter
    (fun f ->
      Ref_tcp.start_flow net (tcp_config f.pacing) ~flow_id:f.tcp_id ~route:f.tcp_route
        ~size_bytes:f.size ~at:f.start_at ~on_complete:(fun t ->
          completions := (f.tcp_id, t) :: !completions))
    inst.tcps;
  Ref_engine.run eng ~until:inst.until;
  ( {
      flows = sorted_flows (Ref_net.all_flow_stats net);
      link_stats =
        List.concat_map
          (fun s -> List.init inst.n (fun d -> Ref_net.link_stats net ~src:s ~dst:d))
          (List.init inst.n Fun.id);
      events = eng.Ref_engine.count;
      mean_delay_ms = Ref_net.mean_delay_ms net;
      completions = sorted_flows !completions;
    },
    eng.Ref_engine.ties )

(* Bitwise: floats compare by their bits, so -0.0 <> 0.0 and a NaN
   equals only the same NaN. *)
let bits = Int64.bits_of_float

let same_flow (a : Net.flow_stats) (b : Net.flow_stats) =
  a.sent = b.sent && a.delivered = b.delivered && a.dropped = b.dropped
  && bits a.delay_sum_s = bits b.delay_sum_s
  && bits a.delay_max_s = bits b.delay_max_s

let same_link (a : Net.link_stats option) (b : Net.link_stats option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.bytes_sent = b.bytes_sent && a.drops = b.drops
    && a.queue_peak_bytes = b.queue_peak_bytes
    && bits a.busy_s = bits b.busy_s
  | _ -> false

let same_outcome a b =
  a.events = b.events
  && bits a.mean_delay_ms = bits b.mean_delay_ms
  && List.equal (fun (i, x) (j, y) -> i = j && same_flow x y) a.flows b.flows
  && List.equal same_link a.link_stats b.link_stats
  && List.equal (fun (i, x) (j, y) -> i = j && bits x = bits y) a.completions b.completions

let describe a =
  Printf.sprintf "events %d, mean delay %h ms, %d flows, %d completions" a.events
    a.mean_delay_ms (List.length a.flows) (List.length a.completions)

let prop_replay =
  QCheck.Test.make ~name:"handler-event sim replays the closure sim bit for bit" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let inst = instance_of_seed seed in
      let got = run_new inst and (want, _) = run_ref inst in
      if same_outcome got want then true
      else QCheck.Test.fail_reportf "seed %d: got %s, want %s" seed (describe got) (describe want))

(* The generated instances reach every case the replay is meant to
   pin: drops at a full buffer, broken routes, events that tie in
   time (zero-delay links), TCP flows that finish, paced and not. *)
let test_coverage () =
  let drops = ref 0 and broken = ref 0 and ties = ref 0 and completions = ref 0 in
  let paced = ref 0 and unpaced = ref 0 in
  for seed = 1 to 30 do
    let inst = instance_of_seed seed in
    let got = run_new inst and (want, t) = run_ref inst in
    Alcotest.(check bool) (Printf.sprintf "seed %d replays" seed) true (same_outcome got want);
    ties := !ties + t;
    completions := !completions + List.length want.completions;
    List.iter
      (function Some (l : Net.link_stats) -> drops := !drops + l.drops | None -> ())
      want.link_stats;
    Hashtbl.iter
      (fun _ route ->
        let s = route.(0) and d = route.(1) in
        if Array.length route = 2 && not (List.exists (fun l -> l.src = s && l.dst = d) inst.links)
        then incr broken)
      inst.paths;
    List.iter (fun f -> if f.pacing then incr paced else incr unpaced) inst.tcps
  done;
  Alcotest.(check bool) (Printf.sprintf "%d buffer drops" !drops) true (!drops > 0);
  Alcotest.(check bool) (Printf.sprintf "%d broken routes" !broken) true (!broken > 0);
  Alcotest.(check bool) (Printf.sprintf "%d tied events" !ties) true (!ties > 100);
  Alcotest.(check bool) (Printf.sprintf "%d TCP completions" !completions) true (!completions > 0);
  Alcotest.(check bool) "paced and unpaced TCP flows" true (!paced > 0 && !unpaced > 0)

(* A packet over a chain of zero-delay links: each hop's arrival ties
   with the tx-done on the link it just left, and the tie order decides
   the queue occupancy a following packet sees. *)
let test_zero_delay_chain () =
  let inst =
    {
      n = 4;
      links =
        List.concat_map
          (fun i ->
            [
              { src = i; dst = i + 1; gbps = 0.01; delay_ms = 0.0; buffer = 3000 };
              { src = i + 1; dst = i; gbps = 0.01; delay_ms = 0.0; buffer = 3000 };
            ])
          [ 0; 1; 2 ];
      paths =
        (let p = Hashtbl.create 2 in
         Hashtbl.replace p (0, 3) [| 0; 1; 2; 3 |];
         Hashtbl.replace p (3, 0) [| 3; 2; 1; 0 |];
         p);
      demands =
        Array.init 4 (fun s -> Array.init 4 (fun d -> if (s, d) = (0, 3) || (s, d) = (3, 0) then 0.02 else 0.0));
      packet_bytes = 1000;
      stop = 0.02;
      tcps =
        [
          { tcp_id = 100_000; tcp_route = [| 0; 1; 2; 3 |]; size = 30_000; start_at = 0.0; pacing = false };
          { tcp_id = 100_001; tcp_route = [| 3; 2; 1; 0 |]; size = 30_000; start_at = 0.0; pacing = true };
        ];
      until = 2.0;
    }
  in
  let got = run_new inst and (want, ties) = run_ref inst in
  Alcotest.(check bool) (Printf.sprintf "%d tied events" ties) true (ties > 0);
  Alcotest.(check string) "same summary" (describe want) (describe got);
  Alcotest.(check bool) "bitwise equal" true (same_outcome got want)

let suites =
  [
    ( "sim.replay",
      [
        Alcotest.test_case "zero-delay chain" `Quick test_zero_delay_chain;
        Alcotest.test_case "instances cover drops, ties, TCP" `Quick test_coverage;
        QCheck_alcotest.to_alcotest prop_replay;
      ] );
  ]
