let flow_id ~src ~dst ~n = (src * n) + dst

type commodity = {
  id : int;
  route : int array;
  stream : Cisp_util.Rng.t;
  pps : float;
}

let poisson_commodities net ~paths ~demands_gbps ~packet_bytes ~start ~stop =
  let n = Array.length demands_gbps in
  let eng = Net.engine net in
  let rows = ref [] in
  Hashtbl.iter
    (fun (s, t) route ->
      let gbps = demands_gbps.(s).(t) in
      if gbps > 0.0 then begin
        let pps = gbps *. 1e9 /. (float_of_int packet_bytes *. 8.0) in
        if pps > 1e-9 then begin
          (* Give each commodity its own stream for reproducibility
             independent of scheduling order. *)
          let stream = Cisp_util.Rng.create (Hashtbl.hash (s, t, 9176)) in
          rows := { id = flow_id ~src:s ~dst:t ~n; route; stream; pps } :: !rows
        end
      end)
    paths;
  (* Commodities keep the table's iteration order, so the first
     arrivals are pushed in the same order as they are drawn. *)
  let table = Array.of_list (List.rev !rows) in
  let handler = ref 0 in
  let arrival k =
    let c = table.(k) in
    Net.inject net
      {
        Net.flow_id = c.id;
        size_bytes = packet_bytes;
        route = c.route;
        hop = 0;
        injected_at = 0.0;
        payload = 0;
      };
    let at = Engine.now eng +. Cisp_util.Rng.exponential c.stream c.pps in
    if at < stop then Engine.schedule_handler eng ~at !handler k
  in
  handler := Engine.register eng arrival;
  Array.iteri
    (fun k c ->
      let at = start +. Cisp_util.Rng.exponential c.stream c.pps in
      if at < stop then Engine.schedule_handler eng ~at !handler k)
    table
