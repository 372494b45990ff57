(* L7: closures handed to the pool must not mutate shared state. *)
let total = ref 0

let direct pool =
  Cisp_util.Pool.parallel_for pool ~n:8 (fun i -> total := !total + i)

let indirect pool =
  Cisp_util.Pool.parallel_for pool ~n:8 (fun i -> Bad_l7_helper.record i)

let captured pool =
  let acc = ref 0 in
  Cisp_util.Pool.parallel_for pool ~n:8 (fun i -> acc := !acc + i);
  !acc

let clean pool arr =
  let out = Array.make (Array.length arr) 0 in
  Cisp_util.Pool.parallel_for pool ~n:(Array.length arr) (fun i -> out.(i) <- (arr.(i) * 2 : int));
  out
