(* Per-domain lazily-created slots, a thin veneer over [Domain.DLS].

   Lives outside [Pool] so that modules underneath the pool in the
   dependency order (notably [Telemetry], which the pool itself calls)
   can keep per-domain state without creating a cycle. *)

type 'a t = 'a Domain.DLS.key

let create init = Domain.DLS.new_key init
let get t = Domain.DLS.get t
