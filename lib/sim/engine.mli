(** Discrete-event simulation core: a clock and a time-ordered event
    queue.  Substitute for the ns-3 scheduler (paper §5).

    Two kinds of event share one queue.  A closure event
    ({!schedule}) runs an arbitrary [unit -> unit].  A handler event
    ({!schedule_handler}) calls a handler registered once with
    {!register} on an int argument; it allocates nothing, so the
    per-packet paths of {!Net} and {!Udp} use it.  Events with equal
    times run in the order the binary heap's sift logic gives them,
    which depends only on the sequence of pushed times: the same
    pushes in the same order always give the same run. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Enqueue an event at absolute time [at] (>= now).  Raises
    [Invalid_argument] if [at] is NaN or in the past. *)

val schedule_in : t -> after:float -> (unit -> unit) -> unit

val register : t -> (int -> unit) -> int
(** Register a handler for {!schedule_handler}; returns its id.
    Register once per event kind, not once per event. *)

val schedule_handler : t -> at:float -> int -> int -> unit
(** [schedule_handler t ~at h arg] enqueues a call of handler [h] on
    [arg] at time [at].  Same time checks as {!schedule}. *)

val run : t -> until:float -> unit
(** Execute events in time order until the queue is empty or the
    clock passes [until]. *)

val events_processed : t -> int
