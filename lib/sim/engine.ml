(* The event queue is an {!Cisp_graph.Iheap} of event-slot ids keyed
   by time.  A slot's data lives in flat columns indexed by the slot
   id: the handler to call and its int argument, or (handler = -1) a
   closure from {!schedule}.  Popped slots go back on an int
   free-stack, so a steady-state run reuses the same few hundred
   thousand slots and a handler event allocates nothing.

   Pop order is the heap's: it depends only on the sequence of pushed
   keys, never on the payload, so the slot ids a free-stack hands out
   do not affect which of two tied events runs first. *)

module Iheap = Cisp_graph.Iheap

(* All-float record: stored flat, so advancing the clock boxes
   nothing. *)
type clock = { mutable now : float }

let closure_event = -1
let nop () = ()

type t = {
  queue : Iheap.t;
  clock : clock;
  mutable count : int;
  (* Slot columns, all of the same length. *)
  mutable handler_of : int array;
  mutable arg_of : int array;
  mutable thunk_of : (unit -> unit) array;
  mutable slots : int;  (* slots ever handed out *)
  mutable free : int array;
  mutable n_free : int;
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
}

let initial_slots = 4096

let create () =
  {
    queue = Iheap.create ();
    clock = { now = 0.0 };
    count = 0;
    handler_of = Array.make initial_slots closure_event;
    arg_of = Array.make initial_slots 0;
    thunk_of = Array.make initial_slots nop;
    slots = 0;
    free = Array.make initial_slots 0;
    n_free = 0;
    handlers = Array.make 4 ignore;
    n_handlers = 0;
  }

let[@inline] now t = t.clock.now

let register t f =
  if t.n_handlers = Array.length t.handlers then begin
    let grown = Array.make (2 * t.n_handlers) ignore in
    Array.blit t.handlers 0 grown 0 t.n_handlers;
    t.handlers <- grown
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

let[@cisp.alloc_ok "amortized: doubling growth of the slot columns"] grow_slots t =
  let cap = Array.length t.handler_of in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.handler_of <- extend t.handler_of closure_event;
  t.arg_of <- extend t.arg_of 0;
  t.thunk_of <- extend t.thunk_of nop;
  t.free <- extend t.free 0

let[@inline] take_slot t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    if t.slots = Array.length t.handler_of then grow_slots t;
    t.slots <- t.slots + 1;
    t.slots - 1
  end

let[@inline] release_slot t slot =
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

(* Message of the cold path of the time check: [not (at >= now)] is
   true for an event in the past and for NaN, which would silently
   break the heap invariant. *)
let[@cisp.alloc_ok "cold: the message of a raise"] bad_time name t at =
  if Float.is_nan at then name ^ ": at is NaN"
  else Printf.sprintf "%s: at = %g is in the past (now = %g)" name at t.clock.now

let schedule t ~at f =
  if not (at >= t.clock.now) then invalid_arg (bad_time "Engine.schedule" t at);
  let slot = take_slot t in
  t.handler_of.(slot) <- closure_event;
  t.thunk_of.(slot) <- f;
  Iheap.push t.queue at slot

let schedule_in t ~after f = schedule t ~at:(t.clock.now +. after) f

let[@inline] schedule_handler t ~at h arg =
  if not (at >= t.clock.now) then invalid_arg (bad_time "Engine.schedule_handler" t at);
  let slot = take_slot t in
  t.handler_of.(slot) <- h;
  t.arg_of.(slot) <- arg;
  Iheap.push t.queue at slot

(* A slot is released only after its event has run, so the event
   cannot be handed its own slot while it still reads it. *)
let dispatch t slot =
  let h = t.handler_of.(slot) in
  if h = closure_event then begin
    t.thunk_of.(slot) ();
    t.thunk_of.(slot) <- nop
  end
  else t.handlers.(h) t.arg_of.(slot);
  release_slot t slot

(* Pop and run events up to [until]; returns the peak queue length. *)
let rec drain t q until peak =
  if Iheap.length q = 0 || Iheap.min_key q > until then peak
  else begin
    t.clock.now <- Iheap.min_key q;
    let slot = Iheap.pop_min q in
    t.count <- t.count + 1;
    dispatch t slot;
    let len = Iheap.length q in
    drain t q until (if len > peak then len else peak)
  end

let[@cisp.alloc_ok "once per run, and only with telemetry on"] record_run events peak =
  Cisp_util.Telemetry.add "sim.events" events;
  Cisp_util.Telemetry.observe "sim.queue_peak_events" (float_of_int peak)

let run t ~until =
  let count_before = t.count in
  let peak = drain t t.queue until (Iheap.length t.queue) in
  if t.clock.now < until then t.clock.now <- until;
  if Cisp_util.Telemetry.enabled () then record_run (t.count - count_before) peak

let events_processed t = t.count
