module Obs = Blitz_obs.Obs

let m_probes =
  Obs.Metrics.counter ~help:"Deadline probes polled by optimizers under a budget"
    "blitz_budget_probes_total"

let m_expirations =
  Obs.Metrics.counter ~help:"Budget deadlines that expired (latched once per arming)"
    "blitz_budget_expirations_total"

type t = {
  deadline_ms : float option;
  max_table_bytes : int option;
  mutable armed_at : float;  (* [now_ms] at the last [start]. *)
  tripped : bool Atomic.t;
      (* Latched true the first time any probe observes the deadline
         passed.  Domain-safe: rank-parallel optimization polls the
         probe from every worker domain; once one domain trips the
         latch, every other domain sees [expired] without touching the
         (unsynchronized) [armed_at] field or the clock.  The flag is
         set exactly once per arming — [start] is the only reset. *)
}

let now_ms () = Blitz_util.Clock.now_s () *. 1000.0

let create ?deadline_ms ?max_table_bytes () =
  (match deadline_ms with
  | Some d when not (Float.is_finite d) || d <= 0.0 ->
    invalid_arg (Blitz_util.Err.format ~scope:"Budget.create" "deadline %g ms is not positive" d)
  | _ -> ());
  (match max_table_bytes with
  | Some b when b <= 0 ->
    invalid_arg (Blitz_util.Err.format ~scope:"Budget.create" "memory ceiling %d B is not positive" b)
  | _ -> ());
  { deadline_ms; max_table_bytes; armed_at = now_ms (); tripped = Atomic.make false }

let unlimited () = create ()

let start t =
  t.armed_at <- now_ms ();
  Atomic.set t.tripped false

let max_table_bytes t = t.max_table_bytes

let elapsed_ms t = now_ms () -. t.armed_at

let remaining_ms t =
  match t.deadline_ms with None -> Float.infinity | Some d -> d -. elapsed_ms t

let expired t =
  match t.deadline_ms with
  | None -> false
  | Some _ ->
    Atomic.get t.tripped
    ||
    if remaining_ms t <= 0.0 then begin
      (* CAS so the expiry is counted (and traced) exactly once per
         arming even when several worker domains observe it together. *)
      if Atomic.compare_and_set t.tripped false true then begin
        Obs.Metrics.incr m_expirations;
        Obs.instant "budget.expired"
      end;
      true
    end
    else false

let interrupt t () =
  Obs.Metrics.incr m_probes;
  expired t

(* Callers charge a footprint BEFORE allocating it, so an oversized
   query is rejected instead of taking down the process. *)
let admits_bytes t bytes =
  match t.max_table_bytes with None -> true | Some limit -> bytes <= limit
