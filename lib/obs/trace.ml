module Json = Blitz_util.Json

type event = {
  name : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  attrs : (string * string) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

let test_clock : (unit -> float) option Atomic.t = Atomic.make None
let set_clock_for_testing c = Atomic.set test_clock c

let now_s () =
  match Atomic.get test_clock with Some c -> c () | None -> Blitz_util.Clock.now_s ()

(* The ring buffer.  The cursor counts every recorded event (never
   wraps); slot [cursor mod capacity] is overwritten.  [state] is
   swapped wholesale by [set_capacity]/[clear], so resizing under
   concurrent writers loses at most the in-flight events. *)

type ring = { slots : event option array; cursor : int Atomic.t }

let make_ring capacity = { slots = Array.make capacity None; cursor = Atomic.make 0 }
let ring = Atomic.make (make_ring 4096)

let set_capacity c =
  if c < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  Atomic.set ring (make_ring c)

let capacity () = Array.length (Atomic.get ring).slots

let clear () = set_capacity (capacity ())

let record ev =
  let r = Atomic.get ring in
  let i = Atomic.fetch_and_add r.cursor 1 in
  r.slots.(i mod Array.length r.slots) <- Some ev

let tid () = (Domain.self () :> int)

let span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_s () in
    let finish () =
      let t1 = now_s () in
      record
        { name; ts_us = t0 *. 1e6; dur_us = (t1 -. t0) *. 1e6; tid = tid (); attrs }
    in
    Fun.protect ~finally:finish f
  end

let instant ?(attrs = []) name =
  if Atomic.get enabled_flag then
    record { name; ts_us = now_s () *. 1e6; dur_us = 0.0; tid = tid (); attrs }

let events () =
  let r = Atomic.get ring in
  let total = Atomic.get r.cursor in
  let cap = Array.length r.slots in
  let first = max 0 (total - cap) in
  List.filter_map
    (fun seq -> r.slots.(seq mod cap))
    (List.init (total - first) (fun i -> first + i))

let to_chrome () =
  let events = events () in
  (* Timestamps are exported relative to the earliest retained event:
     absolute epoch-microseconds exceed the JSON printer's 12
     significant digits, and Chrome normalizes to the minimum anyway. *)
  let base = List.fold_left (fun acc e -> Float.min acc e.ts_us) Float.infinity events in
  let event_json e =
    Json.Obj
      [
        ("name", Json.String e.name);
        ("cat", Json.String "blitz");
        ("ph", Json.String "X");
        ("ts", Json.Float (e.ts_us -. base));
        ("dur", Json.Float e.dur_us);
        ("pid", Json.Int 1);
        ("tid", Json.Int e.tid);
        ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.attrs));
      ]
  in
  Json.List (List.map event_json events)

let write_chrome path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~indent:true (to_chrome ()));
      Out_channel.output_char oc '\n')
