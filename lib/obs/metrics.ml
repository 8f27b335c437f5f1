module Json = Blitz_util.Json

(* One process-wide switch: a disabled recording call is a single
   Atomic.get branch and nothing else. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

type meta = { name : string; help : string; labels : (string * string) list }

type counter = { c_meta : meta; c_cell : int Atomic.t }
type gauge = { g_meta : meta; g_cell : float Atomic.t }

type histogram = {
  h_meta : meta;
  bounds : float array;  (* strictly increasing upper bounds, +Inf excluded *)
  cells : int Atomic.t array;  (* length bounds + 1; last is the +Inf bucket *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram

(* Log-spaced 1e-6 .. 1e9, one bound per half-decade: wide enough for
   latencies in seconds on the left and plan costs on the right. *)
let default_buckets = Array.init 31 (fun i -> 10.0 ** (-6.0 +. (0.5 *. float_of_int i)))

(* ---- the registry ----

   Creation is rare (module initialization) and mutex-protected; the
   table is only read under the same mutex (snapshot), so plain
   Hashtbl suffices.  Updates to already-created instruments never
   touch the table. *)

let mutex = Mutex.create ()
let table : (string, instrument) Hashtbl.t = Hashtbl.create 64

let key ~name ~labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let with_registry f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let find_or_create ~name ~labels make check =
  with_registry (fun () ->
      let k = key ~name ~labels in
      match Hashtbl.find_opt table k with
      | Some i -> check i
      | None ->
        let i = make () in
        Hashtbl.add table k i;
        i)

let kind_error ~name what =
  invalid_arg (Printf.sprintf "Metrics: %S is already registered as a %s" name what)

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let counter ?(help = "") ?(labels = []) name =
  let i =
    find_or_create ~name ~labels
      (fun () -> C { c_meta = { name; help; labels }; c_cell = Atomic.make 0 })
      (function C _ as i -> i | i -> kind_error ~name (kind_name i))
  in
  match i with C c -> c | _ -> assert false

let gauge ?(help = "") ?(labels = []) name =
  let i =
    find_or_create ~name ~labels
      (fun () -> G { g_meta = { name; help; labels }; g_cell = Atomic.make 0.0 })
      (function G _ as i -> i | i -> kind_error ~name (kind_name i))
  in
  match i with G g -> g | _ -> assert false

let histogram ?(help = "") ?(buckets = default_buckets) ?(labels = []) name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: empty bucket bounds";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then invalid_arg "Metrics.histogram: non-finite bucket bound";
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    buckets;
  let i =
    find_or_create ~name ~labels
      (fun () ->
        H
          {
            h_meta = { name; help; labels };
            bounds = Array.copy buckets;
            cells = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.0;
            h_count = Atomic.make 0;
          })
      (function
        | H h as i ->
          if h.bounds <> buckets then
            invalid_arg
              (Printf.sprintf "Metrics: histogram %S re-registered with different buckets" name);
          i
        | i -> kind_error ~name (kind_name i))
  in
  match i with H h -> h | _ -> assert false

(* ---- recording ---- *)

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cell 1)

let add c k =
  if k < 0 then invalid_arg "Metrics.add: counters are monotonic (negative delta)";
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cell k)

let set g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v

(* First bound >= v, by binary search; the trailing cell is +Inf. *)
let bucket_index bounds v =
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

let atomic_add_float cell x =
  let rec go () =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (old +. x)) then go ()
  in
  go ()

let observe h v =
  if Atomic.get enabled_flag then begin
    ignore (Atomic.fetch_and_add h.cells.(bucket_index h.bounds v) 1);
    atomic_add_float h.h_sum v;
    ignore (Atomic.fetch_and_add h.h_count 1)
  end

let time h f =
  if Atomic.get enabled_flag then begin
    let t0 = Blitz_util.Clock.now_s () in
    let finally () = observe h (Blitz_util.Clock.now_s () -. t0) in
    Fun.protect ~finally f
  end
  else f ()

(* ---- reading ---- *)

let value c = Atomic.get c.c_cell
let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

(* ---- exposition ---- *)

type snapshot =
  | Counter of { name : string; help : string; labels : (string * string) list; value : int }
  | Gauge of { name : string; help : string; labels : (string * string) list; value : float }
  | Histogram of {
      name : string;
      help : string;
      labels : (string * string) list;
      buckets : (float * int) list;
      sum : float;
      count : int;
    }

let snapshot_of = function
  | C c ->
    Counter
      {
        name = c.c_meta.name;
        help = c.c_meta.help;
        labels = c.c_meta.labels;
        value = Atomic.get c.c_cell;
      }
  | G g ->
    Gauge
      {
        name = g.g_meta.name;
        help = g.g_meta.help;
        labels = g.g_meta.labels;
        value = Atomic.get g.g_cell;
      }
  | H h ->
    let cumulative = ref 0 in
    let finite =
      Array.to_list
        (Array.mapi
           (fun i bound ->
             cumulative := !cumulative + Atomic.get h.cells.(i);
             (bound, !cumulative))
           h.bounds)
    in
    let buckets = finite @ [ (Float.infinity, !cumulative + Atomic.get h.cells.(Array.length h.bounds)) ] in
    Histogram
      {
        name = h.h_meta.name;
        help = h.h_meta.help;
        labels = h.h_meta.labels;
        buckets;
        sum = Atomic.get h.h_sum;
        count = Atomic.get h.h_count;
      }

let snapshot_key = function
  | Counter { name; labels; _ } | Gauge { name; labels; _ } | Histogram { name; labels; _ } ->
    (name, labels)

let snapshot () =
  let items = with_registry (fun () -> Hashtbl.fold (fun _ i acc -> i :: acc) table []) in
  List.map snapshot_of items |> List.sort (fun a b -> compare (snapshot_key a) (snapshot_key b))

(* Prometheus text format 0.0.4. *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels))

let float_repr x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%g" x

let to_prometheus () =
  let buf = Buffer.create 1024 in
  let last_family = ref "" in
  let header name kind help =
    if name <> !last_family then begin
      last_family := name;
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (function
      | Counter { name; help; labels; value } ->
        header name "counter" help;
        Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name (render_labels labels) value)
      | Gauge { name; help; labels; value } ->
        header name "gauge" help;
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" name (render_labels labels) (float_repr value))
      | Histogram { name; help; labels; buckets; sum; count } ->
        header name "histogram" help;
        List.iter
          (fun (le, cumulative) ->
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (render_labels (labels @ [ ("le", float_repr le) ]))
                 cumulative))
          buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels) (float_repr sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) count))
    (snapshot ());
  Buffer.contents buf

let to_json () =
  let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels) in
  let metric = function
    | Counter { name; help; labels; value } ->
      Json.Obj
        [
          ("name", Json.String name);
          ("type", Json.String "counter");
          ("help", Json.String help);
          ("labels", labels_json labels);
          ("value", Json.Int value);
        ]
    | Gauge { name; help; labels; value } ->
      Json.Obj
        [
          ("name", Json.String name);
          ("type", Json.String "gauge");
          ("help", Json.String help);
          ("labels", labels_json labels);
          ("value", Json.Float value);
        ]
    | Histogram { name; help; labels; buckets; sum; count } ->
      Json.Obj
        [
          ("name", Json.String name);
          ("type", Json.String "histogram");
          ("help", Json.String help);
          ("labels", labels_json labels);
          ( "buckets",
            Json.List
              (List.map
                 (fun (le, cumulative) ->
                   Json.Obj [ ("le", Json.Float le); ("count", Json.Int cumulative) ])
                 buckets) );
          ("sum", Json.Float sum);
          ("count", Json.Int count);
        ]
  in
  Json.Obj [ ("metrics", Json.List (List.map metric (snapshot ()))) ]

(* ---- lifecycle ---- *)

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | C c -> Atomic.set c.c_cell 0
          | G g -> Atomic.set g.g_cell 0.0
          | H h ->
            Array.iter (fun cell -> Atomic.set cell 0) h.cells;
            Atomic.set h.h_sum 0.0;
            Atomic.set h.h_count 0)
        table)

let clear () = with_registry (fun () -> Hashtbl.reset table)
