(* From raw samples to named metrics, and every way they leave the
   process: the human table, the --json result document, and the one-line
   JSON object that is the last line of standard output. *)

module Json = Blitz_util.Json
module Plan_cache = Blitz_cache.Plan_cache
module Samples = Load.Samples

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  trace : bool;
  seconds : float;
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  extra : (string * Json.t) list;
  notes : string list;  (* why the run is not correct, or caveats *)
}

let ms x = x *. 1000.
let us x = x *. 1e6

(* Median of a sample, nan when empty. *)
let med a = if Array.length a = 0 then nan else Pct.median a

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let geomean xs = exp (sum log xs /. float_of_int (List.length xs))
let share num den = float_of_int num /. float_of_int (max 1 den)

(* ---- end-to-end, from the untraced run ---- *)

(* The honest tail (Pct.honest_tail); a sample too small for any
   percentile gives its median, reported as p50. *)
let tail sorted =
  match Pct.honest_tail sorted with
  | Some pv -> pv
  | None -> (50, med sorted)

(* A statistic of each query class's sorted samples in [classes],
   geometric mean over classes, so each class weighs the same whatever its
   share of requests. *)
let over_classes classes f =
  geomean
    (Hashtbl.fold (fun _ v acc -> f (Pct.sorted_copy (Samples.to_array v)) :: acc) classes [])

(* Latency and set-up gate only over the yardstick timed around them: on
   a shared machine the same code runs up to 2x slower while other
   tenants are busy, and the yardstick slows with it (README.md has the
   measurements).  setup_s is reported at the speed the yardstick's
   reference time was taken at.  The rest are extras. *)
let end_to_end (run : Load.run) =
  let v = Check.verify run.Load.check in
  let answered = Check.answered run.Load.check in
  let lat = Pct.sorted_copy (Samples.to_array run.Load.lat) in
  let tail_pct, tail_s = tail lat in
  let class_pct classes p = over_classes classes (fun s -> Pct.nearest_rank s p) in
  let yard = Yardstick.times run.Load.yard in
  let metrics =
    [
      { name = "p50_rel"; value = class_pct run.Load.rel 50; unit_ = "ratio" };
      { name = "p10_rel"; value = class_pct run.Load.rel 10; unit_ = "ratio" };
      {
        name = "setup_s";
        value = med run.Load.setup_rel *. Yardstick.reference_s;
        unit_ = "s";
      };
      { name = "peak_rss_mb"; value = run.Load.peak_rss_mb; unit_ = "MB" };
    ]
  in
  let floats a = Json.List (List.map (fun x -> Json.Float x) (Array.to_list a)) in
  let extra =
    [
      ("p50_ms", Json.Float (ms (class_pct run.Load.classes 50)));
      ("p10_ms", Json.Float (ms (class_pct run.Load.classes 10)));
      ("tail_ms", Json.Float (ms tail_s));
      ("tail_pct", Json.Int tail_pct);
      ("samples", Json.Int (Array.length lat));
      ("classes", Json.Int (Hashtbl.length run.Load.classes));
      ("qps", Json.Float (float_of_int answered /. run.Load.window_s));
      ("yardstick_p50_ms", Json.Float (ms (med yard)));
      ("fail_frac", Json.Float (share v.Check.failed run.Load.attempted));
      ("regret", Json.Float v.Check.regret);
      ("regret_checked", Json.Int v.Check.checked);
      ("hit_share", Json.Float (share run.Load.hits answered));
      ("setup_wall_s", Json.Float (med run.Load.setup));
      ("setup_runs_s", floats run.Load.setup);
      ("setup_yardstick_runs_s", floats (Yardstick.times run.Load.setup_yard));
      ("yardstick_runs_s", floats yard);
    ]
  in
  let notes = match v.Check.first_failure with Some f -> [ "first failure: " ^ f ] | None -> [] in
  (v, metrics, extra, notes)

(* ---- per layer, from the traced run ---- *)

let tier_names = [ "exact"; "thresholded"; "dpccp"; "hybrid"; "ikkbz"; "greedy"; "simpli-squared" ]

(* Rungs that contain the next one on the same request must not be
   faster than it; a tolerance of 5% plus 2 us absorbs timer and cache
   noise between separately timed calls.  The socket rung is B0's (see
   Ladder).  Requests the handler answered from its cache stop at the
   guard: the cache-off rungs below it do more work, not less. *)
let monotone_violations (ts : Ladder.times array) ~(baseline : (float * float) array) =
  let chain label rungs idx =
    if List.length idx < 5 then []
    else
      let medians = List.map (fun (n, f) -> (n, med (Array.of_list (List.map f idx)))) rungs in
      let rec go = function
        | (hn, hv) :: ((ln, lv) :: _ as rest) ->
          if lv > (hv *. 1.05) +. 2e-6 then
            Printf.sprintf "%s: %s median %.1f us exceeds %s median %.1f us" label ln (us lv) hn
              (us hv)
            :: go rest
          else go rest
        | _ -> []
      in
      go medians
  in
  let common =
    [
      ("socket", fun i -> fst baseline.(i));
      ("handler", fun i -> ts.(i).Ladder.handler_s);
      ("guard.optimize", fun i -> ts.(i).Ladder.stages.Ladder.guard);
    ]
  in
  let misses, hits =
    List.partition (fun i -> not ts.(i).Ladder.hit) (List.init (Array.length ts) Fun.id)
  in
  chain "miss"
    (common
    @ [
        ("engine.optimize", fun i -> ts.(i).Ladder.engine);
        ("blitzsplit", fun i -> ts.(i).Ladder.dp);
        ("split_sweep", fun i -> ts.(i).Ladder.sweep_own);
      ])
    misses
  @ chain "hit" common hits

let no_stats =
  {
    Plan_cache.hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    rebases = 0;
    shape_hits = 0;
    band_hits = 0;
    entries = 0;
    bytes = 0;
  }

let per_layer (a : Load.run) (l : Ladder.ladder) ~(baseline : (float * float) array) =
  let ts = l.Ladder.times in
  let m name f = { name; value = us (med (Array.map f ts)); unit_ = "us" } in
  let value name unit_ value = { name; value; unit_ } in
  let count name x = value name "count" (float_of_int x) in
  let socket = med (Array.map fst baseline) in
  let server_ms =
    Array.to_list baseline |> List.map snd |> List.filter Float.is_finite |> Array.of_list
    |> Pct.sorted_copy
  in
  let answered = Check.answered a.Load.check in
  let tier_share t =
    let c = match Hashtbl.find_opt a.Load.tiers t with Some c -> !c | None -> 0 in
    value ("guard.tier." ^ t) "share" (share c answered)
  in
  let cache = Option.value a.Load.cache ~default:no_stats in
  let sweep mi =
    let name = Query.models.(mi).Blitz_cost.Cost_model.name in
    let swept = Array.map (fun t -> t.Ladder.sweep_ns.(mi)) ts |> Array.to_list in
    value ("core.split_ns." ^ name) "ns"
      (med (Array.of_list (List.filter (fun x -> not (Float.is_nan x)) swept)))
  in
  let ctr = l.Ladder.counters in
  [
    m "serve.decode_us" (fun t -> t.Ladder.stages.Ladder.decode);
    m "serve.encode_us" (fun t -> t.Ladder.stages.Ladder.encode);
    m "serve.handler_us" (fun t -> t.Ladder.handler_s);
    value "serve.socket_us" "us" (us socket);
    value "serve.loop_us" "us"
      (us (med (Array.mapi (fun i t -> fst baseline.(i) -. t.Ladder.handler_s) ts)));
    value "serve.server_ms.p50" "ms" (med server_ms);
    value "serve.server_ms.tail" "ms" (snd (tail server_ms));
    count "serve.errors" (a.Load.check.Check.errors + l.Ladder.check.Check.errors);
    m "workload.problem_us" (fun t -> t.Ladder.stages.Ladder.problem);
    m "guard.optimize_us" (fun t -> t.Ladder.stages.Ladder.guard);
    m "guard.self_us" (fun t ->
        let below = if t.Ladder.hit then t.Ladder.cache_find else t.Ladder.engine in
        t.Ladder.stages.Ladder.guard -. below);
    m "guard.sanitize_us" (fun t -> t.Ladder.sanitize);
  ]
  @ List.map tier_share tier_names
  @ [
      m "cache.fingerprint_us" (fun t -> t.Ladder.fingerprint);
      m "cache.find_us" (fun t -> t.Ladder.find);
      value "cache.hit_ratio" "share"
        (share cache.Plan_cache.hits (cache.Plan_cache.hits + cache.Plan_cache.misses));
      count "cache.insertions" cache.Plan_cache.insertions;
      count "cache.evictions" cache.Plan_cache.evictions;
      count "cache.rebases" cache.Plan_cache.rebases;
      value "cache.resident_kb" "KB" (float_of_int cache.Plan_cache.bytes /. 1024.);
      m "engine.optimize_us" (fun t -> t.Ladder.engine);
      m "engine.self_us" (fun t -> t.Ladder.engine -. t.Ladder.dp -. t.Ladder.extract);
      count "engine.arena_grows" l.Ladder.arena_grows;
      m "core.dp_us" (fun t -> t.Ladder.dp);
      m "core.extract_us" (fun t -> t.Ladder.extract);
      sweep 0;
      sweep 1;
      sweep 2;
      count "core.loop_iters" ctr.Blitz_core.Counters.loop_iters;
      count "core.dprime_evals" ctr.Blitz_core.Counters.dprime_evals;
      count "core.threshold_skips" ctr.Blitz_core.Counters.threshold_skips;
      value "core.table_kb" "KB" (float_of_int l.Ladder.table_bytes /. 1024.);
      value "gc.minor_words_per_req" "words"
        (a.Load.gc_minor_words /. float_of_int (max 1 a.Load.attempted));
      count "gc.major_gcs" a.Load.gc_major;
      value "trace.overhead_pct" "pct"
        (100. *. ((med (Array.map (fun t -> t.Ladder.socket) ts) /. socket) -. 1.));
    ]

(* ---- output ---- *)

let check_finite metrics =
  List.filter_map
    (fun mt ->
      if Float.is_finite mt.value then None else Some (mt.name ^ " is not a finite number"))
    metrics

let run_json r =
  let metric mt =
    (mt.name, Json.Obj [ ("value", Json.Float mt.value); ("unit", Json.String mt.unit_) ])
  in
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("trace", Json.Bool r.trace);
      ("seconds", Json.Float r.seconds);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map metric r.metrics));
      ("extra", Json.Obj r.extra);
      ("notes", Json.List (List.map (fun s -> Json.String s) r.notes));
    ]

let print_human r =
  Printf.printf "\n== %s%s: attempted %d, failed %d, %s\n" r.workload
    (if r.trace then " (traced)" else "")
    r.attempted r.failed
    (if r.correct then "correct" else "NOT CORRECT");
  Blitz_util.Ascii_table.print ~header:[| "metric"; "value"; "unit" |]
    (Array.of_list
       (List.map (fun mt -> [| mt.name; Printf.sprintf "%.6g" mt.value; mt.unit_ |]) r.metrics));
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k (Json.to_string v)) r.extra;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) r.notes

(* The machine-read last line: every value with all its digits. *)
let final_line r =
  let metric mt =
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} mt.name
      (if Float.is_finite mt.value then Printf.sprintf "%.17g" mt.value else "0")
      mt.unit_
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let write_document path ~seed result =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "blitz-ladder/1");
        ("provenance", Prov.json ~seed);
        ("runs", Json.List [ run_json result ]);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ~indent:true doc);
      output_char oc '\n')

type spec_metric = { sname : string; lower_better : bool; bound : float option }

(* The metrics BENCHMARK.json lists under [key] ("end_to_end" or
   "per_layer"). *)
let spec_metrics path key =
  let text = In_channel.with_open_text path In_channel.input_all in
  let str k it = match Json.member k it with Some (Json.String s) -> Some s | _ -> None in
  match Json.of_string text with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok v -> (
    match Json.member key v with
    | Some (Json.List items) ->
      List.filter_map
        (fun it ->
          Option.map
            (fun sname ->
              {
                sname;
                lower_better = str "better" it = Some "lower";
                bound = Option.bind (Json.member "bound" it) Json.to_float_opt;
              })
            (str "name" it))
        items
    | _ -> failwith (Printf.sprintf "%s: no %s list" path key))
