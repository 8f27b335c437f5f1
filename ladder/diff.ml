(* `diff OLD NEW`: match workload x metric across two result sets and
   judge each end-to-end metric against its BENCHMARK.json bound.

   A result set is a --json result file or a directory of them.  For
   each pairing the table gives both sides' median and quartiles and the
   ratio of medians, and a verdict:

   - unresolved: either side's interquartile spread, as a share of its
     median, is wider than the bound, and neither side reads better on
     every run;
   - worse / better: the medians differ by more than the bound;
   - within: otherwise.

   setup_s is a few milliseconds on some workloads, so its medians must
   also differ by more than 20 ms before it is anything but within.
   Per-layer metrics and the result document's numeric extras have no
   bound and are listed as "info".  The exit code is 1 when any metric is
   worse. *)

module Json = Blitz_util.Json

let files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.map (Filename.concat path)
  else [ path ]

(* (workload, metric) -> values, over every run in the set. *)
let load path =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun file ->
      let doc =
        match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
        | Ok v -> v
        | Error msg -> failwith (file ^ ": " ^ msg)
      in
      match Json.member "runs" doc with
      | Some (Json.List runs) ->
        List.iter
          (fun run ->
            let add w name x =
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl (w, name)) in
              Hashtbl.replace tbl (w, name) (x :: prev)
            in
            match (Json.member "workload" run, Json.member "metrics" run) with
            | Some (Json.String w), Some (Json.Obj ms) ->
              List.iter
                (fun (name, m) ->
                  Option.iter (add w name) (Option.bind (Json.member "value" m) Json.to_float_opt))
                ms;
              (match Json.member "extra" run with
              | Some (Json.Obj extra) ->
                List.iter (fun (name, x) -> Option.iter (add w name) (Json.to_float_opt x)) extra
              | _ -> ())
            | _ -> ())
          runs
      | _ -> ())
    (files path);
  tbl

let setup_floor_s = 0.020

let verdict (sm : Report.spec_metric option) olds news =
  let med = Pct.median in
  let o = med olds and n = med news in
  match sm with
  | None | Some { Report.bound = None; _ } -> "info"
  | Some { Report.sname; lower_better = lower; bound = Some bound } ->
    let better a b = if lower then a < b else a > b in
    let spread a = if Array.length a < 2 then 0. else Pct.rel_spread a in
    let all_pairs f = Array.for_all (fun x -> Array.for_all (fun y -> f x y) olds) news in
    let wins_all = all_pairs better and loses_all = all_pairs (fun x y -> better y x) in
    let worse_by = (n -. o) /. Float.abs o *. if lower then 1. else -1. in
    if sname = "setup_s" && Float.abs (n -. o) <= setup_floor_s then "within"
    else if Float.max (spread olds) (spread news) > bound && not (wins_all || loses_all) then
      "unresolved"
    else if worse_by > bound then "worse"
    else if worse_by < -.bound then "better"
    else "within"

let summary a =
  if Array.length a < 2 then Printf.sprintf "%.4g" (Pct.median a)
  else
    let q = Pct.quartiles a in
    Printf.sprintf "%.4g [%.4g, %.4g]" q.(1) q.(0) q.(2)

let spec = "BENCHMARK.json"

let run old_path new_path =
  let specs = Report.spec_metrics spec "end_to_end" @ Report.spec_metrics spec "per_layer" in
  let olds = load old_path and news = load new_path in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem news k then k :: acc else acc) olds []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun ((w, name) as k) ->
        let o = Array.of_list (Hashtbl.find olds k) and n = Array.of_list (Hashtbl.find news k) in
        let sm = List.find_opt (fun s -> s.Report.sname = name) specs in
        let v = verdict sm o n in
        ( v,
          [|
            w;
            name;
            summary o;
            summary n;
            Printf.sprintf "%.3f" (Pct.median n /. Pct.median o);
            v;
          |] ))
      keys
  in
  Printf.printf "old: %s\nnew: %s\nbounds: %s; values are median [q1, q3] over runs\n\n" old_path
    new_path spec;
  Blitz_util.Ascii_table.print
    ~header:[| "workload"; "metric"; "old"; "new"; "new/old"; "verdict" |]
    (Array.of_list (List.map snd rows));
  let count v = List.length (List.filter (fun (x, _) -> x = v) rows) in
  Printf.printf "\nworse: %d  unresolved: %d  within: %d  better: %d\n" (count "worse")
    (count "unresolved") (count "within") (count "better");
  if count "worse" > 0 then exit 1
