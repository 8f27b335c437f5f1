(* The repository benchmark.

   Usage:
     main.exe ladder [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                     [--json FILE] [--check-names BENCHMARK.json]
     main.exe diff OLD NEW

   `ladder --workload W` runs one workload and prints its metrics; the
   last line of standard output is one JSON object {correct, attempted,
   failed, metrics}.  Without --workload it runs this program once per
   workload, one after another, so each workload's peak RSS is its own.
   With --trace 0 (the default) the metrics are the end-to-end ones, with
   --trace 1 the per-layer ones.  --seconds is the run length (default 30, the
   run_seconds of BENCHMARK.json).  The exit code is 1 when any answer
   fails its check, any metric is not a number, or (with --check-names)
   the printed metric names differ from BENCHMARK.json's; the reasons
   then go to standard error as well.  BLITZ_BENCH_FAST shrinks every size for a smoke run.  README.md in
   this directory has the workloads, the metric glossary and the claim
   protocol. *)

let usage () =
  prerr_endline
    "usage: main.exe ladder [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--json FILE] \
     [--check-names FILE]\n\
    \       main.exe diff OLD NEW";
  exit 2

let default_seconds = if Query.fast then 0.3 else 30.
let trace_dir = Filename.concat "ladder" "results"

let traced kind ~seed ~seconds =
  let a = Load.run kind ~seed ~seconds:(seconds /. 2.) in
  let va = Check.verify a.Load.check in
  let qs = Ladder.queries kind ~seed in
  let l = Ladder.run_ladder kind qs in
  let baseline = Ladder.socket_baseline kind qs l.Ladder.check in
  let vl = Check.verify l.Ladder.check in
  let metrics = Report.per_layer a l ~baseline in
  let violations = Report.monotone_violations l.Ladder.times ~baseline in
  let path = Filename.concat trace_dir (Printf.sprintf "trace-%s.json" (Load.name kind)) in
  Ladder.write_chrome l.Ladder.spans path;
  let bad = Report.check_finite metrics in
  let notes =
    violations @ bad
    @ List.filter_map
        (Option.map (fun f -> "first failure: " ^ f))
        [ va.Check.first_failure; vl.Check.first_failure ]
  in
  let failed = va.Check.failed + vl.Check.failed in
  {
    Report.workload = Load.name kind;
    trace = true;
    seconds;
    attempted = a.Load.attempted + (2 * Array.length qs);
    failed;
    (* An inverted rung is a note, not a failure: rungs are timed on
       separate calls, so on a shared machine a slow stretch during one
       rung can invert two medians however correct every answer is. *)
    correct = failed = 0 && bad = [];
    metrics;
    extra =
      [
        ("ladder_requests", Blitz_util.Json.Int (Array.length qs));
        ("rung_medians_monotone", Blitz_util.Json.Bool (violations = []));
        ("trace_file", Blitz_util.Json.String path);
      ];
    notes;
  }

let untraced kind ~seed ~seconds =
  let run = Load.run kind ~seed ~seconds in
  let v, metrics, extra, notes = Report.end_to_end run in
  let bad = Report.check_finite metrics in
  {
    Report.workload = Load.name kind;
    trace = false;
    seconds;
    attempted = run.Load.attempted;
    failed = v.Check.failed;
    correct = v.Check.failed = 0 && bad = [];
    metrics;
    extra;
    notes = notes @ bad;
  }

let one_workload kind ~seed ~seconds ~trace ~json ~check_names =
  let r = (if trace then traced else untraced) kind ~seed ~seconds in
  let names l = List.sort compare l in
  let printed = names (List.map (fun m -> m.Report.name) r.Report.metrics) in
  let listed spec =
    Report.spec_metrics spec (if trace then "per_layer" else "end_to_end")
    |> List.map (fun s -> s.Report.sname)
    |> names
  in
  let r =
    match check_names with
    | Some spec when listed spec <> printed ->
      let notes = r.Report.notes @ [ "metric names differ from the spec's" ] in
      { r with Report.correct = false; notes }
    | _ -> r
  in
  Report.print_human r;
  print_endline (Report.final_line r);
  Option.iter (fun f -> Report.write_document f ~seed r) json;
  if not r.Report.correct then begin
    (* Why, on standard error too, where a caller that keeps only the
       last line of standard output still sees it. *)
    Printf.eprintf "ladder %s: not correct (%d of %d requests failed)\n" r.Report.workload
      r.Report.failed r.Report.attempted;
    List.iter (Printf.eprintf "  %s\n") r.Report.notes;
    exit 1
  end

(* This program again with [args], on the same standard streams; [true]
   when it exits 0. *)
let child args =
  flush stdout;
  let argv = Array.of_list (Sys.executable_name :: "ladder" :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

let ladder args =
  let workload = ref None and seed = ref 1 and seconds = ref default_seconds in
  let trace = ref false and json = ref None and check_names = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match Load.of_name w with Some k -> workload := Some k | None -> usage ());
      parse rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--json" :: f :: rest ->
      json := Some f;
      parse rest
    | "--check-names" :: f :: rest ->
      check_names := Some f;
      parse rest
    | _ -> usage ()
  in
  parse args;
  match !workload with
  | Some kind ->
    one_workload kind ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
      ~check_names:!check_names
  | None ->
    (* A result document holds one run. *)
    if !json <> None then usage ();
    let ok = List.map (fun kind -> child (args @ [ "--workload"; Load.name kind ])) Load.kinds in
    if not (List.for_all Fun.id ok) then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "ladder" :: rest -> ladder rest
  | [ "diff"; old_path; new_path ] -> Diff.run old_path new_path
  | _ -> usage ()
