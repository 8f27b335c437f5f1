(* Machine-readable benchmark output, shared by every experiment.

   `bench --json FILE` arms this collector; experiments then call [emit]
   with flat field lists alongside their human-readable tables, and the
   harness writes one pretty-printed JSON document at exit:

     { "schema": "blitz-bench/1",
       "provenance": { "commit": ..., "ocaml_version": ..., "flambda": ...,
                       "cores_available": ... },
       "config": { "n": ..., "fast": ... },
       "records": [ { "experiment": "...", ... }, ... ] }

   Records preserve emission order, so a BENCH_*.json file diffs stably
   run-to-run (timing fields aside) and future PRs can accrete their
   perf trajectory here instead of in ad-hoc text files.  The provenance
   fields are the ladder's: what produced the numbers. *)

module Json = Blitz_util.Json

(* The commit checked out in the working directory, read from .git
   without spawning git; "unknown" for a checkout without its history. *)
let commit () =
  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> Some (String.trim s)
    | exception Sys_error _ -> None
  in
  let packed name =
    Option.bind (read ".git/packed-refs") (fun text ->
        String.split_on_char '\n' text
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ sha; r ] when r = name -> Some sha
               | _ -> None))
  in
  let resolved =
    match read ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head ->
      let name = String.sub head 5 (String.length head - 5) in
      (match read (Filename.concat ".git" name) with Some sha -> Some sha | None -> packed name)
    | other -> other
  in
  match resolved with Some sha when String.length sha = 40 -> sha | _ -> "unknown"

let provenance () =
  Json.Obj
    [
      ("commit", Json.String (commit ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("flambda", Json.Bool Build_info.flambda);
      ("cores_available", Json.Int (Domain.recommended_domain_count ()));
    ]

let output : string option ref = ref None
let records : Json.t list ref = ref []

let set_output path = output := Some path

let enabled () = !output <> None

let emit ~experiment fields =
  if enabled () then
    records := Json.Obj (("experiment", Json.String experiment) :: fields) :: !records

let write () =
  match !output with
  | None -> ()
  | Some path ->
    let doc =
      Json.Obj
        [
          ("schema", Json.String "blitz-bench/1");
          ("provenance", provenance ());
          ( "config",
            Json.Obj
              [ ("n", Json.Int Bench_config.n); ("fast", Json.Bool Bench_config.fast) ] );
          ("records", Json.List (List.rev !records));
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Json.to_string ~indent:true doc);
        Out_channel.output_char oc '\n');
    Printf.printf "\nwrote %d record(s) to %s\n" (List.length !records) path
